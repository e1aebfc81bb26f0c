package cluster

import (
	"sync"
	"time"

	"stcam/internal/wire"
)

// Lease tracks a leader's lease from the observer side. The leader renews it
// by streaming Replicate frames (an empty frame is a pure renewal); a standby
// that sees the lease expire starts an election. The TTL should be a small
// multiple of the renewal interval so one lost frame does not trigger a
// failover.
type Lease struct {
	ttl time.Duration

	mu     sync.Mutex
	leader wire.NodeID
	addr   string
	epoch  uint64
	last   time.Time
}

// NewLease returns a lease tracker that considers the leader gone after ttl
// without a renewal (minimum 1ms; default 500ms when zero). The lease starts
// expired: a standby must hear from a leader before trusting one.
func NewLease(ttl time.Duration) *Lease {
	if ttl <= 0 {
		ttl = 500 * time.Millisecond
	} else if ttl < time.Millisecond {
		ttl = time.Millisecond
	}
	return &Lease{ttl: ttl}
}

// Renew records a lease renewal from leader at epoch. Renewals from an older
// epoch than the last accepted one are ignored (a deposed leader's stale
// stream must not suppress failover) and Renew reports whether the renewal
// was accepted.
func (l *Lease) Renew(leader wire.NodeID, addr string, epoch uint64, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch < l.epoch {
		return false
	}
	l.leader, l.addr, l.epoch, l.last = leader, addr, epoch, now
	return true
}

// Expired reports whether the lease has lapsed at now.
func (l *Lease) Expired(now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last.IsZero() || now.Sub(l.last) > l.ttl
}

// Holder returns the last accepted leader, its address, and its epoch.
func (l *Lease) Holder() (wire.NodeID, string, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.leader, l.addr, l.epoch
}

// ElectLeader picks the failover leader deterministically: the lowest node
// ID among the candidates with the maximum applied journal index. Every
// reachable standby computes the same answer from the same inputs, so no
// voting round is needed — ties in journal progress break toward the stable
// lowest ID. Returns false when candidates is empty.
func ElectLeader(applied map[wire.NodeID]uint64) (wire.NodeID, bool) {
	var (
		best    wire.NodeID
		bestIdx uint64
		found   bool
	)
	for id, idx := range applied {
		if !found || idx > bestIdx || (idx == bestIdx && id < best) {
			best, bestIdx, found = id, idx, true
		}
	}
	return best, found
}
