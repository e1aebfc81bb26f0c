package cluster

import (
	"sort"
	"sync"
	"time"

	"stcam/internal/wire"
)

// Member is the coordinator's view of one worker.
type Member struct {
	Node     wire.NodeID
	Addr     string
	Capacity int
	Alive    bool
	LastSeen time.Time
	Load     float64
	Stored   int
	Cameras  int
}

// Membership tracks worker liveness from heartbeats. The coordinator calls
// Sweep periodically; members silent longer than the timeout are marked dead
// and reported so camera reassignment can run. Safe for concurrent use.
type Membership struct {
	timeout time.Duration

	mu      sync.Mutex
	members map[wire.NodeID]*Member
}

// NewMembership returns a tracker that declares members dead after timeout
// without a heartbeat (minimum 1ms; default 5s when zero).
func NewMembership(timeout time.Duration) *Membership {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &Membership{
		timeout: timeout,
		members: make(map[wire.NodeID]*Member),
	}
}

// Register upserts a member from a registration message.
func (m *Membership) Register(reg *wire.Register, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cap := reg.Capacity
	if cap <= 0 {
		cap = 1
	}
	m.members[reg.Node] = &Member{
		Node:     reg.Node,
		Addr:     reg.Addr,
		Capacity: cap,
		Alive:    true,
		LastSeen: now,
	}
}

// Heartbeat refreshes a member's liveness and load report, returning false
// for unknown members (they must register first).
func (m *Membership) Heartbeat(hb *wire.Heartbeat, now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[hb.Node]
	if !ok {
		return false
	}
	mem.LastSeen = now
	mem.Alive = true
	mem.Load = hb.Load
	mem.Stored = hb.Stored
	mem.Cameras = hb.Cameras
	return true
}

// Refresh marks every member alive as of now. A standby coordinator promoted
// to leader calls this on takeover: its membership was seeded from replicated
// records whose apply times predate the failover, and without a refresh the
// first sweep would declare the whole (healthy) fleet dead before a single
// heartbeat had a chance to arrive.
func (m *Membership) Refresh(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mem := range m.members {
		mem.Alive = true
		mem.LastSeen = now
	}
}

// Sweep marks members silent past the timeout as dead and returns the members
// that died in this sweep (transition edge only, so callers can trigger
// recovery exactly once per failure).
func (m *Membership) Sweep(now time.Time) []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	var died []Member
	for _, mem := range m.members {
		if mem.Alive && now.Sub(mem.LastSeen) > m.timeout {
			mem.Alive = false
			died = append(died, *mem)
		}
	}
	sort.Slice(died, func(i, j int) bool { return died[i].Node < died[j].Node })
	return died
}

// Alive returns the live members sorted by node ID.
func (m *Membership) Alive() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Member, 0, len(m.members))
	for _, mem := range m.members {
		if mem.Alive {
			out = append(out, *mem)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// All returns every member (alive and dead) sorted by node ID.
func (m *Membership) All() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Member, 0, len(m.members))
	for _, mem := range m.members {
		out = append(out, *mem)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Get returns a copy of one member.
func (m *Membership) Get(node wire.NodeID) (Member, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[node]
	if !ok {
		return Member{}, false
	}
	return *mem, true
}
