package cluster

import (
	"hash/fnv"
	"sync"
	"time"
)

// FaultyNet coordinates fault injection across a whole cluster. The plain
// Faulty decorator is per-caller: its programs key on the destination only,
// so a single shared instance cannot sever one link without severing it for
// every node, and a partition installed on it is inherently one-way. A
// FaultyNet instead hands each node its own seeded Faulty view over one
// shared base transport, which makes symmetric partitions expressible:
// Partition(a, b) cuts a→b on a's view and b→a on b's view in one call.
//
// On top of that primitive sits a small scenario DSL — HealAfter schedules a
// repair, FlapEvery scripts a link that bounces — so chaos tests describe
// network weather declaratively instead of hand-rolling timer goroutines and
// both partition directions.
type FaultyNet struct {
	base Transport
	seed int64

	mu     sync.Mutex
	views  map[string]*Faulty
	timers []*time.Timer
	stops  []func()
	closed bool
}

// NewFaultyNet wraps a base transport. The seed fixes every view's fault
// sequence: view seeds are derived from it and the view's address, so a
// given (seed, topology) replays identically regardless of creation order.
func NewFaultyNet(base Transport, seed int64) *FaultyNet {
	return &FaultyNet{base: base, seed: seed, views: make(map[string]*Faulty)}
}

// View returns the fault-injecting transport for the node that serves on
// addr, creating it on first use. Build each node over its own view; faults
// installed via Partition/FlapEvery then affect exactly the links named.
func (n *FaultyNet) View(addr string) *Faulty {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.views[addr]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(addr)) //nolint:errcheck // fnv.Write never fails
		v = NewFaulty(n.base, n.seed^int64(h.Sum64()))
		n.views[addr] = v
	}
	return v
}

// Partition severs the link between the nodes serving on a and b in both
// directions. Other chaos programmed on either view is preserved.
func (n *FaultyNet) Partition(a, b string) {
	n.View(a).SetPartitioned(b, true)
	n.View(b).SetPartitioned(a, true)
}

// Heal restores the a↔b link in both directions.
func (n *FaultyNet) Heal(a, b string) {
	n.View(a).SetPartitioned(b, false)
	n.View(b).SetPartitioned(a, false)
}

// Isolate severs every currently-known link to and from addr — the
// one-call version of "this node fell off the network".
//
//lint:allow testonly FaultyNet scenario DSL the partition and chaos tests script
func (n *FaultyNet) Isolate(addr string) {
	for _, other := range n.addrs() {
		if other != addr {
			n.Partition(addr, other)
		}
	}
}

// Rejoin heals every currently-known link to and from addr.
//
//lint:allow testonly FaultyNet scenario DSL the partition and chaos tests script
func (n *FaultyNet) Rejoin(addr string) {
	for _, other := range n.addrs() {
		if other != addr {
			n.Heal(addr, other)
		}
	}
}

func (n *FaultyNet) addrs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.views))
	for a := range n.views {
		out = append(out, a)
	}
	return out
}

// HealAfter schedules Heal(a, b) once d elapses. The repair is cancelled if
// the net is closed first.
//
//lint:allow testonly FaultyNet scenario DSL the partition and chaos tests script
func (n *FaultyNet) HealAfter(d time.Duration, a, b string) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	t := time.AfterFunc(d, func() { n.Heal(a, b) })
	n.timers = append(n.timers, t)
	n.mu.Unlock()
}

// FlapEvery partitions a↔b immediately and toggles the link every period —
// a flapping cable. The returned stop function heals the link and ends the
// flapping; Close stops all flappers (leaving links in whatever state the
// last toggle set, as a real outage would).
//
//lint:allow testonly FaultyNet scenario DSL the partition and chaos tests script
func (n *FaultyNet) FlapEvery(period time.Duration, a, b string) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	halt := func() { once.Do(func() { close(done) }) }
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return func() {}
	}
	n.stops = append(n.stops, halt)
	n.mu.Unlock()

	n.Partition(a, b)
	go func() {
		tick := time.NewTicker(period)
		defer tick.Stop()
		cut := true
		for {
			select {
			case <-tick.C:
				cut = !cut
				if cut {
					n.Partition(a, b)
				} else {
					n.Heal(a, b)
				}
			case <-done:
				return
			}
		}
	}()
	return func() {
		halt()
		n.Heal(a, b)
	}
}

// InjectedTotal sums the injected-fault counters across every view.
//
//lint:allow testonly FaultyNet scenario DSL: chaos tests assert faults were injected
func (n *FaultyNet) InjectedTotal() FaultStats {
	var out FaultStats
	n.mu.Lock()
	views := make([]*Faulty, 0, len(n.views))
	for _, v := range n.views {
		views = append(views, v)
	}
	n.mu.Unlock()
	for _, v := range views {
		s := v.Injected()
		out.Dropped += s.Dropped
		out.Hung += s.Hung
		out.Duplicated += s.Duplicated
		out.Delayed += s.Delayed
	}
	return out
}

// Close cancels scheduled scenario steps and closes the base transport.
func (n *FaultyNet) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	timers, stops := n.timers, n.stops
	n.timers, n.stops = nil, nil
	n.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	for _, halt := range stops {
		halt()
	}
	return n.base.Close()
}
