package serve

import (
	"context"

	"stcam/internal/wire"
)

// The subscriber protocol multiplexes N clients onto one continuous install
// per canonical query shape. Clients Subscribe (getting a SubID and the
// shared QueryID back), PollUpdates to drain their bounded buffer, and
// Unsubscribe when done. The fan-out table is the only record of who shares
// an install: the first subscriber to a shape installs it on the
// coordinator, the one that empties its fan-out removes it, and a shape never
// holds two installs once its subscribers are acked. A subscriber that
// stays full long enough is evicted — detached immediately so a dead
// dashboard cannot pin a worker-side install — and learns about it from
// Evicted on its next poll.

// subscriber is one client's view of a shared install.
type subscriber struct {
	id  uint64
	fan *fanout

	// guarded by fmu
	buf     []wire.ContinuousUpdate
	dropped int64
	evicted bool
}

// fanout distributes one install's update stream to its subscribers. Its
// fields are guarded by fmu; the pump holds fmu only for in-memory delivery,
// never across an RPC.
type fanout struct {
	key     string // canonical shape, the fan's key in Frontend.fans
	queryID uint64
	subs    map[uint64]*subscriber
	// gone is made when the last subscriber leaves and closed once the
	// install is removed and the fan unregistered. Subscribers to the shape
	// wait on it rather than install a second copy beside the dying one.
	gone chan struct{}
}

// subscribe handles wire.Subscribe: admission, then join the shape's fan-out,
// installing the query first if no fan-out exists.
func (f *Frontend) subscribe(ctx context.Context, m *wire.Subscribe) (any, bool) {
	if resp, ok := f.admit(ctx, m.Tenant); !ok {
		return resp, true
	}
	defer f.inflight.Add(-1)
	key := canonicalContinuousKey(m.Kind, m.Rect, m.Threshold)
	sub := &subscriber{id: f.nextSub.Add(1)}
	for {
		f.fmu.Lock()
		fan, ok := f.fans[key]
		if ok && fan.gone == nil {
			f.reg.Counter("continuous.dedup_hits").Inc()
			return f.joinLocked(fan, sub), true
		}
		f.fmu.Unlock()
		if ok {
			// The shape's last subscriber is removing its install; uninstall
			// closes gone once RemoveContinuous returns.
			<-fan.gone
			continue
		}
		// Install outside fmu: InstallContinuous RPCs the owning workers.
		id, ch, err := f.coord.InstallContinuous(ctx, m.Kind, m.Rect, m.Threshold)
		if err != nil {
			return &wire.Error{Code: wire.CodeBadRequest, Message: err.Error()}, true
		}
		f.fmu.Lock()
		if _, ok := f.fans[key]; !ok {
			fan := &fanout{key: key, queryID: id, subs: make(map[uint64]*subscriber)}
			f.fans[key] = fan
			go f.pump(fan, ch)
			f.reg.Counter("continuous.dedup_installs").Inc()
			return f.joinLocked(fan, sub), true
		}
		f.fmu.Unlock()
		// Lost an install race: uninstall ours and join the winner.
		f.coord.RemoveContinuous(ctx, id) //nolint:errcheck // best-effort uninstall of the losing duplicate
	}
}

// joinLocked attaches sub to fan and releases fmu, which the caller holds.
func (f *Frontend) joinLocked(fan *fanout, sub *subscriber) *wire.SubscribeAck {
	sub.fan = fan
	fan.subs[sub.id] = sub
	f.subs[sub.id] = sub
	shared := len(fan.subs)
	f.fmu.Unlock()
	f.reg.Gauge("serve.subscribers").Add(1)
	return &wire.SubscribeAck{SubID: sub.id, QueryID: fan.queryID, Shared: shared}
}

// detachLocked removes s from its fan-out; fmu must be held. Detaching an
// already detached subscriber is a no-op. The subscriber that empties the
// fan-out gets true back: the caller must then uninstall it, outside fmu.
func (f *Frontend) detachLocked(s *subscriber) bool {
	fan := s.fan
	if fan.subs[s.id] != s {
		return false
	}
	delete(fan.subs, s.id)
	f.reg.Gauge("serve.subscribers").Add(-1)
	if len(fan.subs) > 0 {
		return false
	}
	fan.gone = make(chan struct{})
	return true
}

// uninstall removes an emptied fan-out's install, then unregisters the fan
// and wakes the subscribers waiting to install its shape afresh.
func (f *Frontend) uninstall(ctx context.Context, fan *fanout) {
	f.coord.RemoveContinuous(ctx, fan.queryID) //nolint:errcheck // best-effort: a stopped coordinator already dropped it
	f.fmu.Lock()
	if f.fans[fan.key] == fan {
		delete(f.fans, fan.key)
	}
	f.fmu.Unlock()
	close(fan.gone)
}

// pump moves updates from the install's channel into every subscriber's
// bounded buffer. It exits when the channel closes (the fan-out emptied and
// was uninstalled, or the coordinator stopped).
func (f *Frontend) pump(fan *fanout, ch <-chan wire.ContinuousUpdate) {
	f.reg.Gauge("serve.fanout.installs").Add(1)
	defer f.reg.Gauge("serve.fanout.installs").Add(-1)
	limit := f.opts.SubscriberBuffer
	for u := range ch {
		last := false
		f.fmu.Lock()
		for _, s := range fan.subs {
			if len(s.buf) < limit {
				s.buf = append(s.buf, u)
				continue
			}
			s.dropped++
			f.reg.Counter("serve.fanout.dropped").Inc()
			if s.dropped >= int64(limit) {
				// Persistently full: the consumer is gone or hopeless. Cut it
				// loose rather than let it pin the shared install forever.
				s.evicted = true
				f.reg.Counter("serve.subscriber.evictions").Inc()
				last = f.detachLocked(s) || last
			}
		}
		f.fmu.Unlock()
		if last {
			f.uninstall(context.Background(), fan)
		}
	}
	// Channel closed. Any subscribers still attached (coordinator shutdown)
	// are evicted; their install is already gone, so no uninstall.
	f.fmu.Lock()
	if f.fans[fan.key] == fan {
		delete(f.fans, fan.key)
	}
	for id, s := range fan.subs {
		s.evicted = true
		delete(fan.subs, id)
		f.reg.Gauge("serve.subscribers").Add(-1)
	}
	f.fmu.Unlock()
}

// poll handles wire.PollUpdates: drain up to Max pending updates. An evicted
// subscriber gets one final poll reporting Evicted, then is forgotten.
func (f *Frontend) poll(m *wire.PollUpdates) (any, bool) {
	f.fmu.Lock()
	s, ok := f.subs[m.SubID]
	if !ok {
		f.fmu.Unlock()
		return &wire.Error{Code: wire.CodeBadRequest, Message: "serve: unknown subscriber"}, true
	}
	n := len(s.buf)
	if m.Max > 0 && m.Max < n {
		n = m.Max
	}
	updates := make([]wire.ContinuousUpdate, n)
	copy(updates, s.buf[:n])
	rest := copy(s.buf, s.buf[n:])
	s.buf = s.buf[:rest]
	dropped, evicted := s.dropped, s.evicted
	if evicted {
		delete(f.subs, m.SubID)
	}
	f.fmu.Unlock()
	return &wire.PollResult{SubID: m.SubID, Updates: updates, Dropped: dropped, Evicted: evicted}, true
}

// unsubscribe handles wire.Unsubscribe: detach from the fan-out. The last
// unsubscribe uninstalls the query from the workers.
func (f *Frontend) unsubscribe(ctx context.Context, m *wire.Unsubscribe) (any, bool) {
	f.fmu.Lock()
	s, ok := f.subs[m.SubID]
	if !ok {
		f.fmu.Unlock()
		return &wire.Error{Code: wire.CodeBadRequest, Message: "serve: unknown subscriber"}, true
	}
	delete(f.subs, m.SubID)
	last := f.detachLocked(s)
	remaining := len(s.fan.subs)
	f.fmu.Unlock()
	if last {
		f.uninstall(ctx, s.fan)
	}
	return &wire.UnsubscribeAck{Remaining: remaining}, true
}
