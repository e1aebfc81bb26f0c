package serve

import (
	"container/list"
	"sync"
	"time"

	"stcam/internal/clock"
	"stcam/internal/metrics"
	"stcam/internal/wire"
)

// resultCache is the epoch-keyed LRU result cache. Entries are sized by
// their wire encoding (the honest measure of what a hit saves downstream)
// and bounded by a byte budget; a TTL bounds staleness within an epoch; and
// any observed epoch change purges everything, because a reassignment
// changes which workers own which cameras and therefore every answer.
type resultCache struct {
	budget int64
	ttl    time.Duration
	clk    clock.Clock
	reg    *metrics.Registry

	mu      sync.Mutex
	epoch   uint64
	bytes   int64
	lru     *list.List // front = most recently used; elements hold *cacheEntry
	entries map[string]*list.Element
}

type cacheEntry struct {
	key   string
	resp  any
	size  int64
	added time.Time
}

func newResultCache(budget int64, ttl time.Duration, clk clock.Clock, reg *metrics.Registry) *resultCache {
	return &resultCache{
		budget:  budget,
		ttl:     ttl,
		clk:     clk,
		reg:     reg,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
	}
}

// syncEpochLocked purges the whole cache when the observed epoch differs
// from the one the entries were answered under.
func (c *resultCache) syncEpochLocked(epoch uint64) {
	if epoch == c.epoch {
		return
	}
	if len(c.entries) > 0 {
		c.reg.Counter("serve.cache.invalidations").Inc()
	}
	c.epoch = epoch
	c.bytes = 0
	c.lru.Init()
	c.entries = make(map[string]*list.Element)
	c.publishLocked()
}

func (c *resultCache) publishLocked() {
	c.reg.Gauge("serve.cache.bytes").Set(c.bytes)
	c.reg.Gauge("serve.cache.entries").Set(int64(len(c.entries)))
}

func (c *resultCache) get(key string, epoch uint64) (any, bool) {
	if c.budget <= 0 {
		return nil, false
	}
	now := c.clk.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncEpochLocked(epoch)
	elem, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	e := elem.Value.(*cacheEntry)
	if now.Sub(e.added) > c.ttl {
		c.removeLocked(elem)
		c.reg.Counter("serve.cache.expired").Inc()
		c.publishLocked()
		return nil, false
	}
	c.lru.MoveToFront(elem)
	return e.resp, true
}

func (c *resultCache) put(key string, epoch uint64, resp any) {
	if c.budget <= 0 {
		return
	}
	kind := wire.KindOf(resp)
	if kind == 0 {
		return
	}
	n, err := wire.EncodedLen(kind, resp)
	if err != nil {
		return
	}
	size := int64(n)
	if size > c.budget {
		return // a single oversized answer would evict the whole cache for nothing
	}
	now := c.clk.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncEpochLocked(epoch)
	if elem, ok := c.entries[key]; ok {
		c.removeLocked(elem)
	}
	e := &cacheEntry{key: key, resp: resp, size: size, added: now}
	c.entries[key] = c.lru.PushFront(e)
	c.bytes += size
	for c.bytes > c.budget {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.reg.Counter("serve.cache.evicted").Inc()
	}
	c.publishLocked()
}

func (c *resultCache) removeLocked(elem *list.Element) {
	e := elem.Value.(*cacheEntry)
	c.lru.Remove(elem)
	delete(c.entries, e.key)
	c.bytes -= e.size
}
