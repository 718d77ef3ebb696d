package serve

import (
	"container/list"
	"sync"

	"blu/internal/obs"
)

var (
	obsCacheHit   = obs.GetCounter("serve_cache_hit_total")
	obsCacheMiss  = obs.GetCounter("serve_cache_miss_total")
	obsCacheEvict = obs.GetCounter("serve_cache_evict_total")
	obsCoalesced  = obs.GetCounter("serve_coalesced_total")
)

// lruCache is the bounded result cache over infer-request digests.
// Values are finished response bodies, stored verbatim, so a hit is
// byte-identical to the miss that populated it. Entries are immutable
// once inserted; eviction is least-recently-used.
type lruCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	items map[uint64]*list.Element
}

type lruEntry struct {
	key  uint64
	body []byte
}

func newLRUCache(max int) *lruCache {
	return &lruCache{max: max, ll: list.New(), items: make(map[uint64]*list.Element)}
}

// get returns the cached body for key, refreshing its recency. Callers
// must not mutate the returned bytes.
func (c *lruCache) get(key uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		obsCacheMiss.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	obsCacheHit.Inc()
	return el.Value.(*lruEntry).body, true
}

// put inserts (or refreshes) key → body, evicting the LRU entry when
// the bound is exceeded.
func (c *lruCache) put(key uint64, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).body = body
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, body: body})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruEntry).key)
		obsCacheEvict.Inc()
	}
}

// peek returns the cached body for key without refreshing recency or
// touching the hit/miss counters — the snapshot collector's read,
// which must not perturb the cache it is recording.
func (c *lruCache) peek(key uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*lruEntry).body, true
}

// remove drops key from the cache, reporting whether it was present.
// It is the digest-delta invalidation primitive: a session whose
// measurements changed removes exactly the entries it minted.
func (c *lruCache) remove(key uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.items, key)
	return true
}

// flight is one in-flight infer computation shared by every request
// with the same digest: the leader runs the solver and publishes the
// finished (status, body); followers wait on done.
type flight struct {
	done   chan struct{}
	status int
	body   []byte
}

// flightGroup coalesces identical in-flight requests, singleflight-
// style: the first request for a digest becomes the leader, later ones
// followers. The flight is removed on finish, so a request arriving
// after completion starts fresh (and normally hits the result cache).
type flightGroup struct {
	mu sync.Mutex
	m  map[uint64]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[uint64]*flight)}
}

// join returns the flight for key and whether the caller is its leader.
func (g *flightGroup) join(key uint64) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		obsCoalesced.Inc()
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// finish publishes the leader's result and releases the flight.
func (g *flightGroup) finish(key uint64, f *flight, status int, body []byte) {
	f.status = status
	f.body = body
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
}
