package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// planCache is the LRU-bounded, single-flight plan cache. The identity of
// an entry is the serialized plan key (domain | sorted targets | B_obj |
// B_prc). Lookups of an entry another session is still building block on
// that build instead of preprocessing again — N concurrent identical
// queries pay for ONE core.Preprocess.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	order   *list.List // front = most recently used; ready entries only

	hits      atomic.Int64
	misses    atomic.Int64
	waits     atomic.Int64 // lookups coalesced onto an in-flight build
	evictions atomic.Int64
}

// cacheEntry is one plan, possibly still being built. ready is closed
// when plan/err are final; elem links the entry into the LRU order once
// it is ready (failed builds never enter the LRU — they are deleted so
// the next lookup retries).
type cacheEntry struct {
	key     string
	backend int // index of the backend whose streams built the plan
	ready   chan struct{}
	plan    *core.Plan
	err     error
	elem    *list.Element
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		entries: make(map[string]*cacheEntry),
		order:   list.New(),
	}
}

// peek returns the ready plan for key without counting a hit or bumping
// recency.
func (c *planCache) peek(key string) (*core.Plan, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.ready:
		return e.plan, e.err == nil
	default:
		return nil, false
	}
}

// getOrBuild routes a session for key and returns the key's plan, the
// session's backend, and whether the session avoided running build.
//
// Routing and the claim on the key are one step under the cache lock, so
// no session can slip between another's routing decision and its claim.
// pick receives the backend recorded as the key's builder (-1 when the
// key is absent) and returns the session's backend; it runs under the
// cache lock, so it must not block or call into the cache (a Router.Pick
// reads only atomic load counters). On a miss the session becomes the
// builder: the entry records its backend, build runs outside the lock,
// and the outcome is published to every session waiting on it.
// Otherwise the entry is ready or in flight and the session waits for
// it; either way it pays no preprocessing, so both count as a hit.
// Callers hold no backend session while they call this.
func (c *planCache) getOrBuild(key string, pick func(affinity int) int, build func(backend int) (*core.Plan, error)) (*core.Plan, int, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.ready:
			c.hits.Add(1)
			c.order.MoveToFront(e.elem)
		default:
			c.waits.Add(1)
		}
		backend := pick(e.backend)
		c.mu.Unlock()
		<-e.ready
		return e.plan, backend, true, e.err
	}
	backend := pick(-1)
	e := &cacheEntry{key: key, backend: backend, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses.Add(1)
	c.mu.Unlock()

	e.plan, e.err = build(backend)
	c.mu.Lock()
	if e.err != nil {
		// Failed builds are not cached: drop the entry so a later retry
		// preprocesses afresh. Waiters already joined still see the error.
		delete(c.entries, e.key)
	} else {
		e.elem = c.order.PushFront(e)
		for c.order.Len() > c.cap {
			oldest := c.order.Back()
			victim := oldest.Value.(*cacheEntry)
			c.order.Remove(oldest)
			delete(c.entries, victim.key)
			c.evictions.Add(1)
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return e.plan, backend, false, e.err
}

// CacheStats is the plan cache's observability snapshot.
type CacheStats struct {
	Size          int   `json:"size"`
	Capacity      int   `json:"capacity"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	InflightWaits int64 `json:"inflight_waits"`
	Evictions     int64 `json:"evictions"`
}

func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	size := c.order.Len()
	c.mu.Unlock()
	return CacheStats{
		Size:          size,
		Capacity:      c.cap,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		InflightWaits: c.waits.Load(),
		Evictions:     c.evictions.Load(),
	}
}
