package serve

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/flight"
)

// planCache is the LRU-bounded, single-flight plan cache. The identity of
// an entry is the serialized plan key (domain | sorted targets | B_obj |
// B_prc). Lookups of an entry another session is still building block on
// that build instead of preprocessing again — N concurrent identical
// queries pay for ONE core.Preprocess. A failed build is not cached: its
// waiters get the build error and the next lookup builds afresh.
type planCache struct {
	g   *flight.Group[string, planEntry]
	cap int

	hits   atomic.Int64
	misses atomic.Int64
	waits  atomic.Int64 // lookups coalesced onto an in-flight build
}

// planEntry is one key's plan and the backend whose streams built it.
// The builder records backend when it claims the key, so sessions joining
// the build are routed by it before the plan exists.
type planEntry struct {
	plan    *core.Plan
	backend int
}

func newPlanCache(capacity int) *planCache {
	return &planCache{g: flight.New[string, planEntry](capacity, 0, nil), cap: capacity}
}

// peek returns the ready plan for key without counting a hit or bumping
// recency.
func (c *planCache) peek(key string) (*core.Plan, bool) {
	e, ok := c.g.Peek(key, false)
	return e.plan, ok
}

// getOrBuild routes a session for key and returns the key's plan, the
// session's backend, and whether the session avoided running build.
// Routing and the claim on the key are one step under the group's lock,
// so no session slips between another's routing and its claim: pick gets
// the key's builder backend (-1 when absent) and must not block (a
// Router.Pick reads only atomic load counters). On a miss the session
// builds; otherwise it waits, until ctx is done, for the ready or
// in-flight plan, paying no preprocessing, so both count as a hit.
// Callers hold no backend session while they call this.
func (c *planCache) getOrBuild(ctx context.Context, key string, pick func(affinity int) int, build func(backend int) (*core.Plan, error)) (*core.Plan, int, bool, error) {
	var backend int
	call, st := c.g.Acquire(key, func(e *planEntry, s flight.State) {
		if s == flight.Claimed {
			backend = pick(-1)
			e.backend = backend
		} else {
			backend = pick(e.backend)
		}
	})
	switch st {
	case flight.Claimed:
		c.misses.Add(1)
		plan, err := build(backend)
		if err != nil {
			c.g.Fail(call, err)
			return nil, backend, false, err
		}
		c.g.Settle(call, planEntry{plan: plan, backend: backend})
		return plan, backend, false, nil
	case flight.Ready:
		c.hits.Add(1)
	default:
		c.waits.Add(1)
	}
	e, err := call.Wait(ctx)
	return e.plan, backend, true, err
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
	g := c.g.Stats()
	return CacheStats{
		Size:          g.Retained,
		Capacity:      c.cap,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		InflightWaits: c.waits.Load(),
		Evictions:     g.Evictions,
	}
}
