package serve

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/flight"
	"repro/internal/query"
)

// answerCache is the tier's shared answer-reuse layer: it caches
// fully-budgeted answer means per (domain, attribute, object,
// per-question budget tier) with single-flight fills, so concurrent
// sessions — and the per-shard sub-sessions of one scattered query —
// asking the same crowd question coalesce into one purchase. Waiters on
// an in-flight fill count as hits: they pay nothing.
//
// Safety of reuse rests on the deterministic crowd: a question's
// full-budget mean is a pure function of (object, attribute, N), so the
// cached copy is bit-identical to what a fresh purchase would compute
// (reuse.go documents the contract). The cache therefore changes spend,
// never output bits.
//
// Entries live in a flight.Group bounded by cap (LRU over filled
// entries) and an optional TTL that bounds staleness. A failed fill is
// not cached; its waiters degrade to a direct uncached purchase.
type answerCache struct {
	g   *flight.Group[answerKey, float64]
	cap int

	hits      atomic.Int64
	misses    atomic.Int64
	waits     atomic.Int64 // resolves coalesced onto an in-flight fill
	published atomic.Int64 // means offered by lazy sessions' Publish
}

// answerKey identifies one cached mean. The answer count n is part of
// the key: means over different per-question budgets are different
// quantities and must never alias.
type answerKey struct {
	domain string
	attr   string
	object int
	n      int
}

func newAnswerCache(capacity int, ttl time.Duration, now func() time.Time) *answerCache {
	return &answerCache{g: flight.New[answerKey, float64](capacity, ttl, now), cap: capacity}
}

// memoFor adapts the cache to the query engine's AnswerMemo interface,
// scoped to one domain and to the session's ctx, which bounds its waits
// on other sessions' fills.
func (c *answerCache) memoFor(ctx context.Context, domain string) query.AnswerMemo {
	return domainMemo{ctx: ctx, c: c, domain: domain}
}

type domainMemo struct {
	ctx    context.Context
	c      *answerCache
	domain string
}

func (m domainMemo) Resolve(qs []query.ReuseQuestion, pay func(miss []int) ([]float64, error)) ([]float64, []bool, error) {
	return m.c.resolve(m.ctx, m.domain, qs, pay)
}

func (m domainMemo) Peek(q query.ReuseQuestion) (float64, bool) {
	return m.c.peek(m.domain, q)
}

func (m domainMemo) Publish(q query.ReuseQuestion, mean float64) {
	m.c.publish(m.domain, q, mean)
}

func keyOf(domain string, q query.ReuseQuestion) answerKey {
	return answerKey{domain: domain, attr: q.Attr, object: q.ObjectID, n: q.N}
}

// resolve is the single-flight batch lookup behind AnswerMemo.Resolve.
// It runs in three phases to stay deadlock-free across sessions that
// claim overlapping question sets in different orders: (1) classify
// every question in one lock pass into hit / claim (this session fills)
// / join (wait on another session's in-flight fill); (2) pay for and
// settle ALL own claims before (3) waiting on any join. Because every
// session ends its claims before it blocks, the cross-session wait graph
// is acyclic. Joins whose filler failed degrade to a direct uncached
// purchase; a join whose wait outlives ctx fails the resolve.
func (c *answerCache) resolve(ctx context.Context, domain string, qs []query.ReuseQuestion, pay func(miss []int) ([]float64, error)) ([]float64, []bool, error) {
	keys := make([]answerKey, len(qs))
	for i, q := range qs {
		keys[i] = keyOf(domain, q)
	}
	calls, states := c.g.AcquireAll(keys)
	means := make([]float64, len(qs))
	reused := make([]bool, len(qs))
	first := make(map[*flight.Call[answerKey, float64]]int) // own call → its first question
	var miss, joins []int
	for i, s := range states {
		switch _, dup := first[calls[i]]; {
		case s != flight.Claimed:
			if s == flight.Joined {
				c.waits.Add(1)
			}
			joins = append(joins, i)
		case !dup:
			first[calls[i]] = i
			miss = append(miss, i)
		}
	}

	// Pay once per own call, in claim order, and settle it; on error every
	// own call fails, so its joiners buy directly. Repeats alias their first.
	if len(miss) > 0 {
		c.misses.Add(int64(len(miss)))
		paid, err := pay(miss)
		for k, i := range miss {
			if err != nil {
				c.g.Fail(calls[i], err)
			} else {
				c.g.Settle(calls[i], paid[k])
				means[i] = paid[k]
			}
		}
		if err != nil {
			return nil, nil, err
		}
		for i, s := range states {
			if s == flight.Claimed {
				means[i] = means[first[calls[i]]]
			}
		}
	}

	// Own claims are settled; joining other sessions' fills cannot cycle.
	var retry []int
	for _, i := range joins {
		mean, err := calls[i].Wait(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			retry = append(retry, i)
			continue
		}
		means[i] = mean
		reused[i] = true
		c.hits.Add(1)
	}
	if len(retry) > 0 {
		// The filler we joined errored out; buy these directly (uncached —
		// the filler's error likely persists, so do not trap new waiters).
		paid, err := pay(retry)
		if err != nil {
			return nil, nil, err
		}
		for k, i := range retry {
			means[i] = paid[k]
		}
	}
	return means, reused, nil
}

// peek is the non-blocking probe behind AnswerMemo.Peek: ready hits
// bump recency and count as hits; in-flight fills and absent keys report
// a miss without blocking or claiming.
func (c *answerCache) peek(domain string, q query.ReuseQuestion) (float64, bool) {
	mean, ok := c.g.Peek(keyOf(domain, q), true)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return mean, ok
}

// publish offers a mean the caller already paid for (a lazy session
// reaching an attribute's full budget). Existing and in-flight entries
// are never clobbered — first writer wins, so concurrent publishers and
// fillers agree (they computed the same deterministic mean anyway).
func (c *answerCache) publish(domain string, q query.ReuseQuestion, mean float64) {
	if c.g.Add(keyOf(domain, q), mean) {
		c.published.Add(1)
	}
}

// AnswerCacheStats is the answer cache's observability snapshot.
type AnswerCacheStats struct {
	Size          int   `json:"size"`
	Capacity      int   `json:"capacity"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	InflightWaits int64 `json:"inflight_waits"`
	Published     int64 `json:"published"`
	Evictions     int64 `json:"evictions"`
	Expirations   int64 `json:"expirations"`
}

func (c *answerCache) stats() AnswerCacheStats {
	g := c.g.Stats()
	return AnswerCacheStats{
		Size:          g.Retained,
		Capacity:      c.cap,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		InflightWaits: c.waits.Load(),
		Published:     c.published.Load(),
		Evictions:     g.Evictions,
		Expirations:   g.Expirations,
	}
}
