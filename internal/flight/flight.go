// Package flight provides a keyed single-flight group. The first caller
// of a key claims it and executes; callers arriving meanwhile join and
// wait for its outcome instead of executing again. A success may be
// retained, bounded by an LRU count and an age; a failure frees the key,
// and each joiner decides what to do. Nobody executes or waits while
// holding the group's lock.
package flight

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// State is what Acquire found under a key.
type State int

const (
	// Claimed: the key was free. The caller owns the new call and must
	// end it with Settle or Fail.
	Claimed State = iota
	// Joined: another caller's call is in flight; Wait for its outcome.
	Joined
	// Ready: a retained successful outcome; Wait returns it at once.
	Ready
)

// Call is one execution of a key. Its value and error are final once it
// ends, so a reader holding a call across its eviction stays safe.
type Call[K comparable, V any] struct {
	key     K
	done    chan struct{} // closed when the call ends
	val     V
	err     error
	settled time.Time     // for the age bound
	elem    *list.Element // place in the LRU order; nil unless retained
}

// Wait blocks until the call ends or ctx is done, and returns the settled
// value, the call's failure, or ctx's error.
func (c *Call[K, V]) Wait(ctx context.Context) (V, error) {
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// Group is a keyed single-flight table. Safe for concurrent use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	limit int           // settled calls retained; 0 retains none
	ttl   time.Duration // age bound of a retained call; 0 = none
	now   func() time.Time
	calls map[K]*Call[K, V] // in-flight and retained calls
	lru   *list.List        // retained calls, most recently used first

	evictions, expirations atomic.Int64
}

// New returns a group retaining up to limit settled calls in LRU order,
// each for at most ttl after it settled by the clock now (ttl 0: no age
// bound). With limit 0 a settled key is free again at once, which makes
// the group a keyed lock. In-flight calls are never evicted.
func New[K comparable, V any](limit int, ttl time.Duration, now func() time.Time) *Group[K, V] {
	return &Group[K, V]{limit: limit, ttl: ttl, now: now, calls: make(map[K]*Call[K, V]), lru: list.New()}
}

// Acquire claims k, or joins the call in flight or retained under it, in
// one critical section. locked, when not nil, runs inside that section
// with the call's value slot and the state found: a claimer may record
// there what its joiners need before it settles (Settle replaces the
// slot). locked must not block or call into the group.
func (g *Group[K, V]) Acquire(k K, locked func(v *V, s State)) (*Call[K, V], State) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, s := g.acquireLocked(k)
	if locked != nil {
		locked(&c.val, s)
	}
	return c, s
}

// AcquireAll acquires every key in one critical section; a key repeated
// after this pass claimed it reports Claimed again, with the same call.
// A caller must end all its own calls before it waits on any it joined:
// then no two callers wait on each other, however their key sets overlap.
func (g *Group[K, V]) AcquireAll(keys []K) ([]*Call[K, V], []State) {
	calls := make([]*Call[K, V], len(keys))
	states := make([]State, len(keys))
	mine := make(map[*Call[K, V]]bool) // calls this pass claimed
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, k := range keys {
		c, s := g.acquireLocked(k)
		if s == Claimed {
			mine[c] = true
		} else if mine[c] {
			s = Claimed
		}
		calls[i], states[i] = c, s
	}
	return calls, states
}

func (g *Group[K, V]) acquireLocked(k K) (*Call[K, V], State) {
	c := g.lookupLocked(k)
	switch {
	case c == nil:
		c = &Call[K, V]{key: k, done: make(chan struct{})}
		g.calls[k] = c
		return c, Claimed
	case c.elem != nil:
		g.lru.MoveToFront(c.elem)
		return c, Ready
	}
	return c, Joined
}

// lookupLocked returns k's call, dropping a retained one past its age
// bound.
func (g *Group[K, V]) lookupLocked(k K) *Call[K, V] {
	c := g.calls[k]
	if c != nil && g.expiredLocked(c) {
		g.dropLocked(c)
		g.expirations.Add(1)
		return nil
	}
	return c
}

func (g *Group[K, V]) expiredLocked(c *Call[K, V]) bool {
	return g.ttl > 0 && c.elem != nil && g.now().Sub(c.settled) > g.ttl
}

func (g *Group[K, V]) dropLocked(c *Call[K, V]) {
	g.lru.Remove(c.elem)
	delete(g.calls, c.key)
}

// Settle ends a claimed call with v and wakes its joiners. The call is
// retained at the front of the LRU order; the least recently used calls
// beyond the count bound are evicted, and expired ones at the tail swept.
func (g *Group[K, V]) Settle(c *Call[K, V], v V) {
	g.mu.Lock()
	c.val = v
	g.retainLocked(c)
	g.mu.Unlock()
	close(c.done)
}

func (g *Group[K, V]) retainLocked(c *Call[K, V]) {
	if g.limit <= 0 {
		delete(g.calls, c.key)
		return
	}
	if g.ttl > 0 {
		c.settled = g.now()
	}
	c.elem = g.lru.PushFront(c)
	for g.lru.Len() > g.limit {
		g.dropLocked(g.lru.Back().Value.(*Call[K, V]))
		g.evictions.Add(1)
	}
	for tail := g.lru.Back(); g.expiredLocked(tail.Value.(*Call[K, V])); tail = g.lru.Back() {
		g.dropLocked(tail.Value.(*Call[K, V]))
		g.expirations.Add(1)
	}
}

// Fail ends a claimed call with a non-nil err: the key is free again and
// every joiner's Wait returns err.
func (g *Group[K, V]) Fail(c *Call[K, V], err error) {
	g.mu.Lock()
	c.err = err
	delete(g.calls, c.key)
	g.mu.Unlock()
	close(c.done)
}

// Peek returns k's retained value without claiming, joining or blocking;
// an in-flight call reads as absent. touch counts the peek as a use.
func (g *Group[K, V]) Peek(k K, touch bool) (V, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.lookupLocked(k)
	if c == nil || c.elem == nil {
		var zero V
		return zero, false
	}
	if touch {
		g.lru.MoveToFront(c.elem)
	}
	return c.val, true
}

// Add retains v under k as a settled call unless k is in flight or
// retained, and reports whether it did: the first writer wins.
func (g *Group[K, V]) Add(k K, v V) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.lookupLocked(k) != nil {
		return false
	}
	c := &Call[K, V]{key: k, done: make(chan struct{}), val: v}
	close(c.done)
	g.calls[k] = c
	g.retainLocked(c)
	return true
}

// Stats is a group's occupancy and its eviction counters.
type Stats struct {
	Retained    int   // settled calls held
	Evictions   int64 // dropped by the count bound
	Expirations int64 // dropped by the age bound
}

// Stats snapshots the group's counters.
func (g *Group[K, V]) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Stats{Retained: g.lru.Len(), Evictions: g.evictions.Load(), Expirations: g.expirations.Load()}
}
