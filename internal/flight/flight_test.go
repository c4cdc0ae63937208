package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is an injected clock the tests advance by hand.
type fakeClock struct{ nanos atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.nanos.Add(int64(d)) }

// TestFlightClaimJoinFail pins the call lifecycle: the first caller
// claims, later callers join and get the settled value, a retained value
// reads Ready, and a failure reaches every joiner and frees the key for a
// fresh claim.
func TestFlightClaimJoinFail(t *testing.T) {
	g := New[string, int](8, 0, nil)
	ctx := context.Background()

	c, st := g.Acquire("a", nil)
	if st != Claimed {
		t.Fatalf("first acquire: %v, want Claimed", st)
	}
	j, st := g.Acquire("a", nil)
	if st != Joined || j != c {
		t.Fatalf("second acquire: %v, same call %v; want Joined onto the claim", st, j == c)
	}
	got := make(chan int, 1)
	go func() {
		v, err := j.Wait(ctx)
		if err != nil {
			t.Errorf("joiner: %v", err)
		}
		got <- v
	}()
	g.Settle(c, 7)
	if v := <-got; v != 7 {
		t.Fatalf("joiner got %d, want 7", v)
	}
	r, st := g.Acquire("a", nil)
	if v, err := r.Wait(ctx); st != Ready || v != 7 || err != nil {
		t.Fatalf("after settle: %v %d %v, want Ready 7", st, v, err)
	}

	boom := errors.New("boom")
	c, _ = g.Acquire("b", nil)
	j, _ = g.Acquire("b", nil)
	failed := make(chan error, 1)
	go func() {
		_, err := j.Wait(ctx)
		failed <- err
	}()
	g.Fail(c, boom)
	if err := <-failed; !errors.Is(err, boom) {
		t.Fatalf("joiner of a failed call got %v, want boom", err)
	}
	if _, ok := g.Peek("b", false); ok {
		t.Fatal("a failed call was retained")
	}
	if _, st := g.Acquire("b", nil); st != Claimed {
		t.Fatalf("retry after failure: %v, want Claimed", st)
	}
}

// TestFlightLocked pins that the locked hook sees the claimer's value
// slot: what a claimer records there before settling is what its joiners
// read under the same lock.
func TestFlightLocked(t *testing.T) {
	g := New[string, int](8, 0, nil)
	g.Acquire("k", func(v *int, s State) { *v = 3 })
	var seen int
	var seenState State
	g.Acquire("k", func(v *int, s State) { seen, seenState = *v, s })
	if seen != 3 || seenState != Joined {
		t.Fatalf("joiner saw %d in state %v, want 3 Joined", seen, seenState)
	}
}

// TestFlightLRUEvictsReadyOnly fills a two-entry group past its bound
// while one call stays in flight: only settled calls are evicted, least
// recently used first, and the in-flight call survives every eviction.
func TestFlightLRUEvictsReadyOnly(t *testing.T) {
	g := New[string, int](2, 0, nil)
	slow, _ := g.Acquire("slow", nil)
	for i, k := range []string{"a", "b", "c", "d"} {
		c, _ := g.Acquire(k, nil)
		g.Settle(c, i)
		if k == "b" {
			g.Peek("a", true) // a is now more recently used than b
		}
	}
	if _, st := g.Acquire("slow", nil); st != Joined {
		t.Fatalf("in-flight call evicted: acquire reads %v", st)
	}
	for k, want := range map[string]bool{"a": false, "b": false, "c": true, "d": true} {
		if _, ok := g.Peek(k, false); ok != want {
			t.Fatalf("%s retained = %v, want %v", k, ok, want)
		}
	}
	if s := g.Stats(); s.Retained != 2 || s.Evictions != 2 {
		t.Fatalf("stats %+v, want 2 retained and 2 evictions", s)
	}
	g.Settle(slow, 9) // now settled, it evicts the LRU entry c
	if _, ok := g.Peek("c", false); ok {
		t.Fatal("c survived the settled call's eviction")
	}
	if v, ok := g.Peek("slow", false); !ok || v != 9 {
		t.Fatalf("slow = %d,%v after settle", v, ok)
	}
}

// TestFlightAgeExpiry pins the age bound on an injected clock: a retained
// call serves until its age passes ttl, then reads absent and the next
// caller claims afresh; each settle sweeps expired calls off the LRU's
// tail.
func TestFlightAgeExpiry(t *testing.T) {
	var clock fakeClock
	g := New[string, int](8, time.Minute, clock.now)
	c, _ := g.Acquire("a", nil)
	g.Settle(c, 1)
	clock.advance(30 * time.Second)
	if _, ok := g.Peek("a", false); !ok {
		t.Fatal("expired before its ttl")
	}
	c, _ = g.Acquire("b", nil)
	g.Settle(c, 2)
	clock.advance(45 * time.Second) // a is 75 s old, b 45 s
	if _, st := g.Acquire("a", nil); st != Claimed {
		t.Fatalf("expired call read %v, want a fresh claim", st)
	}
	if _, ok := g.Peek("b", false); !ok {
		t.Fatal("b expired early")
	}
	clock.advance(time.Minute)
	c, _ = g.Acquire("c", nil)
	g.Settle(c, 3) // sweeps b without anyone looking it up
	if s := g.Stats(); s.Retained != 1 || s.Expirations != 2 {
		t.Fatalf("stats %+v, want 1 retained and 2 expirations", s)
	}
}

// TestFlightJoinerCancel pins the cancellable wait: a joiner whose ctx
// ends returns its ctx error at once, the filler still settles, and a
// later caller is served the retained value.
func TestFlightJoinerCancel(t *testing.T) {
	g := New[string, int](8, 0, nil)
	c, _ := g.Acquire("k", nil)
	j, st := g.Acquire("k", nil)
	if st != Joined {
		t.Fatalf("acquire: %v, want Joined", st)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := j.Wait(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled joiner got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled joiner still waiting")
	}
	g.Settle(c, 5)
	r, st := g.Acquire("k", nil)
	if v, err := r.Wait(context.Background()); st != Ready || v != 5 || err != nil {
		t.Fatalf("later caller: %v %d %v, want Ready 5", st, v, err)
	}
}

// TestFlightAcquireAllOverlapNoDeadlock races goroutines claiming
// overlapping key sets in opposite orders, with failures mixed in. Each
// ends its own claims before waiting on any join, so all finish, and
// every value read is its key's.
func TestFlightAcquireAllOverlapNoDeadlock(t *testing.T) {
	var clock fakeClock
	g := New[int, string](6, time.Millisecond, clock.now)
	const workers, iters, span = 16, 200, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				clock.advance(time.Microsecond)
				keys := make([]int, 4)
				for k := range keys {
					keys[k] = (w + i + 3*k) % span
				}
				if w%2 == 1 {
					for a, b := 0, len(keys)-1; a < b; a, b = a+1, b-1 {
						keys[a], keys[b] = keys[b], keys[a]
					}
				}
				keys = append(keys, keys[0]) // a repeated key
				calls, states := g.AcquireAll(keys)
				last := len(keys) - 1
				if calls[last] != calls[0] || states[last] != states[0] {
					t.Errorf("repeated key: state %v, first %v", states[last], states[0])
					return
				}
				fail := (w+i)%5 == 0
				for k, s := range states[:last] {
					if s != Claimed {
						continue
					}
					if fail {
						g.Fail(calls[k], errors.New("injected"))
					} else {
						g.Settle(calls[k], fmt.Sprint(keys[k]))
					}
				}
				for k, s := range states {
					if s == Claimed {
						continue
					}
					v, err := calls[k].Wait(context.Background())
					if err == nil && v != fmt.Sprint(keys[k]) {
						t.Errorf("key %d read %q", keys[k], v)
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("overlapping multi-key claims deadlocked")
	}
	if s := g.Stats(); s.Retained > 6 {
		t.Fatalf("retained %d above the bound 6", s.Retained)
	}
}
