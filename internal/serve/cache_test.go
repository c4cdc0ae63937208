package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func TestPlanCacheSingleFlight(t *testing.T) {
	c := newPlanCache(8)
	var builds atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	build := func(int) (*core.Plan, error) {
		builds.Add(1)
		close(started)
		<-release
		return &core.Plan{}, nil
	}

	var wg sync.WaitGroup
	results := make([]*core.Plan, 16)
	hits := make([]bool, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _, hits[0], _ = c.getOrBuild(context.Background(), "k", at(0), build)
	}()
	<-started
	// 15 more sessions arrive while the build is in flight: all must
	// coalesce onto it, none may run build, and each is routed seeing the
	// builder's backend.
	affinities := make([]int, 16)
	for i := 1; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pick := func(affinity int) int { affinities[i] = affinity; return 1 }
			results[i], _, hits[i], _ = c.getOrBuild(context.Background(), "k", pick, func(int) (*core.Plan, error) {
				t.Error("second build ran")
				return nil, nil
			})
		}(i)
	}
	// Give the waiters a moment to reach the cache before releasing.
	for deadline := time.Now().Add(time.Second); c.stats().InflightWaits < 15 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if builds.Load() != 1 {
		t.Fatalf("build ran %d times", builds.Load())
	}
	if hits[0] {
		t.Fatal("builder counted as hit")
	}
	for i := 1; i < 16; i++ {
		if results[i] != results[0] {
			t.Fatalf("session %d got a different plan", i)
		}
		if !hits[i] {
			t.Fatalf("session %d not counted as hit", i)
		}
	}
	s := c.stats()
	if s.Misses != 1 || s.InflightWaits != 15 || s.Size != 1 {
		t.Fatalf("stats = %+v", s)
	}
	for i := 1; i < 16; i++ {
		if affinities[i] != 0 {
			t.Fatalf("session %d routed with affinity %d, want the builder's 0", i, affinities[i])
		}
	}
}

// at is a routing policy that always picks backend idx.
func at(idx int) func(int) int { return func(int) int { return idx } }

func TestPlanCacheLRUEviction(t *testing.T) {
	c := newPlanCache(2)
	mk := func(int) (*core.Plan, error) { return &core.Plan{}, nil }
	c.getOrBuild(context.Background(), "a", at(0), mk)
	c.getOrBuild(context.Background(), "b", at(0), mk)
	c.getOrBuild(context.Background(), "a", at(0), mk) // bump a: b is now oldest
	c.getOrBuild(context.Background(), "c", at(0), mk) // evicts b
	if _, ok := c.peek("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.peek("a"); !ok {
		t.Fatal("a evicted despite recency bump")
	}
	if _, ok := c.peek("c"); !ok {
		t.Fatal("c missing")
	}
	s := c.stats()
	if s.Evictions != 1 || s.Size != 2 || s.Hits != 1 || s.Misses != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPlanCacheFailedBuildNotCached(t *testing.T) {
	c := newPlanCache(2)
	boom := errors.New("boom")
	if _, _, _, err := c.getOrBuild(context.Background(), "k", at(0), func(int) (*core.Plan, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := c.peek("k"); ok {
		t.Fatal("failed build cached")
	}
	// The next lookup rebuilds.
	plan, _, hit, err := c.getOrBuild(context.Background(), "k", at(0), func(int) (*core.Plan, error) { return &core.Plan{}, nil })
	if err != nil || hit || plan == nil {
		t.Fatalf("rebuild: plan=%v hit=%v err=%v", plan, hit, err)
	}
}
