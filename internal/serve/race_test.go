package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/domain"
)

// TestConcurrentSessionsHammer drives 16 concurrent sessions — mixed
// statements, classes and budgets — over two backends. Under -race this
// is the safety pin for the plan cache (single-flight + LRU), the
// routers' load counters, the admission buckets and the per-class
// metrics; functionally it asserts every session of one statement shape
// returns identical rows (the memoized answer streams make concurrency
// invisible in the results).
func TestConcurrentSessionsHammer(t *testing.T) {
	tier := newTestTier(t, 2, 6, Config{
		Policy:    PolicyPlanAffinity,
		CacheSize: 4,
		Admission: map[string]BucketConfig{
			"batch": {Rate: 1000, Burst: 64, MaxQueue: 64},
		},
	})
	statements := []string{
		"SELECT Protein",
		"SELECT Calories",
		"SELECT Protein, Calories WHERE Dessert > 0.5",
	}
	const workers = 16
	const perWorker = 3

	var mu sync.Mutex
	rowsByStmt := make(map[string][]Row)
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				stmt := statements[(w+i)%len(statements)]
				class := DefaultClass
				if (w+i)%2 == 1 {
					class = "batch"
				}
				res, err := tier.Execute(context.Background(), Request{
					Statement: stmt, Class: class, MaxObjects: 4,
				})
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				mu.Lock()
				if prev, ok := rowsByStmt[stmt]; !ok {
					rowsByStmt[stmt] = res.Rows
				} else if !rowsEqual(prev, res.Rows) {
					errs <- fmt.Errorf("worker %d: rows diverged for %q", w, stmt)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := tier.Stats()
	if st.Cache.Misses != int64(len(statements)) {
		t.Fatalf("cache misses = %d, want %d (one preprocess per statement shape)",
			st.Cache.Misses, len(statements))
	}
	total := int64(0)
	for _, cs := range st.Classes {
		total += cs.Sessions
	}
	if total != workers*perWorker {
		t.Fatalf("sessions = %d, want %d", total, workers*perWorker)
	}
	for i, b := range st.Backends {
		if b.InflightSessions != 0 || b.InflightQuestions != 0 {
			t.Fatalf("backend %d leaked in-flight load: %+v", i, b)
		}
	}
}

func rowsEqual(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ObjectID != b[i].ObjectID || len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for k, v := range a[i].Values {
			if b[i].Values[k] != v {
				return false
			}
		}
	}
	return true
}

// slowSessions is a backend platform whose sessions take a moment to
// open: a fork behind a short sleep, the time a remote or
// latency-modeled backend spends setting one up. It widens the window
// between a session's routing decision and its use of the backend.
type slowSessions struct {
	crowd.Platform
	sim *crowd.SimPlatform
}

func (s slowSessions) ForkPlatform() crowd.Platform {
	time.Sleep(2 * time.Millisecond)
	return s.sim.Fork()
}

// TestPlanAffinityConcurrentColdSessions pins the plan-affinity contract
// under a cold start: sessions of one key that arrive together, before
// any of them has built the plan, must all run on the backend that builds
// it. The two backends run different simulator seeds, so a session routed
// elsewhere reports another backend and evaluates different answers. Each
// rep is a fresh tier; one arm runs unsharded sessions only, the other
// alternates unsharded and 2-shard sessions of the same plan key, so both
// routing paths race each other. Rows are compared between sessions of
// the same shard count: shards spread over both backends.
func TestPlanAffinityConcurrentColdSessions(t *testing.T) {
	const reps = 10
	const sessions = 8
	u := domain.Recipes()
	objs := u.NewObjects(rand.New(rand.NewSource(7)), 6)
	newTier := func() *Tier {
		cfg := Config{Policy: PolicyPlanAffinity, Domain: "recipes", Objects: objs,
			DefaultBObj: crowd.Cents(4), DefaultBPrc: crowd.Dollars(6)}
		for i := 0; i < 2; i++ {
			sim, err := crowd.NewSim(u, crowd.SimOptions{Seed: int64(42 + i)})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Backends = append(cfg.Backends, Backend{Platform: slowSessions{sim, sim}})
		}
		tier, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tier
	}
	for _, maxShards := range []int{1, 2} {
		t.Run(fmt.Sprintf("max-shards=%d", maxShards), func(t *testing.T) {
			for rep := 0; rep < reps; rep++ {
				tier := newTier()
				results := make([]*Result, sessions)
				errs := make([]error, sessions)
				start := make(chan struct{})
				var wg sync.WaitGroup
				for i := 0; i < sessions; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						<-start
						results[i], errs[i] = tier.Execute(context.Background(), Request{
							Statement: "SELECT Protein", MaxObjects: 4, Shards: 1 + i%maxShards,
						})
					}(i)
				}
				close(start)
				wg.Wait()
				for i := 0; i < sessions; i++ {
					if errs[i] != nil {
						t.Fatalf("rep %d session %d: %v", rep, i, errs[i])
					}
					if results[i].Backend != results[0].Backend {
						t.Fatalf("rep %d: session %d ran on %s, session 0 on %s",
							rep, i, results[i].Backend, results[0].Backend)
					}
					if j := i % maxShards; !rowsEqual(results[i].Rows, results[j].Rows) {
						t.Fatalf("rep %d: session %d rows diverged from session %d's", rep, i, j)
					}
				}
				if misses := tier.Stats().Cache.Misses; misses != 1 {
					t.Fatalf("rep %d: %d plan builds, want 1", rep, misses)
				}
			}
		})
	}
}
