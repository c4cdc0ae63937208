package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/domain"
)

// TestAnswerReuseGainFloor holds answer_reuse_gain ≥ 1.5: reuse-off /
// reuse-on online spend of one overlapping-window workload on a tier
// with the shared answer cache. 32 objects, four eager SELECT sessions
// over 16-object windows stepped by 8 (wrapping), so every object is
// evaluated by exactly two sessions: 64 paid object evaluations without
// reuse, 32 with it, a gain of exactly 2.0 by construction. The
// simulator's answer streams are a pure function of the seed, so a
// cached mean is bit-identical to a re-bought one and reuse changes only
// the bill. The arms run in ABBA order on fresh tiers and each side's
// two runs must agree, which pins the determinism the gain rests on.
func TestAnswerReuseGainFloor(t *testing.T) {
	const (
		nObjects  = 32
		window    = 16
		step      = 8
		nSessions = 4
		statement = "SELECT Protein"
	)
	u := domain.Recipes()
	// One extra object, never in a measured window, warms the plan cache
	// so PreprocessCost stays out of both arms' online spend; the warm
	// session runs without ReuseAnswers, so it publishes nothing.
	objs := u.NewObjects(rand.New(rand.NewSource(23)), nObjects+1)
	warmID := objs[nObjects].ID

	runArm := func(reuse bool) (crowd.Cost, int64) {
		t.Helper()
		sim, err := crowd.NewSim(u, crowd.SimOptions{Seed: 103})
		if err != nil {
			t.Fatal(err)
		}
		tier, err := New(Config{
			Domain:      "recipes",
			Objects:     objs,
			Backends:    []Backend{{Name: "reuse", Platform: sim}},
			DefaultBObj: crowd.Cents(4),
			DefaultBPrc: crowd.Dollars(6),
			AnswerCache: 4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, err := tier.Execute(ctx, Request{Statement: statement, ObjectIDs: []int{warmID}}); err != nil {
			t.Fatal(err)
		}
		var spent crowd.Cost
		var reused int64
		for s := 0; s < nSessions; s++ {
			ids := make([]int, window)
			for j := range ids {
				ids[j] = objs[(s*step+j)%nObjects].ID
			}
			res, err := tier.Execute(ctx, Request{Statement: statement, ObjectIDs: ids, ReuseAnswers: reuse})
			if err != nil {
				t.Fatal(err)
			}
			if !res.CacheHit {
				t.Fatalf("session %d missed the warmed plan", s)
			}
			spent += res.OnlineSpent
			reused += res.AnswersReused
		}
		return spent, reused
	}

	offA, _ := runArm(false)
	onA, reusedA := runArm(true)
	onB, reusedB := runArm(true)
	offB, _ := runArm(false)
	if offA != offB || onA != onB || reusedA != reusedB {
		t.Fatalf("nondeterministic arms: off %d vs %d, on %d vs %d, reused %d vs %d",
			offA, offB, onA, onB, reusedA, reusedB)
	}
	if onA <= 0 || reusedA <= 0 {
		t.Fatalf("reuse arm spent %d and reused %d answers; want both > 0", onA, reusedA)
	}
	gain := float64(offA) / float64(onA)
	if gain < 1.5 {
		t.Fatalf("answer_reuse_gain = %.3f, floor 1.5", gain)
	}
	if gain < 1.99 || gain > 2.01 {
		t.Fatalf("answer_reuse_gain = %.3f, constructed value is 2.0", gain)
	}
}

// Scatter workload shared by the per-backend question test and the shard
// scaling benchmark: four replica backends (one seeded answer stream, so
// a shard's estimates do not depend on which backend serves it) whose
// every crowd call costs scatterLatency, the round trip a simulator
// otherwise hides. Arms evaluate scatterObjects objects, scatterQueries
// sessions each.
const (
	scatterShards  = 4
	scatterQueries = 3
	scatterObjects = 16
	scatterLatency = 500 * time.Microsecond
)

func newScatterTier(tb testing.TB) *Tier {
	tb.Helper()
	u := domain.Recipes()
	cfg := Config{
		Domain:      "recipes",
		Objects:     u.NewObjects(rand.New(rand.NewSource(7)), 64),
		Shards:      scatterShards,
		Partition:   PartitionHash,
		DefaultBObj: crowd.Cents(4),
		DefaultBPrc: crowd.Dollars(6),
	}
	for i := 0; i < scatterShards; i++ {
		sim, err := crowd.NewSim(u, crowd.SimOptions{Seed: 8})
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Backends = append(cfg.Backends, Backend{
			Name:     fmt.Sprintf("shard-%d", i),
			Platform: crowd.NewFaulty(sim, crowd.FaultyOptions{Latency: scatterLatency}),
		})
	}
	tier, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return tier
}

// runScatterArm runs scatterQueries sessions of req at s shards and
// returns their wall time.
func runScatterArm(tb testing.TB, tier *Tier, req Request, s int) time.Duration {
	tb.Helper()
	req.MaxObjects, req.Shards = scatterObjects, s
	runtime.GC()
	start := time.Now()
	for i := 0; i < scatterQueries; i++ {
		res, err := tier.Execute(context.Background(), req)
		if err != nil {
			tb.Fatal(err)
		}
		if res.Shards != s {
			tb.Fatalf("wanted %d shards, ran %d", s, res.Shards)
		}
	}
	return time.Since(start)
}

// TestShardQuestionsPerBackend holds shard_questions_per_backend ≤ 0.5:
// the S = 4 arm's mean per-backend online question volume over the S = 1
// arm's, which lands on the plan's home backend (its largest per-backend
// delta). An even partition reads about 1/S. Question counts are
// deterministic, so one pass of each arm suffices.
func TestShardQuestionsPerBackend(t *testing.T) {
	tier := newScatterTier(t)
	req := Request{Statement: "SELECT Protein"}
	// Warm the plan once, outside both arms: the gate is about online
	// scatter, not plan building.
	runScatterArm(t, tier, req, 1)
	questions := func() []int64 {
		var out []int64
		for _, b := range tier.Stats().Backends {
			out = append(out, b.QuestionsAnswered)
		}
		return out
	}
	q0 := questions()
	runScatterArm(t, tier, req, 1)
	q1 := questions()
	runScatterArm(t, tier, req, scatterShards)
	q2 := questions()
	var s1max, s4sum float64
	for i := range q0 {
		s1max = max(s1max, float64(q1[i]-q0[i]))
		s4sum += float64(q2[i] - q1[i])
	}
	if s1max == 0 {
		t.Fatal("the unsharded arm asked no questions")
	}
	if ratio := s4sum / float64(len(q2)) / s1max; ratio > 0.5 {
		t.Fatalf("shard_questions_per_backend = %.3f, ceiling 0.5 (S=1 max %v, S=4 deltas from %v to %v)",
			ratio, s1max, q1, q2)
	}
}

// BenchmarkShardScalingGain holds shard_scaling_gain ≥ 1.5: S = 1 over
// S = 4 wall time of lazy filter sessions on the latency-modeled scatter
// tier. Lazy sessions still make one crowd exchange per evaluation round,
// so each shard has waits of its own to overlap; an eager session makes
// one exchange and leaves four shards nothing to hide. The gain comes
// from overlapping latency, not from CPU parallelism, so it holds on one
// core. Each iteration runs the arms in ABBA order; the minimum of each
// arm is kept, which cancels slow drift on a shared host.
func BenchmarkShardScalingGain(b *testing.B) {
	tier := newScatterTier(b)
	req := Request{Statement: "SELECT Protein WHERE Dessert > 0.5", Lazy: true}
	runScatterArm(b, tier, req, 1)
	s1, s4 := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1 = min(s1, runScatterArm(b, tier, req, 1))
		s4 = min(s4, runScatterArm(b, tier, req, scatterShards), runScatterArm(b, tier, req, scatterShards))
		s1 = min(s1, runScatterArm(b, tier, req, 1))
	}
	gain := float64(s1) / float64(s4)
	b.ReportMetric(gain, "gain")
	if gain < 1.5 {
		b.Fatalf("shard_scaling_gain = %.2f (S=1 %v, S=4 %v per %d sessions), floor 1.5",
			gain, s1, s4, scatterQueries)
	}
}

// BenchmarkServeLoad measures a two-backend tier under the closed-loop
// load harness (warm plan cache, mixed statements, four workers for 2 s
// per iteration) and reports its throughput and latency quantiles.
func BenchmarkServeLoad(b *testing.B) {
	u := domain.Recipes()
	cfg := Config{
		Domain:      "recipes",
		Objects:     u.NewObjects(rand.New(rand.NewSource(6)), 64),
		DefaultBObj: crowd.Cents(4),
		DefaultBPrc: crowd.Dollars(6),
	}
	for i := 0; i < 2; i++ {
		sim, err := crowd.NewSim(u, crowd.SimOptions{Seed: int64(4 + i)})
		if err != nil {
			b.Fatal(err)
		}
		cfg.Backends = append(cfg.Backends, Backend{Name: fmt.Sprintf("load-%d", i), Platform: sim})
	}
	tier, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var qps, p50, p99 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
		load, err := RunLoad(tier, LoadConfig{
			Statements:  []string{"SELECT Protein", "SELECT Calories"},
			Concurrency: 4,
			Duration:    2 * time.Second,
			MaxObjects:  16,
		})
		if err != nil {
			b.Fatal(err)
		}
		if load.Errors > 0 {
			b.Fatalf("%d load errors", load.Errors)
		}
		qps, p50, p99 = load.QPS, float64(load.P50.Nanoseconds()), float64(load.P99.Nanoseconds())
	}
	b.ReportMetric(qps, "qps")
	b.ReportMetric(p50, "p50-ns")
	b.ReportMetric(p99, "p99-ns")
}
