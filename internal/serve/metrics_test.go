package serve

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/crowd"
)

// TestQuantilesNearestRankCeil pins the nearest-rank quantile over small
// windows. The old floor-based index biased tail quantiles low: over 100
// samples p99 returned the 99th-largest sample (index 98) instead of the
// maximum (index 99).
func TestQuantilesNearestRankCeil(t *testing.T) {
	// Samples are inserted out of order; quantiles sort a snapshot.
	cases := []struct {
		name    string
		samples []int64
		q       []float64
		want    []int64
	}{
		{"n=1", []int64{7}, []float64{0, 0.5, 0.9, 0.99, 1}, []int64{7, 7, 7, 7, 7}},
		{"n=2", []int64{20, 10}, []float64{0, 0.5, 0.9, 0.99, 1}, []int64{10, 20, 20, 20, 20}},
		{"n=3", []int64{30, 10, 20}, []float64{0, 0.5, 0.9, 0.99, 1}, []int64{10, 20, 30, 30, 30}},
		{"n=4", []int64{40, 10, 30, 20}, []float64{0, 0.5, 0.9, 0.99, 1}, []int64{10, 30, 40, 40, 40}},
		{"n=5", []int64{50, 20, 40, 10, 30}, []float64{0, 0.5, 0.9, 0.99, 1}, []int64{10, 30, 50, 50, 50}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newLatencyRing(16)
			for _, s := range tc.samples {
				r.add(s)
			}
			got := r.quantiles(tc.q...)
			for i := range tc.q {
				if got[i] != tc.want[i] {
					t.Errorf("q=%.2f over %v: got %d, want %d", tc.q[i], tc.samples, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestQuantileP99Of100IsMax is the regression the fix exists for: with
// exactly 100 samples, p99 must pick index 99 (the maximum), not 98.
func TestQuantileP99Of100IsMax(t *testing.T) {
	r := newLatencyRing(128)
	for i := int64(1); i <= 100; i++ {
		r.add(i)
	}
	got := r.quantiles(0.99)
	if got[0] != 100 {
		t.Fatalf("p99 of 1..100 = %d, want 100 (the floor bias picked 99)", got[0])
	}
}

// TestQuantilesEmptyWindow keeps the zero-value behavior.
func TestQuantilesEmptyWindow(t *testing.T) {
	r := newLatencyRing(4)
	got := r.quantiles(0.5, 0.99)
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty window quantiles = %v, want zeros", got)
	}
}

// TestFairnessIndex pins Jain's index over per-class served QPS: 1.0
// when every class is served equally, 1/n when a single class hogs the
// tier, and 1.0 (not NaN) with nothing served.
func TestFairnessIndex(t *testing.T) {
	cases := []struct {
		name     string
		sessions map[string]int64
		want     float64
	}{
		{"no-traffic", nil, 1.0},
		{"one-class", map[string]int64{"interactive": 40}, 1.0},
		{"all-equal", map[string]int64{"interactive": 25, "batch": 25, "best-effort": 25}, 1.0},
		// Single hog among n=3 observed classes: (Σx)²/(n·Σx²) = 1/3.
		{"single-hog", map[string]int64{"interactive": 60, "batch": 0, "best-effort": 0}, 1.0 / 3},
		// Worked example: x = (4, 1, 1) → 36 / (3·18) = 2/3.
		{"skewed", map[string]int64{"interactive": 4, "batch": 1, "best-effort": 1}, 2.0 / 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMetrics(time.Now, nil)
			for class, n := range tc.sessions {
				cm := m.class(class)
				for i := int64(0); i < n; i++ {
					cm.observe(time.Millisecond, crowd.Cents(1), 1)
				}
			}
			got := m.snapshot().FairnessIndex
			if diff := got - tc.want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("fairness index = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestFairnessIndexSurfacesInTierStats drives a real tier with a hogging
// class mix and checks the index lands in Stats (zero-session classes
// must be observed to count: admission tracks every class that shows up,
// even if only to be rejected — here we just touch them with sessions).
func TestFairnessIndexSurfacesInTierStats(t *testing.T) {
	tier := newTestTier(t, 1, 4, Config{})
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := tier.Execute(ctx, Request{Statement: "SELECT Protein", Class: "interactive"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tier.Execute(ctx, Request{Statement: "SELECT Protein", Class: "batch"}); err != nil {
		t.Fatal(err)
	}
	// x = (4, 1) → 25 / (2·17) ≈ 0.735.
	got := tier.Stats().FairnessIndex
	want := 25.0 / 34.0
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("tier fairness index = %v, want %v", got, want)
	}
}

// TestAdaptiveCountersSurfaceInSnapshot checks the per-class adaptive
// counters round-trip through snapshot().
func TestAdaptiveCountersSurfaceInSnapshot(t *testing.T) {
	m := newMetrics(time.Now, nil)
	cm := m.class("interactive")
	cm.observe(time.Millisecond, crowd.Cents(1), 10)
	cm.adaptiveSessions.Add(1)
	cm.questionsSaved.Add(4)
	cs := m.snapshot().Classes["interactive"]
	if cs.AdaptiveSessions != 1 || cs.QuestionsSaved != 4 {
		t.Fatalf("adaptive counters = %d/%d, want 1/4", cs.AdaptiveSessions, cs.QuestionsSaved)
	}
}

// TestClassMetricsBounded sends 1,000 unparseable requests, each naming
// a new class. Only maxOpenClasses of them get their own entry beside
// DefaultClass and the classes Config.Admission names; the rest share
// the overflow entry, so neither the class list nor the live heap grows
// with the names a client sends. Named classes keep their own entries
// and their own counters.
func TestClassMetricsBounded(t *testing.T) {
	tier := newTestTier(t, 1, 4, Config{Admission: map[string]BucketConfig{"batch": {Rate: 1000, Burst: 1000}}})
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const n = 1000
	for i := 0; i < n; i++ {
		if _, err := tier.Execute(ctx, Request{Statement: "NOT SQL", Class: fmt.Sprintf("class-%d", i)}); err == nil {
			t.Fatal("an unparseable statement executed")
		}
	}
	for _, class := range []string{"", "batch"} {
		if _, err := tier.Execute(ctx, Request{Statement: "NOT SQL", Class: class}); err == nil {
			t.Fatal("an unparseable statement executed")
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	classes := tier.Stats().Classes
	if want := maxOpenClasses + 3; len(classes) != want {
		t.Fatalf("%d classes after %d distinct names, want %d", len(classes), n, want)
	}
	if got := classes[overflowClass].Errors; got != n-maxOpenClasses {
		t.Fatalf("overflow class counted %d errors, want %d", got, n-maxOpenClasses)
	}
	if classes["class-0"].Errors != 1 || classes[DefaultClass].Errors != 1 || classes["batch"].Errors != 1 {
		t.Fatalf("named classes lost their own counters: %+v", classes)
	}
	// Each entry holds a 128 KiB latency ring: the bounded registry keeps
	// about 2.5 MiB, against 125 MiB for one entry per name.
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 8<<20 {
		t.Fatalf("heap grew %d KiB over %d distinct classes", growth>>10, n)
	}
}
