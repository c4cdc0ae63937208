package experiment

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/crowd"
)

// BenchmarkSweepSharedGain holds sweep_shared_gain ≥ 1.5: the wall time
// of a fig1a-shaped sweep (pictures/Bmi, error against B_prc, three
// algorithms, four budget points) with RunSweepRebuild, which rebuilds
// the simulation at every point, over RunSweep, where every point forks
// one per-repetition snapshot. Below the floor the copy-on-write answer
// streams have stopped paying for themselves. Both arms run pinned to
// one processor and one pool slot, so the ratio measures the sharing,
// not the host's width. Each iteration runs the arms in ABBA order
// behind GC barriers and keeps each arm's minimum, which cancels slow
// drift on a shared host.
func BenchmarkSweepSharedGain(b *testing.B) {
	spec := Spec{
		Name:     "bench-fig1a",
		Platform: PlatformConfig{Domain: "pictures"},
		Targets:  []string{"Bmi"},
		BObj:     crowd.Cents(4), BPrc: crowd.Dollars(30),
		Algorithms: []baselines.Algorithm{
			baselines.NaiveAverage{}, baselines.SimpleDisQ(), baselines.DisQ{},
		},
		Reps: 2, EvalObjects: 30, Parallelism: 1,
	}
	grid := []crowd.Cost{crowd.Dollars(10), crowd.Dollars(15), crowd.Dollars(20), crowd.Dollars(25)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer core.SetPoolParallelism(core.SetPoolParallelism(1))
	run := func(sweep func(Spec, SweepVariable, []crowd.Cost) (*Sweep, error)) time.Duration {
		runtime.GC()
		start := time.Now()
		if _, err := sweep(spec, VaryBPrc, grid); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	// A discarded sweep absorbs first-run effects (heap growth, lazy
	// initialization) that would otherwise bias the first arm.
	run(RunSweepRebuild)
	rebuild, shared := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rebuild = min(rebuild, run(RunSweepRebuild))
		shared = min(shared, run(RunSweep), run(RunSweep))
		rebuild = min(rebuild, run(RunSweepRebuild))
	}
	gain := float64(rebuild) / float64(shared)
	b.ReportMetric(gain, "gain")
	if gain < 1.5 {
		b.Fatalf("sweep_shared_gain = %.2f (rebuild %v, shared %v), floor 1.5", gain, rebuild, shared)
	}
}
