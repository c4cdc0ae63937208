package crowdhttp

import (
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
)

// BenchmarkCollectBatchGain holds collect_batch_gain ≥ 1.3: the
// collect-phase wall time of one preprocessing run (recipes/Protein, 4¢
// per object, $10) against a local server, through a client with
// batching stripped (one round trip per value question) over the batched
// client (one multi-object value batch per attribute × stream). Below
// the floor the batched wire path has stopped paying for itself. Each
// iteration runs the arms in ABBA order and keeps each arm's minimum,
// which cancels slow drift on a shared host.
func BenchmarkCollectBatchGain(b *testing.B) {
	collect := func(strip bool) time.Duration {
		sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(NewServer(sim).Handler())
		defer ts.Close()
		var p crowd.Platform = NewClient(ts.URL, ts.Client())
		if strip {
			p = crowd.NewBatched(p, -1)
		}
		var wall time.Duration
		_, err = core.Preprocess(p, core.Query{Targets: []string{"Protein"}},
			crowd.Cents(4), crowd.Dollars(10), core.Options{Trace: func(e core.TraceEvent) {
				if e.Kind == core.TracePhase && e.Phase.Phase == core.PhaseCollect {
					wall = e.Phase.Wall
				}
			}})
		if err != nil {
			b.Fatal(err)
		}
		return wall
	}
	batched, serial := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < b.N; i++ {
		batched = min(batched, collect(false))
		serial = min(serial, collect(true), collect(true))
		batched = min(batched, collect(false))
	}
	gain := float64(serial) / float64(batched)
	b.ReportMetric(gain, "gain")
	if gain < 1.3 {
		b.Fatalf("collect_batch_gain = %.2f (serial %v, batched %v), floor 1.3", gain, serial, batched)
	}
}
