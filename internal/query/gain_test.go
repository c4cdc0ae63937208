package query_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/query"
)

// TestLazySpendGainFloors holds the lazy evaluator's two money floors.
// Each statement runs once through the eager engine and once through the
// lazy engine, over one plan and bit-identical simulated answer streams,
// so both spends are deterministic to the mill and are pinned exactly;
// the ratios must clear their floors:
//
//   - predicate_skip_gain ≥ 2: a selective conjunctive filter, where
//     predicates decided on a few answers of their highest-impact terms
//     reject most objects before the rest of their budget is spent;
//   - topk_prune_gain ≥ 1.1: a pure ORDER BY ... LIMIT statement, where
//     candidates whose sort-key interval sits below the kept top-k
//     threshold are dropped before their SELECT questions.
//
// The environment is pinned (simulator seed 99, 48 objects drawn with
// seed 17, a $30 plan at 4¢ per object) so the floors are properties of
// the evaluator on a known workload. Both arms use the confidence mode: on this plan's dense
// regressions the exact (Z = ∞) mode reads the full support and saves
// nothing; its bit-equality pins are in lazy_test.go.
func TestLazySpendGainFloors(t *testing.T) {
	// The tuning: predicates settle on two agreeing answers (MinAnswers
	// 2), and the impact truncation (DropTol 0.3) keeps the dense
	// regressions from reading the full support per predicate.
	lcfg := &query.LazyConfig{
		ShortCircuit: true, Reorder: true, Z: 1.96,
		MinAnswers: 2, Rounds: 4, TopKPrune: true, DropTol: 0.3,
	}
	newSim := func() (*crowd.SimPlatform, []*domain.Object) {
		t.Helper()
		sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return sim, sim.Universe().NewObjects(rand.New(rand.NewSource(17)), 48)
	}
	run := func(st *query.Statement, plan *core.Plan, lazy bool) crowd.Cost {
		t.Helper()
		sim, objs := newSim()
		eng, err := query.NewEngine(sim, plan, st)
		if err != nil {
			t.Fatal(err)
		}
		if lazy {
			eng.SetLazy(lcfg)
		}
		if _, err := eng.Execute(st, objs); err != nil {
			t.Fatal(err)
		}
		return sim.Ledger().Spent()
	}
	for _, tc := range []struct {
		gate        string
		stmt        string
		eager, lazy crowd.Cost
		floor       float64
	}{
		{"predicate_skip_gain", "SELECT Protein WHERE Dessert > 0.5 AND Calories < 250", 1920, 736, 2},
		{"topk_prune_gain", "SELECT Calories ORDER BY Protein DESC LIMIT 5", 1920, 1536, 1.1},
	} {
		st := mustParse(t, tc.stmt)
		// The plan is built on a simulator that has already drawn the
		// evaluation objects, which shifts the ids of its examples.
		sim, _ := newSim()
		plan, err := core.Preprocess(sim, st.Query(), crowd.Cents(4), crowd.Dollars(30), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eager, lazy := run(st, plan, false), run(st, plan, true)
		if eager != tc.eager || lazy != tc.lazy {
			t.Errorf("%s: eager %d, lazy %d mills; pinned %d and %d", tc.gate, eager, lazy, tc.eager, tc.lazy)
		}
		if gain := float64(eager) / float64(lazy); gain < tc.floor {
			t.Errorf("%s = %.3f, floor %.1f", tc.gate, gain, tc.floor)
		}
	}
}
