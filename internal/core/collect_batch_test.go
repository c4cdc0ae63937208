package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/domain"
)

// stagedAdd is one addAttribute call of a scripted collection sequence.
type stagedAdd struct {
	attr  string
	pairs []string
}

// addStaged drives a collector through init and a fixed sequence of
// addAttribute calls — the discovery loop's collect work without the
// dismantling around it.
func addStaged(t *testing.T, c *collector, adds []stagedAdd) {
	t.Helper()
	if err := c.init(); err != nil {
		t.Fatal(err)
	}
	for _, a := range adds {
		if err := c.addAttribute(a.attr, a.pairs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCollectorMemoMatchesFreshRescan pins the incremental-moments
// contract: after every staged attribute addition, the collector's
// memoized compute() must be bit-identical (reflect.DeepEqual over every
// float) to the from-scratch computeStatistics rescan of the same data.
func TestCollectorMemoMatchesFreshRescan(t *testing.T) {
	c, _ := testCollector(t, crowd.Dollars(10), "Protein", "Calories")
	if err := c.init(); err != nil {
		t.Fatal(err)
	}
	stages := []stagedAdd{
		{"Protein", []string{"Protein", "Calories"}},
		{"Calories", []string{"Calories"}},
		{"Has Meat", []string{"Calories"}},
		{"Dessert", nil},
	}
	for _, stage := range stages {
		if err := c.addAttribute(stage.attr, stage.pairs); err != nil {
			t.Fatal(err)
		}
		memoized, err := c.compute()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := computeStatistics(c.attrs, c.targets, c.base, c.perTarget, c.truth, c.opts.K, c.opts.Estimation)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(memoized, fresh) {
			t.Fatalf("after adding %q: memoized statistics diverge from the fresh rescan", stage.attr)
		}
	}
	// The memo actually filled up (this is what makes recomputation O(|A|²)).
	if len(c.memo.base) != len(stages) {
		t.Fatalf("memoized %d base-moment entries, want %d", len(c.memo.base), len(stages))
	}
	if len(c.memo.cov) != len(stages)*(len(stages)+1)/2 {
		t.Fatalf("memoized %d co-moment entries, want %d", len(c.memo.cov), len(stages)*(len(stages)+1)/2)
	}
}

// planFingerprint reduces a Plan to its comparable decision surface.
type planFingerprint struct {
	Discovered []string
	Counts     map[string]int
	PerObject  crowd.Cost
	Formulas   map[string]string
	Cost       crowd.Cost
	Training   map[string]int
}

func fingerprint(pl *Plan) planFingerprint {
	fp := planFingerprint{
		Discovered: pl.Discovered,
		Counts:     pl.Budget.Counts,
		PerObject:  pl.Budget.Cost,
		Cost:       pl.PreprocessCost,
		Training:   pl.TrainingExamples,
		Formulas:   make(map[string]string, len(pl.Targets)),
	}
	for _, t := range pl.Targets {
		fp.Formulas[t] = pl.Formula(t)
	}
	return fp
}

// TestPreprocessBatchedMatchesUnbatched is the determinism contract of the
// batched collect path on the simulator: a platform with the batching
// capabilities and one with them stripped (crowd.NewBatched(p, -1) hides
// ValueBatcher and MultiValueBatcher behind a plain Platform) must produce
// byte-identical plans, statistics and spend.
func TestPreprocessBatchedMatchesUnbatched(t *testing.T) {
	const seed = 31
	query := Query{Targets: []string{"Protein", "Calories"}}
	run := func(strip bool) (*Plan, crowd.Cost) {
		t.Helper()
		sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var p crowd.Platform = sim
		if strip {
			p = crowd.NewBatched(sim, -1)
		}
		plan, err := Preprocess(p, query, crowd.Cents(4), crowd.Dollars(10), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return plan, plan.PreprocessCost
	}
	batched, batchedCost := run(false)
	serial, serialCost := run(true)
	if !reflect.DeepEqual(fingerprint(batched), fingerprint(serial)) {
		t.Fatalf("batched and unbatched plans diverged:\nbatched   %+v\nunbatched %+v",
			fingerprint(batched), fingerprint(serial))
	}
	if !reflect.DeepEqual(batched.Stats, serial.Stats) {
		t.Fatal("batched and unbatched statistics are not bit-identical")
	}
	if batchedCost != serialCost {
		t.Fatalf("batched spent %v, unbatched %v", batchedCost, serialCost)
	}
}

// TestAddAttributeExhaustionRollbackAndRetry covers mid-collection budget
// death on a multi-stream attribute: the base stream succeeds, the pair
// stream exhausts the ledger partway, and the collector must (a) commit
// nothing, (b) stay usable, and (c) — after the budget is restored —
// complete the same attribute for exactly the remaining cost, converging
// to the statistics of a run that never hit the wall.
func TestAddAttributeExhaustionRollbackAndRetry(t *testing.T) {
	c, p := testCollector(t, crowd.Dollars(10), "Protein", "Calories") // n1 = 40
	addStaged(t, c, []stagedAdd{
		{"Protein", []string{"Protein", "Calories"}},
		{"Calories", []string{"Calories"}},
	})

	// "Has Meat" on two streams costs K·n1·2 binary answers = 160 mills.
	// A 100-mill ledger fails the up-front CanAfford (forcing the serial
	// stream loop), covers the 80-mill base stream, and dies 20 answers
	// into the pair stream.
	full := c.costOfSamples("Has Meat", 2)
	old := p.SetLedger(crowd.NewLedger(100 * crowd.Mill))
	err := c.addAttribute("Has Meat", []string{"Calories"})
	if !errors.Is(err, crowd.ErrBudgetExhausted) {
		t.Fatalf("expected budget exhaustion, got %v", err)
	}
	if c.has("Has Meat") {
		t.Fatal("half-measured attribute was committed")
	}
	partial := p.Ledger().Spent()
	if partial != 100*crowd.Mill {
		t.Fatalf("partial spend %v, want the full 100-mill limit", partial)
	}
	if _, err := c.compute(); err != nil {
		t.Fatalf("collector unusable after mid-collection exhaustion: %v", err)
	}

	// Restore the real ledger and retry: the simulator never recharges an
	// answer it already generated, so completing the attribute costs
	// exactly the unpaid remainder.
	p.SetLedger(old)
	before := old.Spent()
	if err := c.addAttribute("Has Meat", []string{"Calories"}); err != nil {
		t.Fatal(err)
	}
	if got, want := old.Spent()-before, full-partial; got != want {
		t.Fatalf("retry charged %v, want the %v remainder", got, want)
	}

	// Same-seed reference that was never interrupted.
	ref, _ := testCollector(t, crowd.Dollars(10), "Protein", "Calories")
	addStaged(t, ref, []stagedAdd{
		{"Protein", []string{"Protein", "Calories"}},
		{"Calories", []string{"Calories"}},
		{"Has Meat", []string{"Calories"}},
	})
	got, err := c.compute()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.compute()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("statistics after exhaustion + retry diverge from the uninterrupted run")
	}
}

// TestPreprocessDeterministicThroughExhaustion pins plan determinism on
// the graceful-degradation path: two same-seed runs under a budget tight
// enough to exhaust mid-preprocessing must land on identical plans.
func TestPreprocessDeterministicThroughExhaustion(t *testing.T) {
	run := func() *Plan {
		t.Helper()
		sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Preprocess(sim, Query{Targets: []string{"Protein"}}, crowd.Cents(4), crowd.Dollars(3), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	a, b := run(), run()
	if !reflect.DeepEqual(fingerprint(a), fingerprint(b)) {
		t.Fatalf("tight-budget runs diverged:\nfirst  %+v\nsecond %+v", fingerprint(a), fingerprint(b))
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatal("tight-budget statistics are not bit-identical across runs")
	}
}

// TestPreprocessBatchedUnderFaultsMatchesFaultFree is the fault-injection
// half of the batching contract: a batched collect running through
// FaultyPlatform (transient errors + short batches) under a retry wrapper
// must converge to the bit-exact statistics and spend of a fault-free
// unbatched run — no double charges, no divergent answers.
func TestPreprocessBatchedUnderFaultsMatchesFaultFree(t *testing.T) {
	const seed = 77
	query := Query{Targets: []string{"Protein"}}
	bPrc := crowd.Dollars(10)

	newSim := func() *crowd.SimPlatform {
		t.Helper()
		sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}

	// Fault-free, batching stripped: the reference serial path.
	refPlan, err := Preprocess(crowd.NewBatched(newSim(), -1), query, crowd.Cents(4), bPrc, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Faulty batched run on a same-seed platform. The build makes about a
	// hundred exchanges; fault seed 2 fires both an error and a short
	// batch among them.
	faulty := crowd.NewFaulty(newSim(), crowd.FaultyOptions{Seed: 2, FailRate: 0.08, ShortRate: 0.08})
	retry := crowd.NewRetry(faulty, crowd.RetryOptions{MaxRetries: 12, Backoff: time.Microsecond, BackoffMax: 10 * time.Microsecond})
	gotPlan, err := Preprocess(retry, query, crowd.Cents(4), bPrc, Options{})
	if err != nil {
		t.Fatal(err)
	}

	fs := faulty.FaultStats()
	if fs.InjectedErrors == 0 || fs.InjectedShorts == 0 {
		t.Fatalf("fault injection never fired: %+v", fs)
	}
	if retry.FaultStats().Retries == 0 {
		t.Fatal("retry layer never retried")
	}
	if !reflect.DeepEqual(fingerprint(gotPlan), fingerprint(refPlan)) {
		t.Fatalf("faulty batched plan diverged from the fault-free reference:\nfaulty %+v\nclean  %+v",
			fingerprint(gotPlan), fingerprint(refPlan))
	}
	if !reflect.DeepEqual(gotPlan.Stats, refPlan.Stats) {
		t.Fatal("faulty batched statistics are not bit-identical to the fault-free run")
	}
}
