package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/stats"
)

func simPlatform(t *testing.T, u *domain.Universe, seed int64) *crowd.SimPlatform {
	t.Helper()
	p, err := crowd.NewSim(u, crowd.SimOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPreprocessValidation(t *testing.T) {
	p := simPlatform(t, domain.Recipes(), 1)
	q := Query{Targets: []string{"Protein"}}
	if _, err := Preprocess(p, Query{}, crowd.Cents(4), crowd.Dollars(20), Options{}); err == nil {
		t.Fatal("empty query should error")
	}
	if _, err := Preprocess(p, q, 0, crowd.Dollars(20), Options{}); err == nil {
		t.Fatal("zero per-object budget should error")
	}
	if _, err := Preprocess(p, q, crowd.Cents(4), 0, Options{}); err == nil {
		t.Fatal("zero preprocessing budget should error")
	}
	if _, err := Preprocess(p, q, crowd.Cents(4), crowd.Dollars(20), Options{K: 1}); err == nil {
		t.Fatal("bad options should error")
	}
	// Two targets canonicalizing to the same attribute.
	dup := Query{Targets: []string{"Protein", "Protein Amount"}}
	if _, err := Preprocess(p, dup, crowd.Cents(4), crowd.Dollars(20), Options{}); err == nil {
		t.Fatal("synonym-duplicate targets should error")
	}
}

func TestPreprocessSingleTargetEndToEnd(t *testing.T) {
	p := simPlatform(t, domain.Recipes(), 7)
	bObj := crowd.Cents(4)
	bPrc := crowd.Dollars(25)
	plan, err := Preprocess(p, Query{Targets: []string{"Protein"}}, bObj, bPrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Budget respected.
	if plan.PreprocessCost > bPrc {
		t.Fatalf("preprocessing spent %v > %v", plan.PreprocessCost, bPrc)
	}
	if plan.PerObjectCost() > bObj {
		t.Fatalf("per-object cost %v > %v", plan.PerObjectCost(), bObj)
	}
	// Dismantling discovered related attributes beyond the target.
	if len(plan.Discovered) < 3 {
		t.Fatalf("discovered only %v", plan.Discovered)
	}
	if plan.Dismantles == 0 {
		t.Fatal("no dismantling questions asked")
	}
	// The target itself is in the discovered set, first.
	if plan.Discovered[0] != "Protein" {
		t.Fatalf("discovered[0] = %q", plan.Discovered[0])
	}
	// Some budget was assigned.
	if len(plan.Budget.Counts) == 0 {
		t.Fatal("empty budget distribution")
	}
	// Regression exists and the formula renders.
	if plan.Regressions["Protein"] == nil {
		t.Fatal("missing regression")
	}
	f := plan.Formula("Protein")
	if !strings.Contains(f, "Protein* =") || !strings.Contains(f, "^(") {
		t.Fatalf("formula = %q", f)
	}
	if plan.TrainingExamples["Protein"] < 20 {
		t.Fatalf("suspiciously few training examples: %v", plan.TrainingExamples)
	}
	// The platform's original (unlimited) ledger was restored.
	if p.Ledger().Limit() != 0 {
		t.Fatal("preprocessing ledger leaked")
	}
}

func TestPreprocessRestoresLedgerOnError(t *testing.T) {
	p := simPlatform(t, domain.Recipes(), 8)
	orig := p.Ledger()
	// Budget so small that even shrunk example collection fails
	// (30 examples × 5¢ = 1.5 dollars minimum).
	_, err := Preprocess(p, Query{Targets: []string{"Protein"}}, crowd.Cents(4), crowd.Cents(50), Options{})
	if err == nil {
		t.Fatal("expected failure on tiny budget")
	}
	if p.Ledger() != orig {
		t.Fatal("ledger not restored after error")
	}
}

func TestSimpleDisQSkipsDismantling(t *testing.T) {
	p := simPlatform(t, domain.Recipes(), 9)
	plan, err := Preprocess(p, Query{Targets: []string{"Protein"}},
		crowd.Cents(4), crowd.Dollars(20), Options{DisableDismantling: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Dismantles != 0 {
		t.Fatalf("SimpleDisQ asked %d dismantling questions", plan.Dismantles)
	}
	if len(plan.Discovered) != 1 || plan.Discovered[0] != "Protein" {
		t.Fatalf("SimpleDisQ discovered %v", plan.Discovered)
	}
	// All online budget goes to the target.
	for a := range plan.Budget.Counts {
		if a != "Protein" {
			t.Fatalf("SimpleDisQ allocated budget to %q", a)
		}
	}
}

func TestOnlyQueryAttributesRestricts(t *testing.T) {
	p := simPlatform(t, domain.Recipes(), 10)
	plan, err := Preprocess(p, Query{Targets: []string{"Protein"}},
		crowd.Cents(4), crowd.Dollars(25), Options{OnlyQueryAttributes: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Dismantles == 0 {
		t.Fatal("OnlyQueryAttributes should still dismantle the target")
	}
	// Discovered attributes are limited to direct answers about Protein:
	// everything in the discovered set (beyond the target) must appear in
	// Protein's dismantling table.
	table, err := p.Universe().DismantleDistribution("Protein")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"Protein": true}
	for _, d := range table {
		allowed[p.Canonical(d.Name)] = true
	}
	for _, a := range plan.Discovered {
		if !allowed[a] {
			t.Fatalf("attribute %q cannot come from dismantling Protein only", a)
		}
	}
}

func TestPreprocessMultiTarget(t *testing.T) {
	p := simPlatform(t, domain.Pictures(), 11)
	plan, err := Preprocess(p, Query{Targets: []string{"Bmi", "Age"}},
		crowd.Cents(4), crowd.Dollars(30), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Targets) != 2 {
		t.Fatalf("targets = %v", plan.Targets)
	}
	for _, tgt := range []string{"Bmi", "Age"} {
		if plan.Regressions[tgt] == nil {
			t.Fatalf("missing regression for %s", tgt)
		}
	}
	// Default weights are 1/Var: Age (σ≈14) gets a smaller weight than
	// Bmi (σ≈4.8).
	if plan.Weights["Age"] >= plan.Weights["Bmi"] {
		t.Fatalf("weights: %v", plan.Weights)
	}
	if plan.PreprocessCost > crowd.Dollars(30) {
		t.Fatal("budget exceeded")
	}
}

func TestPlanEstimateObject(t *testing.T) {
	p := simPlatform(t, domain.Recipes(), 12)
	plan, err := Preprocess(p, Query{Targets: []string{"Protein"}},
		crowd.Cents(4), crowd.Dollars(25), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Online phase on fresh objects with an unlimited ledger.
	u := p.Universe()
	objs := u.NewObjects(rand.New(rand.NewSource(99)), 40)
	var preds, truths []float64
	for _, o := range objs {
		est, err := plan.EstimateObject(p, o)
		if err != nil {
			t.Fatal(err)
		}
		truth, _ := u.Truth(o, "Protein")
		preds = append(preds, est["Protein"])
		truths = append(truths, truth)
	}
	mse, err := stats.MeanSquaredError(preds, truths)
	if err != nil {
		t.Fatal(err)
	}
	// The plan must clearly beat predicting the global mean
	// (Var(Protein) ≈ 196).
	if mse > 150 {
		t.Fatalf("plan MSE %v, not better than trivial baseline", mse)
	}
	if _, err := plan.EstimateObject(p, nil); err == nil {
		t.Fatal("nil object should error")
	}
}

// TestDisQBeatsNaiveAverage is the headline comparison of Section 5.2 in
// miniature: for the hard Protein attribute, DisQ's plan beats spending
// the same per-object budget on direct questions.
func TestDisQBeatsNaiveAverage(t *testing.T) {
	p := simPlatform(t, domain.Recipes(), 13)
	bObj := crowd.Cents(4)
	plan, err := Preprocess(p, Query{Targets: []string{"Protein"}}, bObj, crowd.Dollars(30), Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := p.Universe()
	objs := u.NewObjects(rand.New(rand.NewSource(123)), 80)
	// NaiveAverage: 4¢ buys 10 numeric answers about Protein directly.
	naiveN := int(bObj / p.Pricing().NumericValue)
	var disq, naive, truths []float64
	for _, o := range objs {
		est, err := plan.EstimateObject(p, o)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := p.Value(o, "Protein", naiveN)
		if err != nil {
			t.Fatal(err)
		}
		truth, _ := u.Truth(o, "Protein")
		disq = append(disq, est["Protein"])
		naive = append(naive, stats.Mean(ans))
		truths = append(truths, truth)
	}
	mseDisq, _ := stats.MeanSquaredError(disq, truths)
	mseNaive, _ := stats.MeanSquaredError(naive, truths)
	if mseDisq >= mseNaive {
		t.Fatalf("DisQ MSE %v should beat NaiveAverage MSE %v", mseDisq, mseNaive)
	}
}

func TestVerifyAttributeRejectsJunk(t *testing.T) {
	p := simPlatform(t, domain.Recipes(), 14)
	cfg := Options{}.Defaults().Verify
	// Junk: Is Black has zero correlation with Protein.
	rejected := 0
	for trial := 0; trial < 10; trial++ {
		ok, err := verifyAttribute(p, "Is Black", "Protein", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			rejected++
		}
	}
	if rejected < 8 {
		t.Fatalf("junk rejected only %d/10 times", rejected)
	}
	// Strongly related: Has Meat.
	accepted := 0
	for trial := 0; trial < 10; trial++ {
		ok, err := verifyAttribute(p, "Has Meat", "Protein", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			accepted++
		}
	}
	if accepted < 8 {
		t.Fatalf("related attribute accepted only %d/10 times", accepted)
	}
}

func TestChoosePairsPolicies(t *testing.T) {
	// Hand-built stats: two targets; parent correlates strongly with T1,
	// weakly with T2.
	s := makeStats(
		[]string{"T1", "T2", "P"},
		[]string{"T1", "T2"},
		map[string][]float64{
			"T1": {1, 0.3, 0.9}, // strong with P
			"T2": {0.3, 1, 0.1}, // weak with P
		},
		[][]float64{
			{1, 0.3, 0.9},
			{0.3, 1, 0.1},
			{0.9, 0.1, 1},
		},
		[]float64{0.1, 0.1, 0.1},
	)
	targets := []string{"T1", "T2"}
	// Selective: T2's correlation with P (0.1) is below half of T1's
	// (0.9), so T2 is not paired; the base target never appears.
	pairs := choosePairs(s, "P", targets, CollectSelective)
	if len(pairs) != 0 {
		t.Fatalf("selective pairs = %v, want none", pairs)
	}
	// Full: all non-base targets.
	pairs = choosePairs(s, "P", targets, CollectFull)
	if len(pairs) != 1 || pairs[0] != "T2" {
		t.Fatalf("full pairs = %v", pairs)
	}
	// OneConnection: the argmax target is T1 (the base), so nothing extra.
	pairs = choosePairs(s, "P", targets, CollectOneConnection)
	if len(pairs) != 0 {
		t.Fatalf("one-connection pairs = %v", pairs)
	}
	// Single target: never any extra pairs.
	if got := choosePairs(s, "P", []string{"T1"}, CollectFull); got != nil {
		t.Fatalf("single-target pairs = %v", got)
	}
}

func TestChoosePairsSelectiveIncludesRelated(t *testing.T) {
	s := makeStats(
		[]string{"T1", "T2", "P"},
		[]string{"T1", "T2"},
		map[string][]float64{
			"T1": {1, 0.5, 0.8},
			"T2": {0.5, 1, 0.7}, // also strong with P
		},
		[][]float64{
			{1, 0.5, 0.8},
			{0.5, 1, 0.7},
			{0.8, 0.7, 1},
		},
		[]float64{0.1, 0.1, 0.1},
	)
	pairs := choosePairs(s, "P", []string{"T1", "T2"}, CollectSelective)
	if len(pairs) != 1 || pairs[0] != "T2" {
		t.Fatalf("selective pairs = %v, want [T2]", pairs)
	}
}

func TestTraceEventsEmitted(t *testing.T) {
	p := simPlatform(t, domain.Recipes(), 15)
	var events []TraceEvent
	_, err := Preprocess(p, Query{Targets: []string{"Protein"}},
		crowd.Cents(4), crowd.Dollars(20),
		Options{Trace: func(e TraceEvent) { events = append(events, e) }})
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	for _, e := range events {
		kinds[e.Kind]++
		if e.String() == "" {
			t.Fatal("empty event rendering")
		}
	}
	for _, want := range []string{TraceExamples, TraceDismantle, TraceVerify,
		TraceAttribute, TraceStop, TraceBudget, TraceRegression} {
		if kinds[want] == 0 {
			t.Errorf("no %q events emitted (got %v)", want, kinds)
		}
	}
	// Spend is monotone over the event stream.
	var last crowd.Cost
	for _, e := range events {
		if e.Spent < last {
			t.Fatalf("spend went backwards: %v after %v", e.Spent, last)
		}
		last = e.Spent
	}
	// Exactly one stop and one budget event.
	if kinds[TraceStop] != 1 || kinds[TraceBudget] != 1 {
		t.Fatalf("stop/budget counts: %v", kinds)
	}
}

// TestTraceStopNamesCap runs discovery into each safety cap with a large
// budget: exactly one TraceStop says which cap ended discovery, and the
// trace changes nothing else — the plan and spend equal an untraced run's.
func TestTraceStopNamesCap(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{MaxDismantles: 3}, "MaxDismantles 3"},
		{Options{MaxAttributes: 3}, "MaxAttributes 3"},
	} {
		var stops []TraceEvent
		traced := tc.opts
		traced.Trace = func(e TraceEvent) {
			if e.Kind == TraceStop {
				stops = append(stops, e)
			}
		}
		run := func(opts Options) (*Plan, crowd.Cost) {
			p := simPlatform(t, domain.Recipes(), 15)
			plan, err := Preprocess(p, Query{Targets: []string{"Protein"}}, crowd.Cents(4), crowd.Dollars(50), opts)
			if err != nil {
				t.Fatal(err)
			}
			return plan, p.Ledger().Spent()
		}
		plan, spent := run(traced)
		if len(stops) != 1 || !strings.Contains(stops[0].Detail, tc.want) {
			t.Fatalf("%s: stop events %v, want one naming the cap", tc.want, stops)
		}
		bare, bareSpent := run(tc.opts)
		if !reflect.DeepEqual(plan.Budget, bare.Budget) || !reflect.DeepEqual(plan.Regressions, bare.Regressions) ||
			plan.PreprocessCost != bare.PreprocessCost || spent != bareSpent {
			t.Fatalf("%s: the traced run's plan or spend differs from the untraced run's", tc.want)
		}
	}
}
