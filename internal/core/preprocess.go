package core

import (
	"errors"
	"fmt"

	"repro/internal/crowd"
	"repro/internal/sprt"
	"repro/internal/stats"
)

// Preprocess runs the offline phase (Algorithm 1, extended per Section 4
// for multiple query attributes) against the platform:
//
//  1. collect example objects with true target values,
//  2. iteratively dismantle the most promising attribute (Eq. 8/9),
//     verify each suggested attribute with a sequential test, and buy
//     statistics about accepted ones (Section 3.2.2 / Table 3),
//  3. derive the online budget distribution b (Eq. 2/10, greedy), and
//  4. learn one linear regression per target over N_2 = 50+8·|A| examples.
//
// All crowd spending is charged to a fresh ledger limited to bPrc; the
// platform's previous ledger is restored before returning. The resulting
// Plan evaluates an object for at most bObj.
func Preprocess(p crowd.Platform, q Query, bObj, bPrc crowd.Cost, opts Options) (*Plan, error) {
	opts = opts.Defaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if bObj <= 0 {
		return nil, fmt.Errorf("core: non-positive per-object budget %v", bObj)
	}
	if bPrc <= 0 {
		return nil, fmt.Errorf("core: non-positive preprocessing budget %v", bPrc)
	}

	// Canonicalize targets and re-key provided weights accordingly.
	targets := make([]string, len(q.Targets))
	seen := make(map[string]bool, len(q.Targets))
	weights := make(map[string]float64)
	for i, t := range q.Targets {
		c := p.Canonical(t)
		if seen[c] {
			return nil, fmt.Errorf("core: targets %q and an earlier one canonicalize to the same attribute %q", t, c)
		}
		seen[c] = true
		targets[i] = c
		if w, ok := q.Weights[t]; ok {
			weights[c] = w
		}
	}

	ledger := crowd.NewLedger(bPrc)
	prev := p.SetLedger(ledger)
	defer p.SetLedger(prev)
	tr := tracer{fn: opts.Trace, ledger: ledger}
	rec := newPhaseRecorder(ledger, p)

	col := newCollector(p, opts, targets, bPrc)
	var st *Statistics
	if err := rec.during(PhaseCollect, func() error {
		if err := col.init(); err != nil {
			return err
		}
		tr.emit(TraceExamples, "", "collected %d examples per target (N1)", col.n1)
		// A_0 = A(Q): the query attributes are the initial attribute set.
		for _, t := range targets {
			if col.has(t) {
				continue
			}
			if err := col.addAttribute(t, []string{t}); err != nil {
				return err
			}
		}
		if len(weights) == 0 {
			weights = col.defaultWeights()
		}
		var err error
		st, err = col.compute()
		return err
	}); err != nil {
		return nil, err
	}
	price := priceOf(p)

	counts := make(map[string]int)
	dismantles := 0
	if !opts.DisableDismantling {
		var candidates []string
		if opts.OnlyQueryAttributes {
			candidates = targets
		}
		for {
			if len(col.attributes()) >= opts.MaxAttributes {
				tr.emit(TraceStop, "", "attribute cap reached (MaxAttributes %d)", opts.MaxAttributes)
				break
			}
			if dismantles >= opts.MaxDismantles {
				tr.emit(TraceStop, "", "dismantling cap reached (MaxDismantles %d)", opts.MaxDismantles)
				break
			}
			// Dismantling slice: affordability check, candidate scoring and
			// the dismantling question itself.
			endDismantle := rec.begin(PhaseDismantle)
			if !canContinueDismantling(p, ledger, col, targets, bObj) {
				endDismantle()
				tr.emit(TraceStop, "", "remaining budget (%v) no longer covers an iteration plus the training reserve", ledger.Remaining())
				break
			}
			res, err := NextAttribute(st, weights, price, bObj, counts, candidates, opts.RhoPrior)
			if err != nil {
				endDismantle()
				return nil, err
			}
			if res.Attribute == "" || res.Score <= 0 {
				endDismantle()
				tr.emit(TraceStop, "", "no dismantling question has positive expected gain (best %.4g)", res.Score)
				break
			}
			raw, err := p.Dismantle(res.Attribute)
			if errors.Is(err, crowd.ErrBudgetExhausted) {
				endDismantle()
				tr.emit(TraceStop, "", "budget exhausted mid-dismantle")
				break
			}
			if err != nil {
				endDismantle()
				return nil, err
			}
			dismantles++
			counts[res.Attribute]++
			name := p.Canonical(raw)
			endDismantle()
			tr.emit(TraceDismantle, res.Attribute, "worker suggested %q (score %.4g)", name, res.Score)
			if name == "" || col.has(name) {
				continue
			}
			var ok bool
			err = rec.during(PhaseVerify, func() error {
				var err error
				ok, err = verifyAttribute(p, name, res.Attribute, opts.Verify)
				return err
			})
			if errors.Is(err, crowd.ErrBudgetExhausted) {
				tr.emit(TraceStop, "", "budget exhausted mid-verification")
				break
			}
			if err != nil {
				return nil, err
			}
			if !ok {
				tr.emit(TraceVerify, name, "rejected as unhelpful for %q", res.Attribute)
				continue
			}
			tr.emit(TraceVerify, name, "confirmed as helpful for %q", res.Attribute)
			// Collection slice: choosing the statistics to buy and buying
			// them.
			stopped := false
			if err := rec.during(PhaseCollect, func() error {
				pairs := choosePairs(st, res.Attribute, targets, opts.Collection)
				cost := col.costOfSamples(name, 1+len(pairs))
				if !ledger.CanAfford(cost + trainingReserve(p, col, targets, bObj, len(col.attributes())+1)) {
					// Statistics for this attribute would eat into the budget
					// reserved for regression learning; stop discovering.
					tr.emit(TraceStop, name, "statistics would eat the regression reserve")
					stopped = true
					return nil
				}
				if err := col.addAttribute(name, pairs); err != nil {
					if errors.Is(err, crowd.ErrBudgetExhausted) {
						tr.emit(TraceStop, name, "budget exhausted mid-collection")
						stopped = true
						return nil
					}
					return err
				}
				tr.emit(TraceAttribute, name, "admitted with %d extra target pairings", len(pairs))
				var err error
				st, err = col.compute()
				return err
			}); err != nil {
				return nil, err
			}
			if stopped {
				break
			}
		}
	}

	var asg Assignment
	if err := rec.during(PhaseOptimize, func() error {
		var err error
		asg, err = FindBudgetDistribution(st, weights, price, bObj)
		return err
	}); err != nil {
		return nil, err
	}
	tr.emit(TraceBudget, "", "b = %v (per-object cost %v)", asg.Counts, asg.Cost)
	var (
		regs map[string]*Regression
		n2s  map[string]int
	)
	if err := rec.during(PhaseTrain, func() error {
		var err error
		regs, n2s, err = trainRegressions(p, col, asg, targets, opts)
		return err
	}); err != nil {
		return nil, err
	}
	for _, t := range targets {
		tr.emit(TraceRegression, t, "learned over %d examples (training MSE %.4g)",
			regs[t].Examples, regs[t].TrainingError)
	}
	for _, ps := range rec.profile() {
		tr.emitPhase(ps)
	}

	return &Plan{
		Targets:          targets,
		Weights:          weights,
		Budget:           asg,
		Regressions:      regs,
		Discovered:       col.attributes(),
		Dismantles:       dismantles,
		PreprocessCost:   ledger.Spent(),
		TrainingExamples: n2s,
		Stats:            st,
	}, nil
}

// verifyAttribute decides a dismantling answer's relevance with a Wald
// SPRT over verification questions: "does knowing candidate help estimate
// dismantled?" asked until the test decides.
func verifyAttribute(p crowd.Platform, candidate, dismantled string, cfg sprt.Config) (bool, error) {
	test, err := sprt.New(cfg)
	if err != nil {
		return false, err
	}
	for test.Decision() == sprt.Undecided {
		yes, err := p.Verify(candidate, dismantled)
		if err != nil {
			return false, err
		}
		test.Observe(yes)
	}
	return test.Decision() == sprt.AcceptH1, nil
}

// canContinueDismantling is the CollectingAttributesCondition of
// Algorithm 1 (line 2): another dismantling iteration is affordable only
// if, after paying for the dismantling question, its verification and the
// statistics samples of a (worst-case numeric) new attribute, the budget
// still covers the regression training reserve for |A|+1 attributes.
// This couples n (dismantling questions) against N_2 (training examples),
// the trade-off of Section 3.2.3; because the reserve grows with B_obj,
// larger per-object budgets leave room for fewer attributes — the effect
// visible in the paper's Figure 1b.
func canContinueDismantling(p crowd.Platform, ledger *crowd.Ledger, col *collector, targets []string, bObj crowd.Cost) bool {
	remaining := ledger.Remaining()
	if remaining < 0 {
		return true // unlimited
	}
	pr := p.Pricing()
	iterCost := pr.Dismantling + 6*pr.Verification +
		crowd.Cost(col.opts.K*col.n1*len(targets))*pr.NumericValue
	reserve := trainingReserve(p, col, targets, bObj, len(col.attributes())+1)
	return remaining >= iterCost+reserve
}

// trainingReserve is a conservative estimate of the regression-learning
// cost if the attribute set grows to nAttrs: per target, the extra example
// questions beyond the statistics set plus N_2 objects' worth of online
// value questions (bounded by bObj each). Answer reuse makes the true cost
// lower; over-reserving only stops discovery slightly early.
func trainingReserve(p crowd.Platform, col *collector, targets []string, bObj crowd.Cost, nAttrs int) crowd.Cost {
	n2 := trainingSetSize(nAttrs)
	var total crowd.Cost
	for range targets {
		extra := n2 - col.n1
		if extra < 0 {
			extra = 0
		}
		total += crowd.Cost(extra)*p.Pricing().Example + crowd.Cost(n2)*bObj
	}
	return total
}

// trainRegressions runs lines 7–8 of Algorithm 1 for each target: extend
// the target's example stream to N_2, collect b(a) answers per selected
// attribute (reusing the k statistics answers for free via the platform
// cache), and fit the SVD least-squares regression. A budget exhaustion
// mid-way degrades gracefully to the examples collected so far, and an
// empty training set falls back to an intercept-only predictor (the mean
// of the known true values).
func trainRegressions(p crowd.Platform, col *collector, asg Assignment, targets []string, opts Options) (map[string]*Regression, map[string]int, error) {
	support := asg.Support()
	n2 := trainingSetSize(len(support))
	regs := make(map[string]*Regression, len(targets))
	n2s := make(map[string]int, len(targets))
	for _, t := range targets {
		ex, err := p.Examples([]string{t}, n2)
		if errors.Is(err, crowd.ErrBudgetExhausted) {
			// Use the examples already paid for (the statistics stream).
			ex = col.streams[t]
			if len(ex) > n2 {
				ex = ex[:n2]
			}
		} else if err != nil {
			return nil, nil, err
		}
		rows, err := trainingRows(p, ex, support, asg.Counts)
		if err != nil && !errors.Is(err, crowd.ErrBudgetExhausted) {
			return nil, nil, err
		}
		ys := make([]float64, len(rows))
		for i := range rows {
			ys[i] = ex[i].Values[t]
		}
		if len(rows) == 0 {
			regs[t] = &Regression{Intercept: stats.Mean(col.truth[t])}
			n2s[t] = 0
			continue
		}
		reg, err := learnRegressionPoly(support, rows, ys, opts.RegressionRtol, opts.Quadratic)
		if err != nil {
			return nil, nil, err
		}
		regs[t] = reg
		n2s[t] = len(rows)
	}
	return regs, n2s, nil
}

// trainingRows collects b(a) answers per support attribute for each
// training example, in the example order of the per-example loop, and
// returns one row of answer means per example. It asks in few exchanges:
// the longest prefix of the remaining examples whose nominal price
// Σ counts[a]·price(a) fits the ledger goes out as one multi-object
// batch (example-major, support order within an example), repeatedly;
// once not even one example fits nominally, it asks one example per
// exchange. The nominal price bounds what a platform charges (memoized
// answers are free), so a prefix batch cannot exhaust the budget and
// every charge lands in the per-example loop's order: an exhaustion
// stops on the same answer, the failing example contributes nothing,
// and the rows before it are returned with the error.
func trainingRows(p crowd.Platform, examples []crowd.Example, support []string, counts map[string]int) ([][]float64, error) {
	rows := make([][]float64, 0, len(examples))
	if len(support) == 0 {
		for range examples {
			rows = append(rows, []float64{})
		}
		return rows, nil
	}
	price := priceOf(p)
	var perExample crowd.Cost
	for _, a := range support {
		perExample += crowd.Cost(counts[a]) * price(a)
	}
	for len(rows) < len(examples) {
		rest := examples[len(rows):]
		n := len(rest)
		if rem := p.Ledger().Remaining(); rem >= 0 && perExample > 0 && crowd.Cost(n)*perExample > rem {
			n = max(int(rem/perExample), 1)
		}
		qs := make([]crowd.ObjectValueQuestion, 0, n*len(support))
		for _, e := range rest[:n] {
			for _, a := range support {
				qs = append(qs, crowd.ObjectValueQuestion{Object: e.Object, Attr: a, N: counts[a]})
			}
		}
		answers, err := crowd.MultiValueBatch(p, qs)
		if err != nil {
			return rows, err
		}
		for i := 0; i < n; i++ {
			row := make([]float64, len(support))
			for j := range support {
				row[j] = stats.Mean(answers[i*len(support)+j])
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
