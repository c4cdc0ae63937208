package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/crowdhttp"
	"repro/internal/domain"
)

// trainStack is one fresh platform stack over a simulator; sim is the
// innermost platform, whose ledger a remote stack's server charges.
type trainStack struct {
	platform crowd.Platform
	sim      *crowd.SimPlatform
	faulty   *crowd.FaultyPlatform // nil when the stack injects nothing
	cleanup  func()
}

// trainStacks are the platform stacks plan training must be bit-equal on:
// the serial reference crowd.NewBatched(sim, -1), which hides every
// batching capability and so asks one Value at a time; the simulator; a
// fault-free FaultyPlatform (the serving tier's latency-modeling wrapper,
// which batches multi-object only); a fault-injecting stack recovered by
// the retry layer; a chunked batcher; and the remote client.
func trainStacks(t *testing.T, seed int64) map[string]func() trainStack {
	t.Helper()
	newSim := func() *crowd.SimPlatform {
		sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	return map[string]func() trainStack{
		"serial": func() trainStack {
			sim := newSim()
			return trainStack{crowd.NewBatched(sim, -1), sim, nil, func() {}}
		},
		"sim": func() trainStack {
			sim := newSim()
			return trainStack{sim, sim, nil, func() {}}
		},
		"faulty": func() trainStack {
			sim := newSim()
			faulty := crowd.NewFaulty(sim, crowd.FaultyOptions{Seed: 1})
			return trainStack{faulty, sim, faulty, func() {}}
		},
		"faulty+retry": func() trainStack {
			sim := newSim()
			faulty := crowd.NewFaulty(sim, crowd.FaultyOptions{Seed: 5, FailRate: 0.1, ShortRate: 0.1})
			retry := crowd.NewRetry(faulty, crowd.RetryOptions{MaxRetries: 30, Backoff: time.Microsecond, BackoffMax: 10 * time.Microsecond})
			return trainStack{retry, sim, faulty, func() {}}
		},
		"batched-5": func() trainStack {
			sim := newSim()
			return trainStack{crowd.NewBatched(sim, 5), sim, nil, func() {}}
		},
		"crowdhttp": func() trainStack {
			sim := newSim()
			ts := httptest.NewServer(crowdhttp.NewServer(sim).Handler())
			return trainStack{crowdhttp.NewClient(ts.URL, ts.Client()), sim, nil, ts.Close}
		},
	}
}

// trainOutcome is everything a build must reproduce bit for bit: the plan
// JSON, the preprocessing spend, and the questions and money of every
// phase.
type trainOutcome struct {
	plan   []byte
	cost   crowd.Cost
	phases map[string][2]int64 // phase → {questions, mills}
}

func buildOutcome(t *testing.T, p crowd.Platform, q core.Query, bPrc crowd.Cost) (trainOutcome, *core.Plan) {
	t.Helper()
	out := trainOutcome{phases: make(map[string][2]int64)}
	opts := core.Options{Trace: func(e core.TraceEvent) {
		if e.Kind == core.TracePhase {
			out.phases[e.Phase.Phase] = [2]int64{int64(e.Phase.Questions), int64(e.Phase.Cost)}
		}
	}}
	plan, err := core.Preprocess(p, q, crowd.Cents(4), bPrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.plan, err = json.Marshal(plan); err != nil {
		t.Fatal(err)
	}
	out.cost = plan.PreprocessCost
	return out, plan
}

// trainGolden is what the per-example training loop (one exchange per
// example) spent on a build and how many training examples each target
// kept. The remote client reserves each exchange all or nothing, so where
// the budget runs out mid-example it charges less than a simulator stack,
// which charges one answer at a time up to the limit.
type trainGolden struct {
	cost     int64 // mills
	examples []int // per target, in query order
}

// trainGoldens were recorded from the per-example loop on the serial
// simulator stack and on the remote client. Most budgets run out
// mid-training, several after some examples were bought.
var trainGoldens = []struct {
	seed           int64
	targets        string
	dollars        float64
	serial, remote trainGolden
}{
	{3, "Protein", 3, trainGolden{2998, []int{0}}, trainGolden{2700, []int{30}}},
	{3, "Protein", 4, trainGolden{4000, []int{26}}, trainGolden{3988, []int{26}}},
	{3, "Protein", 6, trainGolden{5220, []int{58}}, trainGolden{5220, []int{58}}},
	{3, "Protein", 25, trainGolden{20179, []int{98}}, trainGolden{20179, []int{98}}},
	{3, "Protein,Calories", 6, trainGolden{6000, []int{20, 0}}, trainGolden{6000, []int{20, 0}}},
	{3, "Protein,Calories", 7, trainGolden{7000, []int{49, 0}}, trainGolden{7000, []int{49, 0}}},
	{3, "Protein,Calories", 10, trainGolden{10000, []int{66, 13}}, trainGolden{9976, []int{66, 13}}},
	{3, "Protein,Calories", 25, trainGolden{18410, []int{98, 98}}, trainGolden{18410, []int{98, 98}}},
	{3, "Protein,Calories,Sugar", 8, trainGolden{8000, []int{6, 0, 0}}, trainGolden{7996, []int{6, 0, 0}}},
	{3, "Protein,Calories,Sugar", 10, trainGolden{10000, []int{70, 0, 0}}, trainGolden{9980, []int{70, 0, 0}}},
	{3, "Protein,Calories,Sugar", 15, trainGolden{15000, []int{74, 58, 0}}, trainGolden{15000, []int{74, 58, 0}}},
	{42, "Protein", 3, trainGolden{2998, []int{0}}, trainGolden{2700, []int{30}}},
	{42, "Protein", 4, trainGolden{4000, []int{26}}, trainGolden{3988, []int{26}}},
	{42, "Protein", 6, trainGolden{5220, []int{58}}, trainGolden{5220, []int{58}}},
	{42, "Protein", 25, trainGolden{20298, []int{106}}, trainGolden{20298, []int{106}}},
	{42, "Protein,Calories", 6, trainGolden{6000, []int{20, 0}}, trainGolden{6000, []int{20, 0}}},
	{42, "Protein,Calories", 7, trainGolden{7000, []int{49, 0}}, trainGolden{7000, []int{49, 0}}},
	{42, "Protein,Calories", 10, trainGolden{10000, []int{66, 13}}, trainGolden{9976, []int{66, 13}}},
	{42, "Protein,Calories", 25, trainGolden{20159, []int{106, 106}}, trainGolden{20159, []int{106, 106}}},
	{42, "Protein,Calories,Sugar", 8, trainGolden{8000, []int{6, 0, 0}}, trainGolden{7996, []int{6, 0, 0}}},
	{42, "Protein,Calories,Sugar", 10, trainGolden{10000, []int{70, 0, 0}}, trainGolden{9980, []int{70, 0, 0}}},
	{42, "Protein,Calories,Sugar", 15, trainGolden{15000, []int{74, 50, 0}}, trainGolden{15000, []int{74, 50, 0}}},
}

// TestTrainingRowsBitEqual pins the batched training collection to the
// per-example loop. Every simulator-backed stack builds the serial
// stack's plan (as JSON) with its per-phase questions and money, and
// spends and keeps what the loop did; the remote client does the same
// against the loop's remote record, and the server-side simulator's
// Spent() equals that spend. Budgets that run out mid-training must stop
// on the same answer.
func TestTrainingRowsBitEqual(t *testing.T) {
	for _, g := range trainGoldens {
		stacks := trainStacks(t, g.seed)
		q := core.Query{Targets: strings.Split(g.targets, ",")}
		bPrc := crowd.Dollars(g.dollars)
		ref := stacks["serial"]()
		want, _ := buildOutcome(t, ref.platform, q, bPrc)
		ref.cleanup()
		for name, mk := range stacks {
			t.Run(fmt.Sprintf("seed%d/%s/%v/%s", g.seed, g.targets, bPrc, name), func(t *testing.T) {
				st := mk()
				defer st.cleanup()
				got, plan := buildOutcome(t, st.platform, q, bPrc)
				golden := g.serial
				if name == "crowdhttp" {
					golden = g.remote
					if spent := st.sim.Ledger().Spent(); int64(spent) != golden.cost {
						t.Fatalf("server-side Spent() = %d mills, want %d", spent, golden.cost)
					}
				} else {
					if !bytes.Equal(got.plan, want.plan) {
						t.Fatalf("plan JSON diverged from the serial stack's:\ngot  %s\nwant %s", got.plan, want.plan)
					}
					for ph, w := range want.phases {
						if g := got.phases[ph]; g != w {
							t.Fatalf("phase %s {questions, mills} = %v, want %v", ph, g, w)
						}
					}
				}
				if int64(got.cost) != golden.cost {
					t.Fatalf("PreprocessCost = %d mills, want %d", got.cost, golden.cost)
				}
				for i, tg := range plan.Targets {
					if n := plan.TrainingExamples[tg]; n != golden.examples[i] {
						t.Fatalf("%s kept %d training examples, want %d", tg, n, golden.examples[i])
					}
				}
			})
		}
	}
}

// TestTrainingRowsExchangeCounts pins the exchange shape of the train
// phase: per target, one Examples call and one prefix batch when the
// budget covers the training set, where the per-example loop made
// N₂·|support| exchanges on a FaultyPlatform and N₂ requests over
// crowdhttp.
func TestTrainingRowsExchangeCounts(t *testing.T) {
	q := core.Query{Targets: []string{"Protein"}}
	bPrc := crowd.Dollars(25)

	// trainWindow runs a build and returns the plan and a counter's delta
	// over the train phase: from the budget decision, which precedes
	// training, to the first learned regression, which ends it.
	trainWindow := func(p crowd.Platform, counter func() int64) (*core.Plan, int64) {
		t.Helper()
		var from, to int64 = -1, -1
		opts := core.Options{Trace: func(e core.TraceEvent) {
			switch {
			case e.Kind == core.TraceBudget:
				from = counter()
			case e.Kind == core.TraceRegression && to < 0:
				to = counter()
			}
		}}
		plan, err := core.Preprocess(p, q, crowd.Cents(4), bPrc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if from < 0 || to < 0 {
			t.Fatal("train phase boundaries were not traced")
		}
		return plan, to - from
	}

	t.Run("faulty", func(t *testing.T) {
		st := trainStacks(t, 7)["faulty"]()
		plan, exchanges := trainWindow(st.platform, func() int64 { return st.faulty.FaultStats().Questions })
		support := len(plan.Budget.Support())
		if plan.TrainingExamples["Protein"] != 50+8*support {
			t.Fatalf("training set %d, want the full N₂ = %d: the pin needs an unexhausted build",
				plan.TrainingExamples["Protein"], 50+8*support)
		}
		if support < 2 {
			t.Fatalf("support %d: the pin needs at least two attributes", support)
		}
		t.Logf("train phase: %d exchanges for N₂ = %d, |support| = %d", exchanges, 50+8*support, support)
		if exchanges > 3 {
			t.Fatalf("train phase made %d exchanges for one target, want ≤ 3 (the per-example loop makes N₂·|support| = %d)",
				exchanges, (50+8*support)*support)
		}
	})

	t.Run("crowdhttp", func(t *testing.T) {
		sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(crowdhttp.NewServer(sim).Handler())
		defer ts.Close()
		client := crowdhttp.NewClient(ts.URL, ts.Client())
		plan, requests := trainWindow(client, client.RequestCount)
		support := len(plan.Budget.Support())
		n2 := plan.TrainingExamples["Protein"]
		if n2 != 50+8*support {
			t.Fatalf("training set %d, want the full N₂ = %d: the pin needs an unexhausted build", n2, 50+8*support)
		}
		t.Logf("train phase: %d requests for N₂ = %d, |support| = %d", requests, n2, support)
		// One /v1/examples request, the prefix batch split into /v1/batch
		// requests of at most 64 questions, and slack for metadata.
		if limit := int64(1 + (n2*support+63)/64 + 2); requests > limit {
			t.Fatalf("train phase made %d requests for one target, want ≤ %d (the per-example loop makes ≥ N₂ = %d)",
				requests, limit, n2)
		}
	})
}
