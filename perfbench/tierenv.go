package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/stats"
)

// The serving tier interactive and shared-reuse run against: four
// replica simulators behind crowd.FaultyPlatform's per-round-trip
// latency, the recipes domain, the tier's default budgets. The crowd and
// the object pool are the environment, fixed by their own seeds; the
// workload seed draws the request stream.
const (
	crowdSeed    = 7
	poolSeed     = 11
	crowdLatency = 3 * time.Millisecond
	replicas     = 4
	windowSize   = 16
)

var (
	defBObj = crowd.Cents(4)
	defBPrc = crowd.Dollars(10)
)

// tierEnv is one set-up serving tier plus what its output checks need.
type tierEnv struct {
	u       *domain.Universe
	pool    []*domain.Object
	byID    map[int]*domain.Object
	tier    *serve.Tier
	ref     *crowd.SimPlatform // latency-free replica the checks recompute on
	weights map[string]float64
	lazy    *query.LazyConfig // the tier's lazy tuning (nil = defaults)
	rec     *recorder         // nil on untraced runs
	builds  *buildLog         // nil on untraced runs
	// prepMills is what the plans built during set-up cost.
	prepMills int64
	nextID    atomic.Int64 // session ids for the trace
}

// tierOpts are the knobs on which the two tier workloads differ.
type tierOpts struct {
	poolSize    int
	answerCache int
	lazy        *query.LazyConfig
	prebuild    []string // statements whose plans set-up builds
}

func newTierEnv(o tierOpts, rec *recorder) (*tierEnv, error) {
	u := domain.Recipes()
	pool := u.NewObjects(rand.New(rand.NewSource(poolSeed)), o.poolSize)
	env := &tierEnv{u: u, pool: pool, byID: make(map[int]*domain.Object, len(pool)), lazy: o.lazy, rec: rec}
	ids := make(map[int]bool, len(pool))
	for _, p := range pool {
		env.byID[p.ID] = p
		ids[p.ID] = true
	}
	var err error
	if env.weights, err = truthWeights(u, []string{"Protein", "Calories", "Sugar"}); err != nil {
		return nil, err
	}
	cfg := serve.Config{
		Domain:      "recipes",
		Objects:     pool,
		DefaultBObj: defBObj,
		DefaultBPrc: defBPrc,
		AnswerCache: o.answerCache,
		Lazy:        o.lazy,
		// Room for every plan key a run can create, so the output checks
		// always find the plan a session used.
		CacheSize: 1024,
		// Far above any offered rate: admission should pass everything.
		Admission: map[string]serve.BucketConfig{serve.DefaultClass: {Rate: 1000, Burst: 64, MaxQueue: 64}},
	}
	if rec != nil {
		env.builds = &buildLog{rec: rec}
		cfg.Options.Trace = env.builds.event
	}
	for i := 0; i < replicas; i++ {
		sim, err := crowd.NewSim(u, crowd.SimOptions{Seed: crowdSeed})
		if err != nil {
			return nil, err
		}
		var p crowd.Platform = crowd.NewFaulty(sim, crowd.FaultyOptions{Latency: crowdLatency})
		if rec != nil {
			if p, err = tapPlatform(p, rec, kCrowd, ids); err != nil {
				return nil, err
			}
		}
		cfg.Backends = append(cfg.Backends, serve.Backend{Name: fmt.Sprintf("replica-%d", i), Platform: p})
	}
	if env.tier, err = serve.New(cfg); err != nil {
		return nil, err
	}
	if env.ref, err = crowd.NewSim(u, crowd.SimOptions{Seed: crowdSeed}); err != nil {
		return nil, err
	}
	// Build every plan the stream starts from, concurrently: each build
	// is bound by crowd round trips.
	costs := make([]int64, len(o.prebuild))
	errs := make([]error, len(o.prebuild))
	var wg sync.WaitGroup
	for i, stmt := range o.prebuild {
		wg.Add(1)
		go func(i int, stmt string) {
			defer wg.Done()
			res, err := env.tier.Execute(context.Background(), serve.Request{Statement: stmt, ObjectIDs: []int{pool[0].ID}})
			if err == nil {
				costs[i] = int64(res.PreprocessCost)
			}
			errs[i] = err
		}(i, stmt)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("prebuilding plans: %w", err)
	}
	for _, c := range costs {
		env.prepMills += c
	}
	return env, nil
}

// truthWeights fixes ω_t = 1/Var(O.a_t) from a pilot sample of true
// values, as the experiment harness does.
func truthWeights(u *domain.Universe, attrs []string) (map[string]float64, error) {
	pilot := u.NewObjects(rand.New(rand.NewSource(0x9a7)), 500)
	w := make(map[string]float64, len(attrs))
	for _, a := range attrs {
		vals := make([]float64, len(pilot))
		for i, o := range pilot {
			v, err := u.Truth(o, a)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		v, err := stats.Variance(vals)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("variance of %s: %v", a, err)
		}
		w[a] = 1 / v
	}
	return w, nil
}

// window returns the ids of windowSize consecutive pool objects from off.
func (e *tierEnv) window(off int) []int {
	ids := make([]int, windowSize)
	for j := range ids {
		ids[j] = e.pool[(off+j)%len(e.pool)].ID
	}
	return ids
}

// served is one tier session's request and outcome, kept for the output
// checks and the trace analysis.
type served struct {
	id         int64
	class      string
	req        serve.Request
	res        *serve.Result
	err        error
	start, end time.Time // send and completion
	lat        time.Duration
}

// execute runs one session, timed from due.
func (e *tierEnv) execute(class string, req serve.Request, due time.Time) served {
	id := e.nextID.Add(1)
	start := time.Now()
	res, err := e.tier.Execute(context.Background(), req)
	end := time.Now()
	if e.rec != nil {
		e.rec.add(span{kind: kSession, start: e.rec.at(start), end: e.rec.at(end), owner: id})
	}
	return served{id: id, class: class, req: req, res: res, err: err, start: start, end: end, lat: end.Sub(due)}
}

// check recomputes the session on a latency-free replica fork and
// compares. Rows must be bit-equal to the reference of the same mode
// (sharded against unsharded), spend must match to the mill once reuse
// savings are added back, and a lazy session's asked + skipped questions
// must equal its budget.
func (e *tierEnv) check(s served) string {
	objs := make([]*domain.Object, len(s.req.ObjectIDs))
	for i, id := range s.req.ObjectIDs {
		objs[i] = e.byID[id]
	}
	st, err := query.Parse(s.req.Statement)
	if err != nil {
		return err.Error()
	}
	plan, ok := e.tier.CachedPlan(s.req.Statement, s.req.BObj, s.req.BPrc)
	if !ok {
		return "plan no longer cached"
	}
	p := crowd.NewFaulty(e.ref.Fork(), crowd.FaultyOptions{})
	eng, err := query.NewEngine(p, plan, st)
	if err != nil {
		return err.Error()
	}
	if s.req.Lazy {
		eng.SetLazy(e.lazyConfig())
	}
	if s.req.Adaptive {
		d := adaptive.Defaults()
		eng.SetAdaptive(&d)
	}
	rows, err := eng.Execute(st, objs)
	if err != nil {
		return "reference: " + err.Error()
	}
	if msg := sameRows(s.res.Rows, rows, st.Order != nil); msg != "" {
		return msg
	}
	if got, want := int64(s.res.OnlineSpent)+s.res.SpendSavedMills, int64(p.Ledger().Spent()); got != want {
		return fmt.Sprintf("spend %d + saved %d != reference %d mills", s.res.OnlineSpent, s.res.SpendSavedMills, want)
	}
	if s.req.Adaptive && s.res.QuestionsSaved != eng.AdaptiveStats().Saved {
		return fmt.Sprintf("adaptive saved %d, reference %d", s.res.QuestionsSaved, eng.AdaptiveStats().Saved)
	}
	if s.req.Lazy {
		ls := eng.LazyStats()
		budget := int64(planAnswers(plan) * len(objs))
		if ls.QuestionsAsked+ls.QuestionsSkipped != budget {
			return fmt.Sprintf("lazy asked %d + skipped %d != budget %d", ls.QuestionsAsked, ls.QuestionsSkipped, budget)
		}
		// Answers served from the shared cache are booked as skipped.
		if s.res.QuestionsSkipped-s.res.AnswersReused != ls.QuestionsSkipped {
			return fmt.Sprintf("lazy skipped %d (reused %d), reference %d", s.res.QuestionsSkipped, s.res.AnswersReused, ls.QuestionsSkipped)
		}
	}
	return ""
}

func (e *tierEnv) lazyConfig() *query.LazyConfig {
	if e.lazy != nil {
		return e.lazy
	}
	return query.LazyDefaults()
}

// planAnswers is the answers the plan buys per object: the unit of the
// lazy and adaptive evaluators' asked/skipped/saved counters.
func planAnswers(plan *core.Plan) int {
	qs, err := plan.Questions()
	if err != nil {
		return 0
	}
	n := 0
	for _, q := range qs {
		n += q.N
	}
	return n
}

// sameRows compares served rows with the reference engine's bit for bit.
func sameRows(got []serve.Row, want []query.ResultRow, ordered bool) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, reference %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ObjectID != w.Object.ID || len(g.Values) != len(w.Values) {
			return fmt.Sprintf("row %d: object %d, reference %d", i, g.ObjectID, w.Object.ID)
		}
		for a, v := range w.Values {
			if math.Float64bits(g.Values[a]) != math.Float64bits(v) {
				return fmt.Sprintf("row %d %s: %v, reference %v", i, a, g.Values[a], v)
			}
		}
		if ordered && math.Float64bits(g.SortKey) != math.Float64bits(w.Key) {
			return fmt.Sprintf("row %d sort key: %v, reference %v", i, g.SortKey, w.Key)
		}
	}
	return ""
}

// finish closes a tier run's window and turns its sessions into a run.
func (e *tierEnv) finish(out []served, start time.Time, cpu0 time.Duration, lags []time.Duration, before serve.Stats) *run {
	end := start
	for _, s := range out {
		if s.end.After(end) {
			end = s.end
		}
	}
	r := &run{wall: end.Sub(start), cpu: cpuTime() - cpu0, lags: lags, est: newErrAcc(e.weights), prepMills: e.prepMills}
	after := e.tier.Stats()
	r.heapMiB = liveHeapMiB()
	e.collect(out, r)
	if e.rec != nil {
		r.layers, r.links = e.tierLayers(out, before, after)
	}
	return r
}

// collect turns served sessions into the run's per-session records,
// running the output checks and the error accumulation.
func (e *tierEnv) collect(all []served, r *run) {
	for _, s := range all {
		out := session{class: s.class, lat: s.lat, objects: len(s.req.ObjectIDs)}
		if s.err != nil {
			out.failed = s.err.Error()
			r.sessions = append(r.sessions, out)
			continue
		}
		out.online = int64(s.res.OnlineSpent)
		out.failed = e.check(s)
		if !s.res.CacheHit {
			r.prepMills += int64(s.res.PreprocessCost)
		}
		for _, row := range s.res.Rows {
			for a, v := range row.Values {
				if truth, err := e.u.Truth(e.byID[row.ObjectID], a); err == nil {
					r.est.add(a, v, truth)
				}
			}
		}
		r.sessions = append(r.sessions, out)
	}
}

// buildLog turns the tier's preprocessing trace into one interval per
// core.Preprocess call plus per-phase totals. A build emits its five
// phase events back to back, collect first and train last; a build whose
// events interleave with another's is counted as unlinked.
type buildLog struct {
	rec *recorder

	mu      sync.Mutex
	open    []core.PhaseStats
	broken  bool
	builds  []builtPlan
	unknown int
}

type builtPlan struct {
	end    int64
	phases []core.PhaseStats
}

func (b *buildLog) event(ev core.TraceEvent) {
	if ev.Kind != core.TracePhase || ev.Phase == nil {
		return
	}
	now := b.rec.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if ev.Phase.Phase == core.PhaseCollect {
		if len(b.open) > 0 {
			b.broken = true
		}
		b.open = b.open[:0]
	}
	b.open = append(b.open, *ev.Phase)
	if ev.Phase.Phase != core.PhaseTrain {
		return
	}
	if b.broken || len(b.open) != len(corePhases) {
		b.unknown++
	} else {
		b.builds = append(b.builds, builtPlan{end: now, phases: append([]core.PhaseStats(nil), b.open...)})
	}
	b.open, b.broken = b.open[:0], false
}

func (bp builtPlan) interval() [2]int64 {
	var wall int64
	for _, p := range bp.phases {
		wall += int64(p.Wall)
	}
	return [2]int64{bp.end - wall, bp.end}
}

// corePhases are core.Preprocess's phases, in execution order.
var corePhases = []string{core.PhaseCollect, core.PhaseDismantle, core.PhaseVerify, core.PhaseOptimize, core.PhaseTrain}

// phaseLayers reports per-build means of each phase's wall time,
// questions, wire requests and spend.
func phaseLayers(builds []builtPlan, into map[string]float64) {
	for _, ph := range corePhases {
		var wall, qs, reqs, cost float64
		for _, b := range builds {
			for _, p := range b.phases {
				if p.Phase == ph {
					wall += ms(p.Wall)
					qs += float64(p.Questions)
					reqs += float64(p.Requests)
					cost += float64(p.Cost)
				}
			}
		}
		n := math.Max(float64(len(builds)), 1)
		into["core."+ph+".wall_ms"] = wall / n
		into["core."+ph+".questions"] = qs / n
		into["core."+ph+".requests"] = reqs / n
		into["core."+ph+".cost_mills"] = cost / n
	}
}
