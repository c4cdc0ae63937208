package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/crowdhttp"
	"repro/internal/domain"
	"repro/internal/query"
)

// cold-plan: a planner asking new queries over a fresh crowd, closed loop
// with one client. Each operation builds a simulator (seeded from the
// workload seed and the operation index) behind a loopback crowdhttp
// server, runs core.Preprocess over the wire for the next target set and
// evaluates the statement on held-out objects. No modeled latency: the
// offline pipeline and the wire protocol are CPU-bound here.
var coldStatements = []string{"SELECT Protein", "SELECT Calories", "SELECT Protein, Calories", "SELECT Sugar"}

const coldHeldOut = 16

var (
	coldBObj = crowd.Cents(4)
	coldBPrc = crowd.Dollars(25)
)

type coldPlan struct {
	seed    int64
	rec     *recorder
	weights map[string]float64

	// Traced-run accumulators, from t0 on the recorder clock.
	t0        int64
	builds    []builtPlan
	transport crowdhttp.TransportStats
	asked     int64
}

// coldOut is one operation's outcome.
type coldOut struct {
	lat          time.Duration
	prep, online int64
	rows         []query.ResultRow
	objs         []*domain.Object
	u            *domain.Universe
	failed       string
}

func setupColdPlan(seed int64, rec *recorder) (measurer, error) {
	weights, err := truthWeights(domain.Recipes(), []string{"Protein", "Calories", "Sugar"})
	if err != nil {
		return nil, err
	}
	w := &coldPlan{seed: seed, rec: rec, weights: weights}
	// One untimed operation first, so the window does not pay one-off
	// costs (HTTP stack, heap growth).
	if o := w.op(-1); o.failed != "" {
		return nil, fmt.Errorf("warm-up operation: %s", o.failed)
	}
	w.builds, w.transport, w.asked = nil, crowdhttp.TransportStats{}, 0
	return w, nil
}

func (w *coldPlan) measure(seconds int) (*run, error) {
	r := &run{est: newErrAcc(w.weights)}
	if w.rec != nil {
		w.t0 = w.rec.now()
	}
	cpu0, start := cpuTime(), time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	// Fold each operation in as it completes, so nothing it built stays
	// reachable when the window's live heap is read.
	closedLoop(1, deadline, func(i int) {
		o := w.op(i)
		r.sessions = append(r.sessions, session{class: "cold", lat: o.lat, objects: len(o.objs), online: o.online, failed: o.failed})
		if o.failed != "" {
			return
		}
		r.prepMills += o.prep
		for _, row := range o.rows {
			for a, v := range row.Values {
				if truth, err := o.u.Truth(row.Object, a); err == nil {
					r.est.add(a, v, truth)
				}
			}
		}
	})
	r.wall, r.cpu = time.Since(start), cpuTime()-cpu0
	r.heapMiB = liveHeapMiB()
	if w.rec != nil {
		r.layers = w.layers(r)
		_, forks := w.rec.snapshot()
		r.links = make(map[int64]int64, len(forks))
		for _, f := range forks {
			r.links[f.id] = f.op
		}
	}
	return r, nil
}

// op runs one cold plan end to end and checks it: the rows evaluated over
// the wire must be bit-equal to the same plan evaluated on an in-process
// replica of the operation's simulator, at the same online spend.
func (w *coldPlan) op(i int) coldOut {
	opSeed := w.seed*1_000_003 + int64(i)
	stmt := coldStatements[(i%len(coldStatements)+len(coldStatements))%len(coldStatements)]
	if w.rec != nil {
		w.rec.op.Store(int64(i))
	}
	t0 := time.Now()
	u := domain.Recipes()
	objs := u.NewObjects(rand.New(rand.NewSource(opSeed)), coldHeldOut)
	out := coldOut{objs: objs, u: u}
	sim, err := crowd.NewSim(u, crowd.SimOptions{Seed: opSeed})
	if err != nil {
		out.failed = err.Error()
		return out
	}
	var sp crowd.Platform = sim
	held := make(map[int]bool, len(objs))
	for _, o := range objs {
		held[o.ID] = true
	}
	if w.rec != nil {
		if sp, err = tapPlatform(sim, w.rec, kSim, held); err != nil {
			out.failed = err.Error()
			return out
		}
	}
	srv := crowdhttp.NewServer(sp)
	for _, o := range objs {
		srv.RegisterObject(o)
	}
	var h http.Handler = srv.Handler()
	if w.rec != nil {
		h = timedHandler(w.rec, h)
	}
	hs := httptest.NewServer(h)
	defer hs.Close()
	hc := hs.Client()
	if w.rec != nil {
		hc = &http.Client{Transport: timedTransport{rec: w.rec, next: hc.Transport}}
	}
	client := crowdhttp.NewClient(hs.URL, hc)
	var p crowd.Platform = client
	if w.rec != nil {
		if p, err = tapPlatform(client, w.rec, kCrowd, held); err != nil {
			out.failed = err.Error()
			return out
		}
	}
	st, err := query.Parse(stmt)
	if err != nil {
		out.failed = err.Error()
		return out
	}
	var opts core.Options
	var phases []core.PhaseStats
	if w.rec != nil {
		opts.Trace = func(ev core.TraceEvent) {
			if ev.Kind == core.TracePhase && ev.Phase != nil {
				phases = append(phases, *ev.Phase)
			}
		}
	}
	plan, err := core.Preprocess(p, st.Query(), coldBObj, coldBPrc, opts)
	if err != nil {
		out.failed = "preprocess: " + err.Error()
		return out
	}
	if w.rec != nil {
		w.builds = append(w.builds, builtPlan{end: w.rec.now(), phases: phases})
	}
	online := crowd.NewLedger(0)
	p.SetLedger(online)
	eng, err := query.NewEngine(p, plan, st)
	if err != nil {
		out.failed = err.Error()
		return out
	}
	e0 := time.Now()
	rows, err := eng.Execute(st, objs)
	if err != nil {
		out.failed = "execute: " + err.Error()
		return out
	}
	end := time.Now()
	out.lat = end.Sub(t0)
	out.prep, out.online, out.rows = int64(plan.PreprocessCost), int64(online.Spent()), rows
	if w.rec != nil {
		w.rec.add(span{kind: kSession, start: w.rec.at(t0), end: w.rec.at(end), owner: int64(i)})
		w.rec.add(span{kind: kEngine, start: w.rec.at(e0), end: w.rec.at(end), owner: int64(i), items: len(objs)})
		ts := client.TransportStats()
		w.transport.Batches += ts.Batches
		w.transport.BatchItems += ts.BatchItems
		w.transport.Retries += ts.Retries
		w.transport.Coalesced += ts.Coalesced
		w.asked += ledgerAsked(online)
	}
	out.failed = checkCold(u, opSeed, plan, st, objs, rows, online.Spent())
	return out
}

// checkCold recomputes the held-out estimates in process.
func checkCold(u *domain.Universe, seed int64, plan *core.Plan, st *query.Statement, objs []*domain.Object, rows []query.ResultRow, spent crowd.Cost) string {
	ref, err := crowd.NewSim(u, crowd.SimOptions{Seed: seed})
	if err != nil {
		return err.Error()
	}
	if len(rows) != len(objs) {
		return fmt.Sprintf("%d rows for %d objects", len(rows), len(objs))
	}
	for i, o := range objs {
		est, err := plan.EstimateObject(ref, o)
		if err != nil {
			return "reference: " + err.Error()
		}
		if rows[i].Object.ID != o.ID {
			return fmt.Sprintf("row %d: object %d, want %d", i, rows[i].Object.ID, o.ID)
		}
		for _, a := range st.Select {
			if math.Float64bits(rows[i].Values[a]) != math.Float64bits(est[ref.Canonical(a)]) {
				return fmt.Sprintf("object %d %s: %v over the wire, %v in process", o.ID, a, rows[i].Values[a], est[a])
			}
		}
	}
	if got := ref.Ledger().Spent(); got != spent {
		return fmt.Sprintf("online spend %v over the wire, %v in process", spent, got)
	}
	return ""
}

// layers derives cold-plan's per-layer metrics. Operations never overlap
// (one client), so every span belongs to the operation in flight.
func (w *coldPlan) layers(r *run) map[string]float64 {
	L := map[string]float64{}
	spans, _ := w.rec.snapshot()
	var ops, objects, opWall float64
	for _, s := range r.sessions {
		if s.failed == "" {
			ops++
			objects += float64(s.objects)
		}
	}
	var crowdIv [][2]int64
	var nCrowd, crowdItems, nSim, simItems, nCli, cliBytes, nSrv int
	var simDur, cliDur, srvDur, engDur float64
	calls := map[string]int{}
	for _, sp := range spans {
		if sp.start < w.t0 {
			continue
		}
		switch sp.kind {
		case kSession:
			opWall += float64(sp.dur())
		case kCrowd:
			nCrowd++
			crowdItems += sp.items
			calls[sp.call]++
			crowdIv = append(crowdIv, [2]int64{sp.start, sp.end})
		case kSim:
			nSim++
			simItems += sp.items
			simDur += float64(sp.dur())
		case kHTTPClient:
			nCli++
			cliBytes += sp.items
			cliDur += float64(sp.dur())
		case kHTTPServer:
			nSrv++
			srvDur += float64(sp.dur())
		case kEngine:
			engDur += float64(sp.dur())
		}
	}
	phaseLayers(w.builds, L)
	L["query.engine_ms_per_object"] = ratio(engDur/1e6, objects)
	L["query.questions_per_object"] = ratio(float64(w.asked), objects)
	L["crowd.round_trips_per_session"] = ratio(float64(nCrowd), ops)
	L["crowd.questions_per_round_trip"] = ratio(float64(crowdItems), float64(nCrowd))
	L["crowd.wait_share"] = ratio(float64(unionLen(crowdIv, math.MinInt64, math.MaxInt64)), opWall)
	for _, c := range crowdCalls {
		L["crowd.calls."+c] = ratio(float64(calls[c]), ops)
	}
	L["crowd.sim_us_per_question"] = ratio(simDur/1e3, float64(simItems))
	L["crowdhttp.requests_per_plan"] = ratio(float64(nCli), ops)
	L["crowdhttp.items_per_batch"] = ratio(float64(w.transport.BatchItems), float64(w.transport.Batches))
	L["crowdhttp.bytes_per_request"] = ratio(float64(cliBytes), float64(nCli))
	L["crowdhttp.client_ms_per_request"] = ratio(cliDur/1e6, float64(nCli))
	L["crowdhttp.server_ms_per_request"] = ratio(srvDur/1e6, float64(nSrv))
	L["crowdhttp.retries"] = float64(w.transport.Retries)
	L["crowdhttp.coalesced"] = float64(w.transport.Coalesced)
	return L
}
