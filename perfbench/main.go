// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the public APIs of serve, query, core, crowd and
// crowdhttp, checks every output against a reference, and prints each
// end-to-end metric by name with its unit; the last line of standard
// output is one JSON object. With -trace 1 it instead reports per-layer
// metrics from a traced run, computed from spans the benchmark records
// around its calls into each layer.
//
//	perfbench -workload interactive -seed 1 -seconds 20 -trace 0
//
// Workloads: interactive, cold-plan, shared-reuse (see perfbench/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// measurer is a set-up workload, ready to run one timed window.
type measurer interface {
	measure(seconds int) (*run, error)
}

type workload struct {
	setup func(seed int64, rec *recorder) (measurer, error)
	// latency is the modeled crowd round trip (0 = none modeled).
	latency time.Duration
	// procs, when nonzero, sets GOMAXPROCS for the run.
	procs int
}

var workloads = map[string]workload{
	"interactive": {setupInteractive, crowdLatency, 0},
	// cold-plan's client and server answer each other in turn: with one
	// processor the work is the same and its timing no longer depends on
	// whether the host's second core happens to be free.
	"cold-plan":    {setupColdPlan, 0, 1},
	"shared-reuse": {setupSharedReuse, crowdLatency, 0},
}

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median, and the last set-up is the one measured.
const setupReps = 3

// maxGenLag is the open-loop generator's p99 lateness beyond which a run
// is invalid: arrivals no longer follow the schedule.
const maxGenLag = 10 * time.Millisecond

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, in print order.
var endToEnd = []metricDef{
	{"session_p50_ms", "ms"},
	{"session_tail_ms", "ms"},
	{"sessions_per_s", "1/s"},
	{"online_mills_per_object", "mills"},
	{"preprocess_mills_per_session", "mills"},
	{"est_err", "1"},
	{"success_ratio", "ratio"},
	{"cpu_ms_per_session", "ms"},
	{"live_heap_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run reports. Layers a workload does
// not exercise report 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.session_self_ms", "ms"},
		{"serve.plan_build_ms", "ms"},
		{"serve.plan_cache.hit_ratio", "ratio"},
		{"serve.plan_cache.inflight_waits", "count"},
		{"serve.answer_cache.hit_ratio", "ratio"},
		{"serve.answer_cache.inflight_waits", "count"},
		{"serve.answer_cache.evictions", "count"},
		{"serve.admission.queued", "count"},
		{"serve.admission.rejected", "count"},
		{"serve.backend.questions_max_over_mean", "ratio"},
	}
	for _, m := range queryModes {
		defs = append(defs, metricDef{"query.mode." + m + ".session_p50_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"query.questions_per_object", "count"},
		metricDef{"query.lazy.skipped_ratio", "ratio"},
		metricDef{"query.lazy.objects_pruned", "count"},
		metricDef{"query.adaptive.saved_ratio", "ratio"},
		metricDef{"query.engine_ms_per_object", "ms"},
	)
	for _, ph := range corePhases {
		defs = append(defs,
			metricDef{"core." + ph + ".wall_ms", "ms"},
			metricDef{"core." + ph + ".questions", "count"},
			metricDef{"core." + ph + ".requests", "count"},
			metricDef{"core." + ph + ".cost_mills", "mills"},
		)
	}
	defs = append(defs,
		metricDef{"crowd.round_trips_per_session", "count"},
		metricDef{"crowd.questions_per_round_trip", "count"},
		metricDef{"crowd.wait_share", "ratio"},
	)
	for _, c := range crowdCalls {
		defs = append(defs, metricDef{"crowd.calls." + c, "count"})
	}
	return append(defs,
		metricDef{"crowd.sim_us_per_question", "us"},
		metricDef{"crowdhttp.requests_per_plan", "count"},
		metricDef{"crowdhttp.items_per_batch", "count"},
		metricDef{"crowdhttp.bytes_per_request", "bytes"},
		metricDef{"crowdhttp.client_ms_per_request", "ms"},
		metricDef{"crowdhttp.server_ms_per_request", "ms"},
		metricDef{"crowdhttp.retries", "count"},
		metricDef{"crowdhttp.coalesced", "count"},
		metricDef{"harness.gen_lag_p99_ms", "ms"},
		metricDef{"harness.sleep_floor_ms", "ms"},
		metricDef{"harness.trace_overhead_ratio", "ratio"},
		metricDef{"harness.unlinked_spans", "count"},
	)
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: interactive, cold-plan or shared-reuse")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spans := flag.String("spans", "", "traced runs: write every span to this file as JSON lines")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := bench(w, *seed, *seconds, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench sets the workload up and runs it, untraced or traced.
func bench(w workload, seed int64, seconds int, traced bool, spans string) (*result, error) {
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	floor := sleepFloor()
	fmt.Printf("sleep floor %.3f ms", ms(floor))
	if w.latency > 0 {
		fmt.Printf(", modeled crowd latency %v", w.latency)
		if w.latency < 2*floor {
			fmt.Println()
			return nil, fmt.Errorf("crowd latency %v is below twice the sleep floor %v: sleeps would not model it", w.latency, floor)
		}
	}
	fmt.Println()
	if !traced {
		return untracedRun(w, seed, seconds)
	}
	return tracedRun(w, seed, seconds, floor, spans)
}

// setUp sets the workload up reps times, each after a collection that
// frees the previous one, and returns the last set-up with every
// set-up's duration in seconds.
func setUp(w workload, seed int64, rec *recorder, reps int) (measurer, []float64, error) {
	var m measurer
	secs := make([]float64, reps)
	for i := range secs {
		m = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if m, err = w.setup(seed, rec); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs[i] = time.Since(t0).Seconds()
	}
	return m, secs, nil
}

func untracedRun(w workload, seed int64, seconds int) (*result, error) {
	m, setups, err := setUp(w, seed, nil, setupReps)
	if err != nil {
		return nil, err
	}
	r, err := m.measure(seconds)
	if err != nil {
		return nil, err
	}
	res, vals := summarize(r)
	vals["setup_s"] = median(setups)
	res.Metrics = map[string]metric{}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		fmt.Printf("%-30s %12.4f %s\n", d.name, vals[d.name], d.unit)
	}
	report(r, vals)
	return res, nil
}

// tracedRun measures the window untraced, exactly as an untraced run
// does, and then traced on a fresh set-up, and reports the per-layer
// metrics of the traced one.
func tracedRun(w workload, seed int64, seconds int, floor time.Duration, spans string) (*result, error) {
	m, _, err := setUp(w, seed, nil, setupReps)
	if err != nil {
		return nil, err
	}
	plain, err := m.measure(seconds)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	if m, _, err = setUp(w, seed, rec, 1); err != nil {
		return nil, err
	}
	r, err := m.measure(seconds)
	if err != nil {
		return nil, err
	}
	if spans != "" {
		if err := rec.write(spans, r.links); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	res, tracedVals := summarize(r)
	plainRes, plainVals := summarize(plain)
	res.Correct = res.Correct && plainRes.Correct
	res.Attempted += plainRes.Attempted
	res.Failed += plainRes.Failed
	L := r.layers
	L["harness.gen_lag_p99_ms"] = quantile(durationsMs(r.lags), 0.99)
	L["harness.sleep_floor_ms"] = ms(floor)
	L["harness.trace_overhead_ratio"] = ratio(tracedVals["session_p50_ms"], plainVals["session_p50_ms"])
	res.Metrics = map[string]metric{}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: L[d.name], Unit: d.unit}
		fmt.Printf("%-42s %12.4f %s\n", d.name, L[d.name], d.unit)
	}
	return res, nil
}

// summarize computes the end-to-end metrics of a run (all but setup_s)
// and its correctness counts.
func summarize(r *run) (*result, map[string]float64) {
	res := &result{Correct: true, Attempted: len(r.sessions)}
	var lat []float64
	var objects, online float64
	for _, s := range r.sessions {
		if s.failed != "" {
			res.Failed++
			if res.Failed <= 5 {
				fmt.Printf("failed %s session: %s\n", s.class, s.failed)
			}
			continue
		}
		lat = append(lat, ms(s.lat))
		objects += float64(s.objects)
		online += float64(s.online)
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	if lag := quantile(durationsMs(r.lags), 0.99); lag > ms(maxGenLag) {
		fmt.Printf("invalid run: generator p99 lag %.2f ms exceeds %v\n", lag, maxGenLag)
		res.Correct = false
	}
	done := float64(len(lat))
	v := map[string]float64{
		"session_p50_ms":               median(lat),
		"sessions_per_s":               ratio(done, r.wall.Seconds()),
		"online_mills_per_object":      ratio(online, objects),
		"preprocess_mills_per_session": ratio(float64(r.prepMills), done),
		"est_err":                      r.est.value(),
		"success_ratio":                ratio(done, float64(res.Attempted)),
		"cpu_ms_per_session":           ratio(ms(r.cpu), done),
		"live_heap_mb":                 r.heapMiB,
	}
	v["session_tail_ms"], _ = tail(lat)
	return res, v
}

// report prints what the metrics alone do not show: the tail's
// percentile and sample count, the latency shape per statement class, and
// the error next to the money that bought it.
func report(r *run, vals map[string]float64) {
	var lat []float64
	byClass := map[string][]float64{}
	for _, s := range r.sessions {
		if s.failed == "" {
			lat = append(lat, ms(s.lat))
			byClass[s.class] = append(byClass[s.class], ms(s.lat))
		}
	}
	_, pct := tail(lat)
	fmt.Printf("session_tail_ms is p%.1f of %d completed sessions; quartiles %.2f / %.2f / %.2f ms\n",
		pct, len(lat), quantile(lat, 0.25), quantile(lat, 0.5), quantile(lat, 0.75))
	for _, c := range sortedKeys(byClass) {
		fmt.Printf("  %-10s %4d sessions, p50 %.2f ms\n", c, len(byClass[c]), median(byClass[c]))
	}
	fmt.Printf("est_err %.4f bought with %.2f online mills per object\n", vals["est_err"], vals["online_mills_per_object"])
}
