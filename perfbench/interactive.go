package main

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/serve"
)

// interactiveRate is the open loop's offered rate (arrivals per second).
// At ~150 ms mean session latency it keeps about 1.5 sessions in flight,
// below the two cores the benchmark is sized for.
const interactiveRate = 10.0

// mixEntry is one statement class of a workload's request mix.
type mixEntry struct {
	class string
	req   serve.Request
}

// interactiveMix is cycled per arrival. The projection, top-k, adaptive
// and sharded classes share one plan; the filter classes share another.
var interactiveMix = []mixEntry{
	{"eager", serve.Request{Statement: "SELECT Protein, Calories"}},
	{"filter", serve.Request{Statement: "SELECT Protein WHERE Calories < 400 AND Sugar < 30"}},
	{"lazy", serve.Request{Statement: "SELECT Protein WHERE Calories < 400 AND Sugar < 30", Lazy: true}},
	{"topk", serve.Request{Statement: "SELECT Calories ORDER BY Protein DESC LIMIT 3", Lazy: true}},
	{"adaptive", serve.Request{Statement: "SELECT Protein, Calories", Adaptive: true}},
	{"sharded", serve.Request{Statement: "SELECT Protein, Calories", Shards: 4}},
}

// interactive: independent users on a warm tier, open loop. Every plan is
// built in set-up and the answer cache is off, so the window measures
// dispatch, the online evaluators and crowd round trips.
type interactive struct {
	env  *tierEnv
	seed int64
}

func setupInteractive(seed int64, rec *recorder) (measurer, error) {
	env, err := newTierEnv(tierOpts{
		poolSize: 1024,
		prebuild: []string{interactiveMix[0].req.Statement, interactiveMix[1].req.Statement},
	}, rec)
	if err != nil {
		return nil, err
	}
	return &interactive{env: env, seed: seed}, nil
}

func (w *interactive) measure(seconds int) (*run, error) {
	rng := rand.New(rand.NewSource(w.seed ^ 0x51ed))
	due := arrivals(rng, interactiveRate, seconds)
	// Window offsets step through the pool by the golden ratio from a
	// seeded phase: they cover it evenly on every seed, so the error and
	// spend a run reports do not hinge on which objects it happened to draw.
	u := rng.Float64()
	reqs := make([]mixEntry, len(due))
	for i := range reqs {
		u = math.Mod(u+math.Phi-1, 1)
		reqs[i] = interactiveMix[i%len(interactiveMix)]
		reqs[i].req.ObjectIDs = w.env.window(int(u * float64(len(w.env.pool))))
	}
	out := make([]served, len(due))
	before := w.env.tier.Stats()
	cpu0, start := cpuTime(), time.Now()
	lags := openLoop(start, due, func(i int, at time.Time) {
		out[i] = w.env.execute(reqs[i].class, reqs[i].req, at)
	})
	return w.env.finish(out, start, cpu0, lags, before), nil
}
