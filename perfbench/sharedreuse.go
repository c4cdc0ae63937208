package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/crowd"
	"repro/internal/query"
	"repro/internal/serve"
)

// shared-reuse sizing. Windows are 16 consecutive objects starting every
// 4 objects of the pool, so neighbours share 4 to 12 objects. Their
// popularity is Zipf-skewed over a fixed shuffle of the windows (part of
// the environment, like the pool); the workload seed draws the sessions.
const (
	reuseClients     = 2
	reusePool        = 1024
	reuseStride      = 4
	reuseZipfS       = 1.05
	reuseZipfV       = 4.0
	reuseAnswerCache = 2048 // about half the distinct answer keys a run touches
	// Every newKeyEvery-th session uses a plan key never seen before (a
	// fresh preprocessing budget), so builds and in-flight waits run
	// beside cache hits.
	newKeyEvery = 16
)

// newKeyBPrc is the preprocessing budget new plan keys start from; the
// session index is added in mills to make each key unique.
var newKeyBPrc = crowd.Dollars(4)

// reuseMix is cycled per session; every session opts into answer reuse.
var reuseMix = []mixEntry{
	{"eager", serve.Request{Statement: "SELECT Protein, Calories", ReuseAnswers: true}},
	{"lazy", serve.Request{Statement: "SELECT Protein WHERE Calories < 400 AND Sugar < 30", Lazy: true, ReuseAnswers: true}},
	{"filter", serve.Request{Statement: "SELECT Protein WHERE Calories < 400 AND Sugar < 30", ReuseAnswers: true}},
	{"topk", serve.Request{Statement: "SELECT Calories ORDER BY Protein DESC LIMIT 3", Lazy: true, ReuseAnswers: true}},
}

// sharedReuse: analysts who wait for each reply, closed loop. Lazy
// sessions run the pinned full-evaluation mode (query.LazyFull), whose
// rows and billing are bit-equal to eager, so every session's output is
// checkable against its cache-cold reference.
type sharedReuse struct {
	env  *tierEnv
	seed int64
}

func setupSharedReuse(seed int64, rec *recorder) (measurer, error) {
	env, err := newTierEnv(tierOpts{
		poolSize:    reusePool,
		answerCache: reuseAnswerCache,
		lazy:        query.LazyFull(),
		prebuild:    []string{reuseMix[0].req.Statement, reuseMix[1].req.Statement},
	}, rec)
	if err != nil {
		return nil, err
	}
	return &sharedReuse{env: env, seed: seed}, nil
}

func (w *sharedReuse) measure(seconds int) (*run, error) {
	nWindows := reusePool / reuseStride
	perm := rand.New(rand.NewSource(poolSeed)).Perm(nWindows)
	// cdf[k] is P(window rank ≤ k) under Zipf(s, v): p(k) ∝ (v+k)^-s.
	cdf := make([]float64, nWindows)
	var total float64
	for k := range cdf {
		total += math.Pow(reuseZipfV+float64(k), -reuseZipfS)
		cdf[k] = total
	}
	// Ranks come from a golden-ratio sequence through the inverse CDF, so
	// every run's windows follow the popularity almost exactly and seeds
	// differ in order, not in how skewed the run happened to be; the seed
	// picks the sequence's phase.
	u := rand.New(rand.NewSource(w.seed ^ 0x7e5e)).Float64()
	// The session stream is fixed up front; clients take the next one.
	n := seconds * 200
	reqs := make([]mixEntry, n)
	for i := range reqs {
		u = math.Mod(u+math.Phi-1, 1)
		rank := min(sort.SearchFloat64s(cdf, u*total), nWindows-1)
		reqs[i] = reuseMix[i%len(reuseMix)]
		reqs[i].req.ObjectIDs = w.env.window(perm[rank] * reuseStride)
		if i%newKeyEvery == newKeyEvery-1 {
			reqs[i].req.BPrc = newKeyBPrc + crowd.Cost(i)
		}
	}
	var mu sync.Mutex
	var out []served
	before := w.env.tier.Stats()
	cpu0, start := cpuTime(), time.Now()
	closedLoop(reuseClients, start.Add(time.Duration(seconds)*time.Second), func(i int) {
		s := w.env.execute(reqs[i%n].class, reqs[i%n].req, time.Now())
		mu.Lock()
		out = append(out, s)
		mu.Unlock()
	})
	return w.env.finish(out, start, cpu0, nil, before), nil
}
