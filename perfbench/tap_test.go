package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/crowd"
	"repro/internal/crowdhttp"
	"repro/internal/domain"
	"repro/internal/query"
	"repro/internal/serve"
)

// TestTapPreservesCapabilities pins that each tapped stack, and each fork
// a tapped stack hands out, exposes exactly the wrapped capability set,
// and that a stack with no matching variant is refused.
func TestTapPreservesCapabilities(t *testing.T) {
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stacks := map[string]crowd.Platform{
		"faulty": crowd.NewFaulty(sim, crowd.FaultyOptions{}),
		"sim":    sim,
		"client": crowdhttp.NewClient("http://127.0.0.1:1", nil),
	}
	for name, p := range stacks {
		tp, err := tapPlatform(p, newRecorder(), kCrowd, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := capsOf(tp), capsOf(p); got != want {
			t.Errorf("%s: tapped caps %v, wrapped %v", name, got, want)
		}
		if fk, ok := tp.(crowd.Forker); ok {
			inner := p.(crowd.Forker).ForkPlatform()
			if got, want := capsOf(fk.ForkPlatform()), capsOf(inner); got != want {
				t.Errorf("%s fork: tapped caps %v, wrapped %v", name, got, want)
			}
		}
	}
	if _, err := tapPlatform(crowd.NewRecorder(sim), newRecorder(), kCrowd, nil); err == nil {
		t.Error("a stack without a tap variant was accepted")
	}
}

// TestTapTierEquivalence pins that a tier over tapped backends serves
// bit-equal rows, online spend, preprocessing cost and savings counters to
// the same tier over the bare backends, for every session mode the
// benchmark runs, unsharded and at four shards.
func TestTapTierEquivalence(t *testing.T) {
	const filter = "SELECT Protein WHERE Calories < 400 AND Sugar < 30"
	modes := []struct {
		name  string
		req   serve.Request
		lazy  *query.LazyConfig
		cache int
	}{
		{"eager", serve.Request{Statement: "SELECT Protein, Calories"}, nil, 0},
		{"lazy-full", serve.Request{Statement: filter, Lazy: true}, query.LazyFull(), 0},
		{"lazy-confidence", serve.Request{Statement: filter, Lazy: true}, nil, 0},
		{"lazy-topk", serve.Request{Statement: "SELECT Calories ORDER BY Protein DESC LIMIT 3", Lazy: true}, nil, 0},
		{"adaptive", serve.Request{Statement: "SELECT Protein, Calories", Adaptive: true}, nil, 0},
		{"reuse", serve.Request{Statement: "SELECT Protein, Calories", ReuseAnswers: true}, nil, 256},
		{"reuse-lazy-full", serve.Request{Statement: filter, Lazy: true, ReuseAnswers: true}, query.LazyFull(), 256},
	}
	for _, shards := range []int{1, 4} {
		for _, m := range modes {
			t.Run(fmt.Sprintf("%s/S=%d", m.name, shards), func(t *testing.T) {
				plain := sessionsOn(t, false, m.req, m.lazy, m.cache, shards)
				tapped := sessionsOn(t, true, m.req, m.lazy, m.cache, shards)
				for i := range plain {
					if !reflect.DeepEqual(plain[i], tapped[i]) {
						t.Fatalf("session %d differs:\nbare   %+v\ntapped %+v", i, plain[i], tapped[i])
					}
				}
			})
		}
	}
}

// sessionsOn runs three sessions (a cold window, an overlapping one, the
// first again) on a fresh four-replica tier and returns their results with
// the wall-clock latency cleared.
func sessionsOn(t *testing.T, tapped bool, req serve.Request, lazy *query.LazyConfig, cache, shards int) []serve.Result {
	t.Helper()
	u := domain.Recipes()
	pool := u.NewObjects(rand.New(rand.NewSource(3)), 32)
	ids := make(map[int]bool, len(pool))
	for _, o := range pool {
		ids[o.ID] = true
	}
	cfg := serve.Config{Domain: "recipes", Objects: pool, Lazy: lazy, AnswerCache: cache, Shards: shards}
	rec := newRecorder()
	for i := 0; i < replicas; i++ {
		sim, err := crowd.NewSim(u, crowd.SimOptions{Seed: crowdSeed})
		if err != nil {
			t.Fatal(err)
		}
		var p crowd.Platform = crowd.NewFaulty(sim, crowd.FaultyOptions{})
		if tapped {
			if p, err = tapPlatform(p, rec, kCrowd, ids); err != nil {
				t.Fatal(err)
			}
		}
		cfg.Backends = append(cfg.Backends, serve.Backend{Name: fmt.Sprint(i), Platform: p})
	}
	tier, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []serve.Result
	for _, off := range []int{0, 8, 0} {
		r := req
		for _, o := range pool[off : off+16] {
			r.ObjectIDs = append(r.ObjectIDs, o.ID)
		}
		res, err := tier.Execute(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		res.Latency = 0
		out = append(out, *res)
	}
	if spans, _ := rec.snapshot(); tapped && len(spans) == 0 {
		t.Fatal("tapped tier recorded no crowd calls")
	}
	return out
}
