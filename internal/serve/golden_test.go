package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/query"
)

// TestServeMatchesDirectEngineGolden is the determinism pin of the
// serving tier: a single-backend, cache-cold, admission-unlimited session
// must produce a bit-equal plan, bit-equal row estimates and equal crowd
// spend (preprocessing and online) to driving core.Preprocess +
// query.Engine by hand on a freshly built platform — the tier's session
// forks, routing and caching may not perturb the paper pipeline at all.
func TestServeMatchesDirectEngineGolden(t *testing.T) {
	const (
		stmt = "SELECT Protein, Calories WHERE Dessert > 0.5"
		seed = 42
		nObj = 10
	)
	bObj, bPrc := crowd.Cents(4), crowd.Dollars(6)

	// Direct: the pipeline as PR 0–5 ran it.
	u1 := domain.Recipes()
	objs1 := u1.NewObjects(rand.New(rand.NewSource(7)), nObj)
	sim1, err := crowd.NewSim(u1, crowd.SimOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	st, err := query.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	directPlan, err := core.Preprocess(sim1, st.Query(), bObj, bPrc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := query.NewEngine(sim1, directPlan, st)
	if err != nil {
		t.Fatal(err)
	}
	directRows, err := eng.Execute(st, objs1)
	if err != nil {
		t.Fatal(err)
	}
	directOnline := sim1.Ledger().Spent()

	// Served: same seed, same objects, through the tier — once on a
	// forking backend, once on one that exposes only crowd.Platform, so a
	// cold session builds and evaluates in two serialized sessions.
	for _, backend := range []struct {
		name string
		wrap func(*crowd.SimPlatform) crowd.Platform
	}{
		{"fork", func(s *crowd.SimPlatform) crowd.Platform { return s }},
		{"serialized", func(s *crowd.SimPlatform) crowd.Platform { return platformOnly{s} }},
	} {
		t.Run(backend.name, func(t *testing.T) {
			u2 := domain.Recipes()
			objs2 := u2.NewObjects(rand.New(rand.NewSource(7)), nObj)
			sim2, err := crowd.NewSim(u2, crowd.SimOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			tier, err := New(Config{
				Domain:   "recipes",
				Backends: []Backend{{Name: "only", Platform: backend.wrap(sim2)}},
				Objects:  objs2,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := tier.Execute(context.Background(), Request{Statement: stmt, BObj: bObj, BPrc: bPrc})
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheHit {
				t.Fatal("cold tier reported a cache hit")
			}

			// Plan: bit-equal through the canonical JSON form.
			servedPlan, ok := tier.CachedPlan(stmt, bObj, bPrc)
			if !ok {
				t.Fatal("plan not cached after execution")
			}
			directJSON, err := json.Marshal(directPlan)
			if err != nil {
				t.Fatal(err)
			}
			servedJSON, err := json.Marshal(servedPlan)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(directJSON, servedJSON) {
				t.Errorf("plans differ:\ndirect: %s\nserved: %s", directJSON, servedJSON)
			}

			// Rows: same objects pass the filter with bit-equal estimates.
			if len(res.Rows) != len(directRows) {
				t.Fatalf("row counts differ: served %d, direct %d", len(res.Rows), len(directRows))
			}
			for i, dr := range directRows {
				sr := res.Rows[i]
				if sr.ObjectID != dr.Object.ID {
					t.Fatalf("row %d: object %d vs %d", i, sr.ObjectID, dr.Object.ID)
				}
				if len(sr.Values) != len(dr.Values) {
					t.Fatalf("row %d: value sets differ: %v vs %v", i, sr.Values, dr.Values)
				}
				for a, v := range dr.Values {
					if sv, ok := sr.Values[a]; !ok || sv != v {
						t.Errorf("row %d attr %q: served %v, direct %v", i, a, sr.Values[a], v)
					}
				}
			}

			// Spend: preprocessing and online crowd bills are identical.
			if res.PreprocessCost != directPlan.PreprocessCost {
				t.Errorf("PreprocessCost: served %v, direct %v", res.PreprocessCost, directPlan.PreprocessCost)
			}
			if res.OnlineSpent != directOnline {
				t.Errorf("OnlineSpent: served %v, direct %v", res.OnlineSpent, directOnline)
			}
		})
	}
}

// platformOnly exposes only the crowd.Platform interface of its inner
// platform — no snapshot, fork or batch capability — so the tier
// serializes sessions on the backend mutex.
type platformOnly struct {
	crowd.Platform
}

// TestServeRepeatedSessionsSpendEqually pins the multi-tenant billing
// contract: every session pays its own online bill, and repeated
// identical sessions (memoized answers, cached plan) are charged exactly
// what the first one was.
func TestServeRepeatedSessionsSpendEqually(t *testing.T) {
	u := domain.Recipes()
	objs := u.NewObjects(rand.New(rand.NewSource(3)), 6)
	sim, err := crowd.NewSim(u, crowd.SimOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tier, err := New(Config{Domain: "recipes", Backends: []Backend{{Platform: sim}}, Objects: objs})
	if err != nil {
		t.Fatal(err)
	}
	var first crowd.Cost
	for i := 0; i < 3; i++ {
		res, err := tier.Execute(context.Background(), Request{Statement: "SELECT Protein"})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.OnlineSpent
			if first <= 0 {
				t.Fatalf("first session spent %v", first)
			}
			continue
		}
		if res.OnlineSpent != first {
			t.Fatalf("session %d spent %v, first spent %v", i, res.OnlineSpent, first)
		}
		if !res.CacheHit {
			t.Fatalf("session %d missed the plan cache", i)
		}
	}
}
