package serve

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/crowd"
	"repro/internal/domain"
)

// newTestTier builds a recipes tier with n sim backends sharing one
// universe and nObjects registered database objects.
func newTestTier(t *testing.T, n, nObjects int, cfg Config) *Tier {
	t.Helper()
	u := domain.Recipes()
	objs := u.NewObjects(rand.New(rand.NewSource(7)), nObjects)
	for i := 0; i < n; i++ {
		sim, err := crowd.NewSim(u, crowd.SimOptions{Seed: int64(42 + i)})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Backends = append(cfg.Backends, Backend{Platform: sim})
	}
	cfg.Domain = "recipes"
	cfg.Objects = objs
	if cfg.DefaultBObj == 0 {
		cfg.DefaultBObj = crowd.Cents(4)
	}
	if cfg.DefaultBPrc == 0 {
		cfg.DefaultBPrc = crowd.Dollars(6)
	}
	tier, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tier
}

func TestExecuteBasicAndCacheHit(t *testing.T) {
	tier := newTestTier(t, 1, 8, Config{})
	ctx := context.Background()

	res, err := tier.Execute(ctx, Request{Statement: "SELECT Protein"})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("first query must be a cache miss")
	}
	if len(res.Rows) != 8 {
		t.Fatalf("SELECT without WHERE returned %d rows, want 8", len(res.Rows))
	}
	if res.OnlineSpent <= 0 {
		t.Fatalf("OnlineSpent = %v, want > 0", res.OnlineSpent)
	}
	if res.PreprocessCost <= 0 {
		t.Fatalf("PreprocessCost = %v, want > 0", res.PreprocessCost)
	}
	for _, row := range res.Rows {
		if _, ok := row.Values["Protein"]; !ok {
			t.Fatalf("row %d missing Protein value: %v", row.ObjectID, row.Values)
		}
	}

	res2, err := tier.Execute(ctx, Request{Statement: "SELECT Protein"})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit {
		t.Fatal("repeated query must hit the plan cache")
	}
	// Same plan → identical estimates (memoized answer streams).
	if len(res2.Rows) != len(res.Rows) {
		t.Fatalf("warm rows = %d, cold rows = %d", len(res2.Rows), len(res.Rows))
	}
	for i := range res.Rows {
		if res.Rows[i].ObjectID != res2.Rows[i].ObjectID ||
			res.Rows[i].Values["Protein"] != res2.Rows[i].Values["Protein"] {
			t.Fatalf("warm row %d differs: %+v vs %+v", i, res.Rows[i], res2.Rows[i])
		}
	}

	st := tier.Stats()
	cs := st.Classes[DefaultClass]
	if cs.Sessions != 2 || cs.CacheHits != 1 || cs.CacheMisses != 1 {
		t.Fatalf("class stats = %+v", cs)
	}
	if cs.CacheHitRate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", cs.CacheHitRate)
	}
	if cs.P50Ns <= 0 || cs.P99Ns < cs.P50Ns {
		t.Fatalf("quantiles p50=%d p99=%d", cs.P50Ns, cs.P99Ns)
	}
	if cs.SpendPerQueryMills <= 0 {
		t.Fatalf("spend per query = %v", cs.SpendPerQueryMills)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Size != 1 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
}

func TestStatementNormalizationSharesPlans(t *testing.T) {
	tier := newTestTier(t, 1, 4, Config{})
	ctx := context.Background()
	// Same attribute set in different order / role → same plan key.
	if _, err := tier.Execute(ctx, Request{Statement: "SELECT Protein, Calories"}); err != nil {
		t.Fatal(err)
	}
	res, err := tier.Execute(ctx, Request{Statement: "SELECT Calories WHERE Protein > 5"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("statements over the same attribute set must share a plan")
	}
	// A different budget is a different key.
	res, err = tier.Execute(ctx, Request{Statement: "SELECT Protein, Calories", BObj: crowd.Cents(5)})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("different B_obj must be a different plan key")
	}
}

func TestObjectSelection(t *testing.T) {
	tier := newTestTier(t, 1, 6, Config{})
	ctx := context.Background()
	res, err := tier.Execute(ctx, Request{Statement: "SELECT Protein", MaxObjects: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("MaxObjects=2 returned %d rows", len(res.Rows))
	}
	ids := []int{res.Rows[0].ObjectID, res.Rows[1].ObjectID}
	res, err = tier.Execute(ctx, Request{Statement: "SELECT Protein", ObjectIDs: ids[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].ObjectID != ids[0] {
		t.Fatalf("ObjectIDs selection returned %+v", res.Rows)
	}
	if _, err := tier.Execute(ctx, Request{Statement: "SELECT Protein", ObjectIDs: []int{99999}}); err == nil {
		t.Fatal("unknown object id must error")
	}
	// A repeated id is malformed too: the gather ranks rows by object id,
	// so a repeat would reorder the sharded rows.
	for _, shards := range []int{0, 2} {
		repeated := []int{ids[0], ids[1], ids[0]}
		if _, err := tier.Execute(ctx, Request{Statement: "SELECT Protein", ObjectIDs: repeated, Shards: shards}); err == nil {
			t.Fatalf("Shards=%d: repeated object id must error", shards)
		}
	}
}

func TestExecuteErrorsCounted(t *testing.T) {
	tier := newTestTier(t, 1, 2, Config{})
	ctx := context.Background()
	if _, err := tier.Execute(ctx, Request{Statement: "DROP TABLE recipes"}); err == nil {
		t.Fatal("parse error expected")
	}
	if _, err := tier.Execute(ctx, Request{Statement: "SELECT Protein WHERE"}); err == nil {
		t.Fatal("parse error expected")
	}
	cs := tier.Stats().Classes[DefaultClass]
	if cs.Errors != 2 || cs.Sessions != 0 {
		t.Fatalf("class stats after errors = %+v", cs)
	}
}

func TestRoundRobinSpreadsSessions(t *testing.T) {
	tier := newTestTier(t, 3, 2, Config{Policy: PolicyRoundRobin})
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, err := tier.Execute(ctx, Request{Statement: "SELECT Protein", MaxObjects: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range tier.Stats().Backends {
		if b.Sessions != 2 {
			t.Fatalf("round-robin did not spread evenly: %+v", tier.Stats().Backends)
		}
	}
}

func TestPlanAffinityPinsRepeatedQueries(t *testing.T) {
	tier := newTestTier(t, 3, 2, Config{Policy: PolicyPlanAffinity})
	ctx := context.Background()
	var home string
	for i := 0; i < 5; i++ {
		res, err := tier.Execute(ctx, Request{Statement: "SELECT Calories", MaxObjects: 1})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			home = res.Backend
		} else if res.Backend != home {
			t.Fatalf("session %d ran on %s, plan home is %s", i, res.Backend, home)
		}
	}
	nonZero := 0
	for _, b := range tier.Stats().Backends {
		if b.Sessions > 0 {
			nonZero++
			if b.Sessions != 5 {
				t.Fatalf("affinity backend has %d sessions, want 5", b.Sessions)
			}
		}
	}
	if nonZero != 1 {
		t.Fatalf("%d backends served sessions, want exactly 1", nonZero)
	}
}

func TestAdmissionRejectsOverLimit(t *testing.T) {
	tier := newTestTier(t, 1, 2, Config{
		Admission: map[string]BucketConfig{
			"batch": {Rate: 0.001, Burst: 1, MaxQueue: 0},
		},
	})
	ctx := context.Background()
	// First batch session consumes the burst token.
	if _, err := tier.Execute(ctx, Request{Statement: "SELECT Protein", Class: "batch", MaxObjects: 1}); err != nil {
		t.Fatal(err)
	}
	// Second is shed: bucket empty, no queue.
	_, err := tier.Execute(ctx, Request{Statement: "SELECT Protein", Class: "batch", MaxObjects: 1})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	// Interactive is unlimited and unaffected.
	if _, err := tier.Execute(ctx, Request{Statement: "SELECT Protein", MaxObjects: 1}); err != nil {
		t.Fatal(err)
	}
	cs := tier.Stats().Classes["batch"]
	if cs.Rejected != 1 || cs.Sessions != 1 {
		t.Fatalf("batch stats = %+v", cs)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no backends must error")
	}
	u := domain.Recipes()
	sim, err := crowd.NewSim(u, crowd.SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Backends: []Backend{{Platform: sim}}, Policy: "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "routing policy") {
		t.Fatalf("bogus policy error = %v", err)
	}
	if _, err := New(Config{Backends: []Backend{{Name: "x"}}}); err == nil {
		t.Fatal("nil platform must error")
	}
}

func TestLeastLoadedPick(t *testing.T) {
	backends := []*backend{{name: "a"}, {name: "b"}, {name: "c"}}
	backends[0].load.addQuestions(10)
	backends[2].load.addQuestions(4)
	var r leastLoaded
	if got := r.Pick(backends, "k", -1); got != 1 {
		t.Fatalf("Pick = %d, want 1 (zero questions)", got)
	}
	backends[1].load.addQuestions(4)
	// b and c tie on questions; b has a session in flight.
	backends[1].load.startSession()
	if got := r.Pick(backends, "k", -1); got != 2 {
		t.Fatalf("Pick = %d, want 2 (tie broken by sessions)", got)
	}
}

// TestLeastLoadedCountsPlanBuilds: a plan build holds its own session,
// released before evaluation, so a build in flight must weigh like an
// in-flight session — otherwise concurrent cold sessions of different
// keys all build on the same backend.
func TestLeastLoadedCountsPlanBuilds(t *testing.T) {
	backends := []*backend{{name: "a"}, {name: "b"}}
	backends[0].load.startBuild()
	for _, policy := range []string{PolicyLeastLoaded, PolicyPlanAffinity} {
		r, err := NewRouter(policy)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Pick(backends, "k", -1); got != 1 {
			t.Fatalf("%s: Pick = %d, want 1 (a is building a plan)", policy, got)
		}
	}
	backends[0].load.endBuild()
	if got := (leastLoaded{}).Pick(backends, "k", -1); got != 0 {
		t.Fatalf("Pick = %d after the build ended, want 0", got)
	}
}

// TestAdaptiveSessionSavesSpend runs one fixed and one adaptive session
// over the same cached plan. Sessions fork the backend from its pristine
// snapshot, so the answer streams are identical — any spend difference
// is the adaptive evaluator stopping early. The adaptive session must
// report it in the Result and in the per-class counters.
func TestAdaptiveSessionSavesSpend(t *testing.T) {
	tier := newTestTier(t, 1, 24, Config{})
	ctx := context.Background()

	fixed, err := tier.Execute(ctx, Request{Statement: "SELECT Protein"})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Adaptive || fixed.QuestionsSaved != 0 {
		t.Fatalf("fixed session flagged adaptive: %+v", fixed)
	}

	adap, err := tier.Execute(ctx, Request{Statement: "SELECT Protein", Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !adap.CacheHit {
		t.Fatal("adaptive session should reuse the cached plan")
	}
	if !adap.Adaptive {
		t.Fatal("Result.Adaptive not set")
	}
	if adap.QuestionsSaved <= 0 {
		t.Fatalf("QuestionsSaved = %d, want > 0", adap.QuestionsSaved)
	}
	if adap.OnlineSpent >= fixed.OnlineSpent {
		t.Fatalf("adaptive session spent %v, fixed twin %v", adap.OnlineSpent, fixed.OnlineSpent)
	}

	cs := tier.Stats().Classes[DefaultClass]
	if cs.AdaptiveSessions != 1 {
		t.Fatalf("AdaptiveSessions = %d, want 1", cs.AdaptiveSessions)
	}
	if cs.QuestionsSaved != adap.QuestionsSaved {
		t.Fatalf("class QuestionsSaved = %d, result says %d", cs.QuestionsSaved, adap.QuestionsSaved)
	}
}

// TestAdaptiveTierConfigOverride checks Config.Adaptive tunes opting-in
// sessions: stopping disabled at the tier level makes an adaptive
// request spend exactly what the fixed path does.
func TestAdaptiveTierConfigOverride(t *testing.T) {
	off := adaptive.Disabled()
	tier := newTestTier(t, 1, 12, Config{Adaptive: &off})
	ctx := context.Background()

	fixed, err := tier.Execute(ctx, Request{Statement: "SELECT Protein"})
	if err != nil {
		t.Fatal(err)
	}
	adap, err := tier.Execute(ctx, Request{Statement: "SELECT Protein", Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if adap.OnlineSpent != fixed.OnlineSpent {
		t.Fatalf("disabled adaptive spent %v, fixed %v — must be bit-equal", adap.OnlineSpent, fixed.OnlineSpent)
	}
	if adap.QuestionsSaved != 0 {
		t.Fatalf("disabled adaptive saved %d questions", adap.QuestionsSaved)
	}
	for i := range fixed.Rows {
		for k, v := range fixed.Rows[i].Values {
			if adap.Rows[i].Values[k] != v {
				t.Fatalf("row %d %s: %v != %v", i, k, adap.Rows[i].Values[k], v)
			}
		}
	}
}
