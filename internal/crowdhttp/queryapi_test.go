package crowdhttp

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/serve"
)

// newQueryFixture builds a tier over n simulated backends (one shared
// universe) and serves its query API from an httptest server.
func newQueryFixture(t *testing.T, n int, cfg serve.Config) (*QueryClient, *httptest.Server) {
	t.Helper()
	u := domain.Recipes()
	objs := u.NewObjects(testRand(), 6)
	for i := 0; i < n; i++ {
		sim, err := crowd.NewSim(u, crowd.SimOptions{Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Backends = append(cfg.Backends, serve.Backend{Platform: sim})
	}
	cfg.Domain = "recipes"
	cfg.Objects = objs
	if cfg.DefaultBPrc == 0 {
		cfg.DefaultBPrc = crowd.Dollars(6)
	}
	tier, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewQueryServer(tier).Handler())
	t.Cleanup(ts.Close)
	return NewQueryClient(ts.URL, ts.Client()), ts
}

func TestQueryAPIRoundTrip(t *testing.T) {
	client, _ := newQueryFixture(t, 2, serve.Config{})
	ctx := context.Background()

	res, err := client.Execute(ctx, serve.Request{Statement: "SELECT Protein", MaxObjects: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (no WHERE filter)", len(res.Rows))
	}
	if res.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	for _, r := range res.Rows {
		if _, ok := r.Values["Protein"]; !ok {
			t.Fatalf("row %d missing Protein value: %v", r.ObjectID, r.Values)
		}
	}

	// The same statement again is a wire-visible cache hit, bit-equal rows.
	res2, err := client.Execute(ctx, serve.Request{Statement: "SELECT Protein", MaxObjects: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit {
		t.Fatal("repeat query missed the plan cache")
	}
	for i, r := range res2.Rows {
		if r.ObjectID != res.Rows[i].ObjectID || r.Values["Protein"] != res.Rows[i].Values["Protein"] {
			t.Fatalf("repeat row %d diverged: %v vs %v", i, r, res.Rows[i])
		}
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
	cs, ok := st.Classes[serve.DefaultClass]
	if !ok || cs.Sessions != 2 {
		t.Fatalf("class stats = %+v", st.Classes)
	}
}

func TestQueryAPIBudgetsCrossTheWire(t *testing.T) {
	client, _ := newQueryFixture(t, 1, serve.Config{})
	res, err := client.Execute(context.Background(), serve.Request{
		Statement:  "SELECT Protein",
		MaxObjects: 2,
		BObj:       crowd.Cents(5),
		BPrc:       crowd.Dollars(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PreprocessCost <= 0 || res.OnlineSpent <= 0 {
		t.Fatalf("costs not reported: %+v", res)
	}
}

func TestQueryAPIParseErrorIsTerminal(t *testing.T) {
	client, _ := newQueryFixture(t, 1, serve.Config{})
	_, err := client.Execute(context.Background(), serve.Request{Statement: "SELECT"})
	if err == nil {
		t.Fatal("bad statement did not error")
	}
	if errors.Is(err, serve.ErrRejected) {
		t.Fatalf("parse error misreported as admission rejection: %v", err)
	}
	if !strings.Contains(err.Error(), "400") {
		t.Fatalf("err = %v, want terminal 400", err)
	}
}

func TestQueryAPIRejectionKeepsIdentity(t *testing.T) {
	client, _ := newQueryFixture(t, 1, serve.Config{
		Admission: map[string]serve.BucketConfig{
			"batch": {Rate: 0.0001, Burst: 1},
		},
	})
	ctx := context.Background()
	if _, err := client.Execute(ctx, serve.Request{Statement: "SELECT Protein", Class: "batch", MaxObjects: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := client.Execute(ctx, serve.Request{Statement: "SELECT Protein", Class: "batch", MaxObjects: 1})
	if !errors.Is(err, serve.ErrRejected) {
		t.Fatalf("err = %v, want serve.ErrRejected through the wire", err)
	}
}

// TestQueryAPIWireFormatUnchanged pins the query body's JSON shape,
// which is serve.Request's own: a body written with every wire key
// decodes to the expected request, and the client emits exactly that key
// set (only "statement" for a request that sets nothing else).
func TestQueryAPIWireFormatUnchanged(t *testing.T) {
	const body = `{"statement":"SELECT Protein","class":"batch","object_ids":[3,1],` +
		`"max_objects":2,"b_obj_mills":50,"b_prc_mills":6000,"adaptive":true,` +
		`"lazy":true,"shards":2,"reuse":true}`
	want := serve.Request{
		Statement: "SELECT Protein", Class: "batch", ObjectIDs: []int{3, 1}, MaxObjects: 2,
		BObj: crowd.Cents(5), BPrc: crowd.Dollars(6), Adaptive: true, Lazy: true, Shards: 2,
		ReuseAnswers: true,
	}
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	var got serve.Request
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}

	var sent []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sent, _ = io.ReadAll(r.Body)
		w.Write([]byte(`{"rows":[]}`))
	}))
	defer ts.Close()
	client := NewQueryClient(ts.URL, ts.Client())
	for _, tc := range []struct {
		req  serve.Request
		keys []string
	}{
		{want, []string{"adaptive", "b_obj_mills", "b_prc_mills", "class", "lazy", "max_objects",
			"object_ids", "reuse", "shards", "statement"}},
		{serve.Request{Statement: "SELECT Protein"}, []string{"statement"}},
	} {
		if _, err := client.Execute(context.Background(), tc.req); err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(sent, &fields); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(fields))
		for k := range fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, tc.keys) {
			t.Fatalf("client sent keys %v, want %v", keys, tc.keys)
		}
	}
}

func TestQueryClientDrivesLoadHarness(t *testing.T) {
	client, _ := newQueryFixture(t, 2, serve.Config{})
	rep, err := serve.RunLoad(client, serve.LoadConfig{
		Statements:  []string{"SELECT Protein"},
		Concurrency: 2,
		Duration:    300 * time.Millisecond,
		MaxObjects:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries == 0 || rep.Errors != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestQueryAPIShardsCrossTheWire runs the same statement unsharded and
// scattered over 4 shards through a remote sharded tier: the shard count
// must survive the round trip both ways (request override in, result
// out), the rows must be bit-equal (scatter happens tier-side, invisible
// on the wire), and the server stats must report the sharded session.
func TestQueryAPIShardsCrossTheWire(t *testing.T) {
	client, _ := newQueryFixture(t, 1, serve.Config{Shards: 4, Partition: serve.PartitionHash})
	ctx := context.Background()

	plain, err := client.Execute(ctx, serve.Request{Statement: "SELECT Protein", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Shards != 1 {
		t.Fatalf("Shards=1 override lost on the wire: result says %d", plain.Shards)
	}
	sharded, err := client.Execute(ctx, serve.Request{Statement: "SELECT Protein"})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Shards != 4 {
		t.Fatalf("Result.Shards = %d, want the tier default 4", sharded.Shards)
	}
	if len(sharded.Rows) != len(plain.Rows) {
		t.Fatalf("row counts differ: sharded %d, unsharded %d", len(sharded.Rows), len(plain.Rows))
	}
	for i, r := range sharded.Rows {
		if r.ObjectID != plain.Rows[i].ObjectID || r.Values["Protein"] != plain.Rows[i].Values["Protein"] {
			t.Fatalf("sharded row %d diverged: %v vs %v", i, r, plain.Rows[i])
		}
	}
	if sharded.OnlineSpent != plain.OnlineSpent {
		t.Fatalf("sharded spend %v, unsharded %v", sharded.OnlineSpent, plain.OnlineSpent)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || st.Partition != serve.PartitionHash {
		t.Fatalf("server stats shards/partition = %d/%q", st.Shards, st.Partition)
	}
	if got := st.Classes[serve.DefaultClass].ShardedSessions; got != 1 {
		t.Fatalf("remote ShardedSessions = %d, want 1", got)
	}
}

// TestQueryAPILazyTopKCrossesTheWire runs a lazy ordered session through
// the remote tier: the Lazy flag, the savings counters and each row's
// sort key must survive the round trip, and the per-class lazy counters
// must show up in the remote stats.
func TestQueryAPILazyTopKCrossesTheWire(t *testing.T) {
	client, _ := newQueryFixture(t, 1, serve.Config{})
	ctx := context.Background()

	res, err := client.Execute(ctx, serve.Request{
		Statement: "SELECT Calories ORDER BY Protein DESC LIMIT 3",
		Lazy:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lazy {
		t.Fatal("Result.Lazy lost on the wire")
	}
	if res.QuestionsSkipped <= 0 {
		t.Fatalf("QuestionsSkipped = %d, want > 0 under the default lazy config", res.QuestionsSkipped)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].SortKey > res.Rows[i-1].SortKey {
			t.Fatalf("SortKey order lost on the wire: %+v", res.Rows)
		}
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cs := st.Classes[serve.DefaultClass]
	if cs.LazySessions != 1 {
		t.Fatalf("remote LazySessions = %d, want 1", cs.LazySessions)
	}
	if cs.QuestionsSkipped != res.QuestionsSkipped {
		t.Fatalf("remote QuestionsSkipped = %d, result reported %d", cs.QuestionsSkipped, res.QuestionsSkipped)
	}
}

// TestQueryAPIAdaptiveCrossesTheWire runs a fixed and an adaptive
// session through the remote tier and checks the flag, the savings and
// the per-class counters all survive the round trip.
func TestQueryAPIAdaptiveCrossesTheWire(t *testing.T) {
	// A roomier per-object budget gives every attribute enough answers
	// that the sequential test has room to stop early; stopping-only
	// tuning (no reallocation) makes the savings visible as spend.
	acfg := adaptive.Defaults()
	acfg.Weight, acfg.Reallocate = false, false
	client, _ := newQueryFixture(t, 1, serve.Config{
		DefaultBObj: crowd.Cents(8),
		Adaptive:    &acfg,
	})
	ctx := context.Background()

	fixed, err := client.Execute(ctx, serve.Request{Statement: "SELECT Protein"})
	if err != nil {
		t.Fatal(err)
	}
	adap, err := client.Execute(ctx, serve.Request{Statement: "SELECT Protein", Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !adap.Adaptive {
		t.Fatal("Result.Adaptive lost on the wire")
	}
	if adap.QuestionsSaved <= 0 {
		t.Fatalf("QuestionsSaved = %d, want > 0", adap.QuestionsSaved)
	}
	if adap.OnlineSpent >= fixed.OnlineSpent {
		t.Fatalf("adaptive session spent %v, fixed %v", adap.OnlineSpent, fixed.OnlineSpent)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Classes[serve.DefaultClass].AdaptiveSessions; got != 1 {
		t.Fatalf("remote AdaptiveSessions = %d, want 1", got)
	}
}
