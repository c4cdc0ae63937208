package crowdhttp

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/domain"
)

// postBatch drives the wire protocol directly.
func postBatch(t *testing.T, url, key string, items []batchItem) batchResponse {
	t.Helper()
	req := batchRequest{Items: items}
	req.IdempotencyKey = key
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+PathBatch, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	return br
}

// TestBatchEndpointHeterogeneous sends one batch mixing every item kind
// plus a bogus one, and checks each slot independently carries its
// result or error.
func TestBatchEndpointHeterogeneous(t *testing.T) {
	_, srv, ts := newPair(t, 31)
	sim := srvPlatform(srv)
	obj := sim.Universe().NewObjects(testRand(), 1)[0]
	srv.RegisterObject(obj)

	br := postBatch(t, ts.URL, "het-1", []batchItem{
		{Kind: "value", ObjectID: obj.ID, Attribute: "Calories", N: 3},
		{Kind: "meta", Attribute: "Is Dessert"},
		{Kind: "canonical", Name: "Is Dessert"},
		{Kind: "examples", Targets: []string{"Protein"}, N: 2},
		{Kind: "bogus"},
	})
	if len(br.Items) != 5 {
		t.Fatalf("got %d results, want 5", len(br.Items))
	}
	// The simulator memoizes per question identity, so asking it directly
	// afterwards returns the exact answers the batch produced.
	wantAns, err := sim.Value(obj, "Calories", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(br.Items[0].Answers, wantAns) {
		t.Fatalf("value item answered %v, want %v", br.Items[0].Answers, wantAns)
	}
	meta := br.Items[1].Meta
	if meta == nil || meta.Binary != sim.IsBinary("Is Dessert") || meta.Sigma != sim.Sigma("Is Dessert") {
		t.Fatalf("meta item = %+v", meta)
	}
	if br.Items[2].Canonical != sim.Canonical("Is Dessert") {
		t.Fatalf("canonical item = %q, want %q", br.Items[2].Canonical, sim.Canonical("Is Dessert"))
	}
	if len(br.Items[3].Examples) != 2 {
		t.Fatalf("examples item returned %d examples, want 2", len(br.Items[3].Examples))
	}
	// Example objects are registered as a side effect, like /v1/examples.
	exID := br.Items[3].Examples[0].ObjectID
	if _, ok := srv.lookupObject(exID); !ok {
		t.Fatalf("example object %d was not registered", exID)
	}
	if br.Items[4].Error == "" || br.Items[4].Transient {
		t.Fatalf("bogus item = %+v, want a terminal error", br.Items[4])
	}

	// Malformed batches are rejected whole.
	resp, err := http.Post(ts.URL+PathBatch, "application/json", bytes.NewReader([]byte(`{"items":[]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d, want 400", resp.StatusCode)
	}
}

// TestValueBatchSingleRoundTrip is the client-side contract: one
// ValueBatch call answers the whole question set in one /v1/batch
// request, bit-equal to the single-question path, charged exactly once,
// and entirely from cache on repeat.
func TestValueBatchSingleRoundTrip(t *testing.T) {
	client, srv, _ := newPair(t, 33)
	sim := srvPlatform(srv)
	obj := sim.Universe().NewObjects(testRand(), 1)[0]
	srv.RegisterObject(obj)

	qs := []crowd.ValueQuestion{
		{Attr: "Calories", N: 3},
		{Attr: "Is Dessert", N: 2},
		{Attr: "Sugar", N: 2},
	}
	got, err := client.ValueBatch(domain.RefObject(obj.ID), qs)
	if err != nil {
		t.Fatal(err)
	}
	st := client.TransportStats()
	if st.Batches != 1 || st.BatchItems != 3 {
		t.Fatalf("stats after one ValueBatch: %+v, want 1 batch of 3 items", st)
	}
	for i, q := range qs {
		want, err := sim.Value(obj, q.Attr, q.N)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("question %v answered %v, want %v", q, got[i], want)
		}
	}
	pricing := client.Pricing()
	want := 3*pricing.NumericValue + 2*pricing.BinaryValue + 2*pricing.NumericValue
	if spent := client.Ledger().Spent(); spent != want {
		t.Fatalf("spent %v, want %v", spent, want)
	}

	// Repeat and overlapping prefixes are free and touch no wire.
	again, err := client.ValueBatch(domain.RefObject(obj.ID),
		[]crowd.ValueQuestion{{Attr: "Calories", N: 2}, {Attr: "Sugar", N: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again[0], got[0][:2]) || !reflect.DeepEqual(again[1], got[2]) {
		t.Fatalf("cached replay diverged: %v", again)
	}
	if st2 := client.TransportStats(); st2.Batches != 1 {
		t.Fatalf("cached ValueBatch sent another batch: %+v", st2)
	}
	if spent := client.Ledger().Spent(); spent != want {
		t.Fatalf("cached replay charged: %v, want %v", spent, want)
	}
	// The single-question path shares the cache, byte for byte.
	single, err := client.Value(domain.RefObject(obj.ID), "Calories", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, got[0]) {
		t.Fatalf("Value after ValueBatch = %v, want %v", single, got[0])
	}
}

// TestBatchIdempotentReplayUnderFaults is the fault-tolerance acceptance
// test for /v1/batch: with injected drops and 503s, a retried batch must
// replay server-side — byte-identical answers, charged exactly once,
// landing on the same ledger total as a fault-free run.
func TestBatchIdempotentReplayUnderFaults(t *testing.T) {
	const seed = 34
	qs := []crowd.ValueQuestion{
		{Attr: "Calories", N: 3},
		{Attr: "Is Dessert", N: 2},
		{Attr: "Sugar", N: 1},
		{Attr: "Protein", N: 2},
	}

	run := func(client *Client, srv *Server) ([][][]float64, crowd.Cost) {
		t.Helper()
		sim := srvPlatform(srv)
		objs := sim.Universe().NewObjects(testRand(), 6)
		out := make([][][]float64, len(objs))
		for i, o := range objs {
			srv.RegisterObject(o)
			ans, err := client.ValueBatch(domain.RefObject(o.ID), qs)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = ans
		}
		return out, client.Ledger().Spent()
	}

	newSim := func() *crowd.SimPlatform {
		sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}

	cleanSrv := NewServer(newSim())
	cleanTS := httptest.NewServer(cleanSrv.Handler())
	defer cleanTS.Close()
	wantAns, wantSpent := run(NewClient(cleanTS.URL, cleanTS.Client()), cleanSrv)

	srv := NewFaultyServer(newSim(), FaultOptions{Seed: 11, FailRate: 0.15, DropRate: 0.3})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClientWithOptions(ts.URL, ts.Client(), fastOptions(12))
	gotAns, gotSpent := run(client, srv)

	if srv.InjectedFaults() == 0 {
		t.Fatal("the faulty server injected nothing")
	}
	if st := client.TransportStats(); st.Retries == 0 {
		t.Fatalf("the transport never retried: %+v", st)
	}
	if stats := srv.Stats(); stats.ReplayHits == 0 {
		t.Fatalf("no dropped response was replayed: %+v", stats)
	}
	if !reflect.DeepEqual(gotAns, wantAns) {
		t.Fatalf("answers diverged under faults:\nfaulty     %v\nfault-free %v", gotAns, wantAns)
	}
	if gotSpent != wantSpent {
		t.Fatalf("fault-injected run spent %v, fault-free %v — a retried batch double-charged or leaked", gotSpent, wantSpent)
	}
}

// TestStatsEndpoint checks /v1/stats serves the live counters.
func TestStatsEndpoint(t *testing.T) {
	client, srv, ts := newPair(t, 35)
	if _, err := client.Examples([]string{"Protein"}, 2); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + PathStats)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests[PathExamples] == 0 || st.Requests[PathPricing] == 0 {
		t.Fatalf("request counts missing traffic: %+v", st.Requests)
	}
	if st.Requests[PathStats] == 0 {
		t.Fatal("stats endpoint does not count itself")
	}
	if st.RegisteredObjects != 2 || st.IdemRecords == 0 {
		t.Fatalf("registry sizes: %+v", st)
	}
	if srv.Stats().Requests[PathStats] != st.Requests[PathStats] {
		t.Fatal("Stats() and /v1/stats disagree")
	}
}

// TestCoalescingMergesConcurrentCallers holds the coalescer open like a
// slow concurrent caller and checks that several ValueBatch calls land in
// one wire request.
func TestCoalescingMergesConcurrentCallers(t *testing.T) {
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sim)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClientWithOptions(ts.URL, ts.Client(), Options{BatchWindow: time.Second})

	objs := sim.Universe().NewObjects(testRand(), 3)
	for _, o := range objs {
		srv.RegisterObject(o)
	}
	qs := []crowd.ValueQuestion{{Attr: "Calories", N: 2}, {Attr: "Sugar", N: 1}}

	client.batchEnter() // pose as a caller that is still preparing
	var wg sync.WaitGroup
	answers := make([][][]float64, len(objs))
	errs := make([]error, len(objs))
	for i, o := range objs {
		wg.Add(1)
		go func(i int, id int) {
			defer wg.Done()
			answers[i], errs[i] = client.ValueBatch(domain.RefObject(id), qs)
		}(i, o.ID)
	}
	// Wait until every caller has parked its questions in the pending
	// batch (they block on their outcome channels while we hold the
	// coalescer open).
	deadline := time.Now().Add(5 * time.Second)
	for {
		client.batchMu.Lock()
		ready := client.preparing == 1 && len(client.pending) == len(objs)*len(qs)
		client.batchMu.Unlock()
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("callers never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	client.batchLeave() // last one out flushes the combined batch
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	st := client.TransportStats()
	if st.Batches != 1 || st.BatchItems != int64(len(objs)*len(qs)) {
		t.Fatalf("coalescer sent %d batches of %d items, want 1 of %d", st.Batches, st.BatchItems, len(objs)*len(qs))
	}
	if st.Coalesced != int64(len(objs)-1) {
		t.Fatalf("Coalesced = %d, want %d", st.Coalesced, len(objs)-1)
	}
	for i, o := range objs {
		for j, q := range qs {
			want, err := sim.Value(o, q.Attr, q.N)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(answers[i][j], want) {
				t.Fatalf("object %d question %v: %v, want %v", o.ID, q, answers[i][j], want)
			}
		}
	}
}
