package crowdhttp

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/flight"
)

// slowPlatform delays and counts the dismantling and value questions that
// reach the wrapped platform, so a request can outlive its client's
// attempt timeout and the test can count server-side executions.
type slowPlatform struct {
	crowd.Platform
	delay      time.Duration
	dismantles atomic.Int64
	mu         sync.Mutex
	values     map[valueKey]int
}

func (p *slowPlatform) Dismantle(attr string) (string, error) {
	p.dismantles.Add(1)
	time.Sleep(p.delay)
	return p.Platform.Dismantle(attr)
}

func (p *slowPlatform) Value(o *domain.Object, attr string, n int) ([]float64, error) {
	p.mu.Lock()
	p.values[valueKey{objID: o.ID, attr: attr}]++
	p.mu.Unlock()
	time.Sleep(p.delay)
	return p.Platform.Value(o, attr, n)
}

// slowPair serves a seeded simulator behind an 80 ms slowPlatform to a
// client whose attempts time out after 30 ms and which retries until one
// attempt outlives the first execution.
func slowPair(t *testing.T, seed int64) (*Client, *Server, *slowPlatform, *crowd.SimPlatform) {
	t.Helper()
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sp := &slowPlatform{Platform: sim, delay: 80 * time.Millisecond, values: make(map[valueKey]int)}
	srv := NewServer(sp)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	opts := fastOptions(20)
	opts.Timeout = 30 * time.Millisecond
	return NewClientWithOptions(ts.URL, ts.Client(), opts), srv, sp, sim
}

// TestDismantleInFlightRetryExecutesOnce is the in-flight replay
// regression test: retries of one dismantling question that arrive while
// its first execution is still running wait for it instead of executing
// again, so the stream advances once per call and the answers are
// bit-equal to a fault-free run.
func TestDismantleInFlightRetryExecutesOnce(t *testing.T) {
	const seed = 24
	client, srv, sp, _ := slowPair(t, seed)
	ref, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want1, _ := ref.Dismantle("Protein")
	want2, _ := ref.Dismantle("Protein")

	got1, err := client.Dismantle("Protein")
	if err != nil {
		t.Fatal(err)
	}
	if n := sp.dismantles.Load(); n != 1 {
		t.Fatalf("one call executed %d times on the server", n)
	}
	if client.TransportStats().Retries == 0 {
		t.Fatal("no retry was sent while the first attempt executed")
	}
	got2, err := client.Dismantle("Protein")
	if err != nil {
		t.Fatal(err)
	}
	if n := sp.dismantles.Load(); n != 2 {
		t.Fatalf("two calls executed %d times on the server", n)
	}
	if got1 != want1 || got2 != want2 {
		t.Fatalf("answers %q, %q; fault-free run %q, %q", got1, got2, want1, want2)
	}
	if srv.Stats().ReplayHits < 2 {
		t.Fatalf("replay hits %d, want one per call at least", srv.Stats().ReplayHits)
	}
}

// TestBatchInFlightRetryExecutesOnce is the batch form: a slow batch
// retried under its key while it executes runs every item once, and the
// retry gets the first execution's response.
func TestBatchInFlightRetryExecutesOnce(t *testing.T) {
	client, srv, sp, sim := slowPair(t, 32)
	objs := sim.Universe().NewObjects(testRand(), 2)
	for _, o := range objs {
		srv.RegisterObject(o)
	}
	qs := []crowd.ObjectValueQuestion{
		{Object: objs[0], Attr: "Calories", N: 3},
		{Object: objs[1], Attr: "Protein", N: 2},
	}
	got, err := client.ValueBatchMulti(qs)
	if err != nil {
		t.Fatal(err)
	}
	ts := client.TransportStats()
	if ts.Batches != 1 || ts.Retries == 0 {
		t.Fatalf("transport %+v, want one batch retried mid-execution", ts)
	}
	for i, q := range qs {
		sp.mu.Lock()
		n := sp.values[valueKey{objID: q.Object.ID, attr: q.Attr}]
		sp.mu.Unlock()
		if n != 1 {
			t.Fatalf("item %d executed %d times", i, n)
		}
		want, err := sim.Value(q.Object, q.Attr, q.N)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("item %d answered %v, want %v", i, got[i], want)
		}
	}
	if srv.Stats().ReplayHits == 0 {
		t.Fatal("the retry did not replay the first response")
	}
}

// TestIdemTableBounded runs more keys than the idempotency table's cap,
// then lets the clock pass its retention: the table never holds more than
// the cap, and the first record after the retention sweeps every expired
// one.
func TestIdemTableBounded(t *testing.T) {
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sim)
	var nanos atomic.Int64
	srv.idem = flight.New[string, []byte](idemMaxRecords, idemRetention,
		func() time.Time { return time.Unix(0, nanos.Load()) })
	h := srv.Handler()
	post := func(key string) {
		t.Helper()
		body := fmt.Sprintf(`{"idempotency_key":%q,"name":"Is Dessert"}`, key)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, PathCanonical, strings.NewReader(body)))
		if rr.Code != http.StatusOK {
			t.Fatalf("key %s: status %d", key, rr.Code)
		}
	}
	for i := 0; i < idemMaxRecords+100; i++ {
		post(fmt.Sprintf("k%d", i))
	}
	if n := srv.Stats().IdemRecords; n != idemMaxRecords {
		t.Fatalf("%d records after %d keys, want the cap %d", n, idemMaxRecords+100, idemMaxRecords)
	}
	nanos.Store(int64(idemRetention + time.Second))
	post("late")
	if n := srv.Stats().IdemRecords; n != 1 {
		t.Fatalf("%d records after the retention passed, want 1", n)
	}
}
