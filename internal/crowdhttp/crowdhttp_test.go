package crowdhttp

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/serve"
)

func newPair(t *testing.T, seed int64) (*Client, *Server, *httptest.Server) {
	t.Helper()
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sim)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), srv, ts
}

func TestPricingFetched(t *testing.T) {
	client, _, _ := newPair(t, 1)
	p := client.Pricing()
	if p != crowd.DefaultPricing() {
		t.Fatalf("pricing %+v, want default", p)
	}
}

func TestMetaAndCanonical(t *testing.T) {
	client, _, _ := newPair(t, 2)
	if client.Canonical("Is Dessert") != "Dessert" {
		t.Fatal("canonicalization over HTTP broken")
	}
	if !client.IsBinary("Dessert") || client.IsBinary("Calories") {
		t.Fatal("IsBinary over HTTP broken")
	}
	if client.Sigma("Calories") != 250 {
		t.Fatalf("Sigma = %v", client.Sigma("Calories"))
	}
}

func TestExamplesAndValueRoundTrip(t *testing.T) {
	client, _, _ := newPair(t, 3)
	ex, err := client.Examples([]string{"Protein"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) != 3 {
		t.Fatalf("got %d examples", len(ex))
	}
	spent := client.Ledger().Spent()
	if spent != 3*crowd.Cents(5) {
		t.Fatalf("3 examples cost %v", spent)
	}
	// Value questions about a served object work through the registry.
	ans, err := client.Value(ex[0].Object, "Calories", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 4 {
		t.Fatalf("got %d answers", len(ans))
	}
	if got := client.Ledger().Spent(); got != spent+4*crowd.Cents(0.4) {
		t.Fatalf("value charge wrong: %v", got)
	}
	// Re-asking is free and identical (local cache).
	again, err := client.Value(ex[0].Object, "Calories", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ans {
		if ans[i] != again[i] {
			t.Fatal("cache returned different answers")
		}
	}
	if client.Ledger().Spent() != spent+4*crowd.Cents(0.4) {
		t.Fatal("cached answers should not be re-charged")
	}
	// Extension charges only the delta.
	if _, err := client.Value(ex[0].Object, "Calories", 6); err != nil {
		t.Fatal(err)
	}
	if client.Ledger().Spent() != spent+6*crowd.Cents(0.4) {
		t.Fatalf("delta charge wrong: %v", client.Ledger().Spent())
	}
}

func TestValueUnknownObjectRejected(t *testing.T) {
	client, _, _ := newPair(t, 4)
	_, err := client.Value(domain.RefObject(987654), "Calories", 1)
	if err == nil || !strings.Contains(err.Error(), "unknown object") {
		t.Fatalf("expected unknown-object error, got %v", err)
	}
}

func TestRegisterObjectEnablesOnlinePhase(t *testing.T) {
	client, srv, _ := newPair(t, 5)
	// An object that never went through example questions…
	sim := srvPlatform(srv)
	obj := sim.Universe().NewObjects(testRand(), 1)[0]
	if _, err := client.Value(domain.RefObject(obj.ID), "Calories", 1); err == nil {
		t.Fatal("unregistered object should fail")
	}
	// …works once registered server-side.
	srv.RegisterObject(obj)
	if _, err := client.Value(domain.RefObject(obj.ID), "Calories", 1); err != nil {
		t.Fatal(err)
	}
}

func TestDismantleAndVerifyOverHTTP(t *testing.T) {
	client, _, _ := newPair(t, 6)
	ans, err := client.Dismantle("Protein")
	if err != nil {
		t.Fatal(err)
	}
	if ans == "" {
		t.Fatal("empty dismantle answer")
	}
	if client.Ledger().SpentOn(crowd.Dismantling) != crowd.Cents(1.5) {
		t.Fatal("dismantle not charged")
	}
	yes := 0
	for i := 0; i < 50; i++ {
		ok, err := client.Verify("Has Meat", "Protein")
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			yes++
		}
	}
	if yes < 15 {
		t.Fatalf("verify yes-rate suspiciously low: %d/50", yes)
	}
}

func TestClientEnforcesBudgetLocally(t *testing.T) {
	client, _, _ := newPair(t, 7)
	client.SetLedger(crowd.NewLedger(crowd.Cents(5))) // one example fits
	if _, err := client.Examples([]string{"Protein"}, 1); err != nil {
		t.Fatal(err)
	}
	_, err := client.Examples([]string{"Protein"}, 2)
	if !errors.Is(err, crowd.ErrBudgetExhausted) {
		t.Fatalf("expected local budget enforcement, got %v", err)
	}
}

func TestClientValidation(t *testing.T) {
	client, _, _ := newPair(t, 8)
	if _, err := client.Value(nil, "Calories", 1); err == nil {
		t.Fatal("nil object should error")
	}
	if _, err := client.Value(domain.RefObject(1), "Calories", -1); err == nil {
		t.Fatal("negative n should error")
	}
	if _, err := client.Examples(nil, 1); err == nil {
		t.Fatal("no targets should error")
	}
	if _, err := client.Examples([]string{"Protein"}, -1); err == nil {
		t.Fatal("negative n should error")
	}
}

func TestServerRejectsNonPost(t *testing.T) {
	_, _, ts := newPair(t, 9)
	resp, err := http.Get(ts.URL + PathValue)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST endpoint: status %d", resp.StatusCode)
	}
	// Bad JSON body.
	resp, err = http.Post(ts.URL+PathValue, "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", resp.StatusCode)
	}
}

// TestPreprocessOverHTTP is the integration test: the full DisQ offline
// phase runs against the remote platform and produces a working plan, with
// the budget enforced by the client's local ledger.
func TestPreprocessOverHTTP(t *testing.T) {
	client, srv, _ := newPair(t, 10)
	bPrc := crowd.Dollars(20)
	plan, err := core.Preprocess(client, core.Query{Targets: []string{"Protein"}},
		crowd.Cents(4), bPrc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.PreprocessCost > bPrc {
		t.Fatalf("client overspent: %v", plan.PreprocessCost)
	}
	if len(plan.Discovered) < 2 {
		t.Fatalf("no attributes discovered over HTTP: %v", plan.Discovered)
	}
	if !strings.Contains(plan.Formula("Protein"), "Protein* =") {
		t.Fatalf("formula: %q", plan.Formula("Protein"))
	}
	// Online phase against a registered database object.
	sim := srvPlatform(srv)
	obj := sim.Universe().NewObjects(testRand(), 1)[0]
	srv.RegisterObject(obj)
	est, err := plan.EstimateObject(client, domain.RefObject(obj.ID))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := est["Protein"]; !ok {
		t.Fatal("missing estimate")
	}
}

func TestClientServerDown(t *testing.T) {
	// A closed server: every remote call surfaces a transport error, and
	// Canonical degrades to the identity instead of failing the pipeline.
	client := NewClient("http://127.0.0.1:1", nil)
	if _, err := client.Dismantle("X"); err == nil {
		t.Fatal("expected transport error")
	}
	if _, err := client.Examples([]string{"X"}, 1); err == nil {
		t.Fatal("expected transport error")
	}
	if got := client.Canonical("Raw Name"); got != "Raw Name" {
		t.Fatalf("Canonical fallback = %q", got)
	}
	if s := client.Sigma("X"); s != 1 {
		t.Fatalf("Sigma fallback = %v", s)
	}
	if client.IsBinary("X") {
		t.Fatal("IsBinary fallback should be false")
	}
	if p := client.Pricing(); p != (crowd.Pricing{}) {
		t.Fatalf("Pricing fallback = %+v", p)
	}
}

func TestClientBudgetChargedBeforeRequest(t *testing.T) {
	// With an exhausted ledger, no request reaches the server at all.
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sim)
	var hits int
	counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathPricing && r.URL.Path != PathMeta && r.URL.Path != PathCanonical {
			hits++
		}
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(counting)
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	client.SetLedger(crowd.NewLedger(1)) // 1 mill: nothing is affordable
	if _, err := client.Dismantle("Protein"); !errors.Is(err, crowd.ErrBudgetExhausted) {
		t.Fatalf("expected budget error, got %v", err)
	}
	if _, err := client.Examples([]string{"Protein"}, 1); !errors.Is(err, crowd.ErrBudgetExhausted) {
		t.Fatalf("expected budget error, got %v", err)
	}
	if hits != 0 {
		t.Fatalf("%d chargeable requests reached the server despite empty budget", hits)
	}
}

// TestOversizedBodyRejected sends a body past maxBodyBytes to a question
// endpoint and to the query API. Each answers 413, which the client does
// not retry, with a message that names the bound.
func TestOversizedBodyRejected(t *testing.T) {
	_, _, questions := newPair(t, 1)
	_, queries := newQueryFixture(t, 1, serve.Config{})
	body := `{"statement":"SELECT Protein","pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, url := range []string{questions.URL + PathValue, queries.URL + PathServeQuery} {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413 (%s)", url, resp.StatusCode, msg)
		}
		if want := fmt.Sprintf("%d-byte limit", maxBodyBytes); !strings.Contains(string(msg), want) {
			t.Fatalf("%s: message %q does not name the %s", url, msg, want)
		}
	}
}
