// Package crowdhttp exposes a crowd.Platform over HTTP and implements a
// crowd.Platform client on top of that API, so the DisQ pipeline can run
// against a crowd service living in another process (the deployment shape
// of a real CrowdFlower/MTurk integration).
//
// Division of responsibilities:
//
//   - The server executes questions against its wrapped platform and owns
//     the objects (a client can only ask value questions about objects the
//     server has handed out through example questions). It deduplicates
//     retried POSTs by their idempotency key: a key executes at most once
//     while the server retains it, a retry arriving while the first
//     request still executes waits for that execution and replays its
//     response, and a later retry replays the recorded response. So a
//     retry cannot advance a dismantling/verification stream twice. The
//     limit: a successful response is retained for 5 minutes and among
//     the latest 65,536 keys; a retry of an evicted key executes again.
//   - The client owns budgeting: it knows the pricing, keeps a local
//     answer cache mirroring its own asks, charges its ledger *before*
//     each request, and therefore enforces B_prc/B_obj without trusting
//     the server. Charging is transactional — a reservation committed on
//     success and refunded on failure — so transport faults never leak
//     budget, and a per-key single-flight lock prevents concurrent
//     callers of one question from double-charging.
//   - The transport retries transient failures (connection errors,
//     timeouts, 5xx, 429, short batches) with exponential backoff +
//     jitter under a bounded retry budget; 4xx and local budget errors
//     are terminal.
//
// Fault injection: NewFaultyServer adds seeded request-level faults
// (pre-execution 503s, post-execution response drops recovered only via
// idempotent replay, latency, fail-after-N), and crowd.FaultyPlatform can
// wrap the served platform for question-level faults (transient errors,
// short batches). Together they let the whole pipeline be hammered
// end-to-end through a flaky deployment — see the package tests.
//
// The wire format is JSON over POST; see the endpoint constants.
package crowdhttp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/flight"
)

// API endpoints (all POST except the GET /v1/pricing and /v1/stats).
const (
	PathValue     = "/v1/value"
	PathDismantle = "/v1/dismantle"
	PathVerify    = "/v1/verify"
	PathExamples  = "/v1/examples"
	PathCanonical = "/v1/canonical"
	PathMeta      = "/v1/meta"
	PathPricing   = "/v1/pricing"
	PathBatch     = "/v1/batch"
	PathStats     = "/v1/stats"
)

// servedPaths lists every endpoint, for the per-path request counters.
var servedPaths = []string{
	PathValue, PathDismantle, PathVerify, PathExamples,
	PathCanonical, PathMeta, PathPricing, PathBatch, PathStats,
}

// idemKey is the client-generated idempotency key every request embeds.
// The server executes a key at most once and replays the recorded
// response to retries, which is what makes a retried POST safe against
// double-answering (and, with the client's reservation charging, against
// double-pricing).
type idemKey struct {
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

func (k *idemKey) setIdempotencyKey(s string) { k.IdempotencyKey = s }

// wireRequest is any request type carrying an idempotency key.
type wireRequest interface{ setIdempotencyKey(string) }

// Wire types.
type (
	valueRequest struct {
		idemKey
		ObjectID  int    `json:"object_id"`
		Attribute string `json:"attribute"`
		N         int    `json:"n"`
	}
	valueResponse struct {
		Answers []float64 `json:"answers"`
	}
	dismantleRequest struct {
		idemKey
		Attribute string `json:"attribute"`
	}
	dismantleResponse struct {
		Answer string `json:"answer"`
	}
	verifyRequest struct {
		idemKey
		Candidate string `json:"candidate"`
		Target    string `json:"target"`
	}
	verifyResponse struct {
		Yes bool `json:"yes"`
	}
	examplesRequest struct {
		idemKey
		Targets []string `json:"targets"`
		N       int      `json:"n"`
	}
	exampleWire struct {
		ObjectID int                `json:"object_id"`
		Values   map[string]float64 `json:"values"`
	}
	examplesResponse struct {
		Examples []exampleWire `json:"examples"`
	}
	canonicalRequest struct {
		idemKey
		Name string `json:"name"`
	}
	canonicalResponse struct {
		Canonical string `json:"canonical"`
	}
	metaRequest struct {
		idemKey
		Attribute string `json:"attribute"`
	}
	metaResponse struct {
		Sigma  float64 `json:"sigma"`
		Binary bool    `json:"binary"`
	}
	pricingResponse struct {
		BinaryValue  crowd.Cost `json:"binary_value"`
		NumericValue crowd.Cost `json:"numeric_value"`
		Dismantling  crowd.Cost `json:"dismantling"`
		Verification crowd.Cost `json:"verification"`
		Example      crowd.Cost `json:"example"`
	}
	errorResponse struct {
		Error string `json:"error"`
	}
)

// FaultOptions configures seeded request-level fault injection on the
// server (see crowd.FaultyOptions for question-level injection on the
// platform underneath).
type FaultOptions struct {
	// Seed drives the injection schedule.
	Seed int64
	// FailRate is the fraction of requests rejected with 503 *before*
	// executing; the platform never sees them, so a retry observes
	// unchanged state.
	FailRate float64
	// DropRate is the fraction of requests whose response is recorded
	// under the idempotency key and then replaced with a 503 — the
	// "executed, but the answer never reached the client" failure of real
	// deployments; only the idempotent replay can recover the answer
	// without re-executing.
	DropRate float64
	// FailAfter > 0 rejects every request after the first N with 503 (the
	// platform-went-down shape, for exercising retry exhaustion).
	FailAfter int
	// Latency delays every request.
	Latency time.Duration
}

// faultInjector makes the per-request fault decisions.
type faultInjector struct {
	opts     FaultOptions
	calls    atomic.Int64
	injected atomic.Int64
}

type faultDecision struct {
	fail bool // reject before executing
	drop bool // execute, record for replay, then lose the response
}

func (f *faultInjector) next() faultDecision {
	if f == nil {
		return faultDecision{}
	}
	idx := f.calls.Add(1)
	if f.opts.Latency > 0 {
		time.Sleep(f.opts.Latency)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "srvfault|%d|%d", f.opts.Seed, idx)
	r := rand.New(rand.NewSource(int64(h.Sum64())))
	var d faultDecision
	switch {
	case f.opts.FailAfter > 0 && idx > int64(f.opts.FailAfter):
		d.fail = true
	case f.opts.FailRate > 0 && r.Float64() < f.opts.FailRate:
		d.fail = true
	case f.opts.DropRate > 0 && r.Float64() < f.opts.DropRate:
		d.drop = true
	}
	if d.fail || d.drop {
		f.injected.Add(1)
	}
	return d
}

// The idempotency table's bounds: idemRetention outlives the default
// client's worst-case retry horizon (4 attempts × 30 s plus backoff, about
// 2 min); idemMaxRecords caps its memory whatever the request rate.
const (
	idemRetention  = 5 * time.Minute
	idemMaxRecords = 1 << 16
)

// Server adapts a crowd.Platform to the HTTP API. It neutralizes the
// wrapped platform's budget enforcement (clients budget themselves),
// keeps a registry of the objects it has handed out so value questions
// can reference them by id, and executes each idempotency key at most
// once while it retains the key: a retry arriving mid-execution waits for
// the first response, a later one replays it, and only a retry after the
// key's eviction executes again. A non-200 response is never replayed.
// The registry is
// read-mostly (every value question looks an object up; only example
// questions and RegisterObject write), so it sits behind an RWMutex and
// concurrent value questions never serialize on it.
type Server struct {
	platform crowd.Platform
	faults   *faultInjector

	mu      sync.RWMutex
	objects map[int]*domain.Object

	idem *flight.Group[string, []byte] // each key's execution, then its 200 body

	// Observability counters, served at /v1/stats. reqCounts is keyed by
	// endpoint path and fully populated at construction, so handlers only
	// ever touch atomics.
	reqCounts      map[string]*atomic.Int64
	replayHits     atomic.Int64
	batches        atomic.Int64
	batchItemCount atomic.Int64
}

// NewServer wraps a platform. The platform's ledger is replaced with an
// unlimited one; budget enforcement is the client's job.
func NewServer(p crowd.Platform) *Server {
	p.SetLedger(crowd.NewLedger(0))
	s := &Server{
		platform:  p,
		objects:   make(map[int]*domain.Object),
		idem:      flight.New[string, []byte](idemMaxRecords, idemRetention, time.Now),
		reqCounts: make(map[string]*atomic.Int64, len(servedPaths)),
	}
	for _, path := range servedPaths {
		s.reqCounts[path] = new(atomic.Int64)
	}
	return s
}

// NewFaultyServer is NewServer plus seeded request-level fault injection.
func NewFaultyServer(p crowd.Platform, f FaultOptions) *Server {
	s := NewServer(p)
	s.faults = &faultInjector{opts: f}
	return s
}

// InjectedFaults reports how many requests had a fault injected.
func (s *Server) InjectedFaults() int64 {
	if s.faults == nil {
		return 0
	}
	return s.faults.injected.Load()
}

// Handler returns the API's http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathValue, s.wrap(PathValue, s.handleValue))
	mux.HandleFunc(PathDismantle, s.wrap(PathDismantle, s.handleDismantle))
	mux.HandleFunc(PathVerify, s.wrap(PathVerify, s.handleVerify))
	mux.HandleFunc(PathExamples, s.wrap(PathExamples, s.handleExamples))
	mux.HandleFunc(PathCanonical, s.wrap(PathCanonical, s.handleCanonical))
	mux.HandleFunc(PathMeta, s.wrap(PathMeta, s.handleMeta))
	mux.HandleFunc(PathBatch, s.wrap(PathBatch, s.handleBatch))
	mux.HandleFunc(PathPricing, s.wrap(PathPricing, s.handlePricing))
	mux.HandleFunc(PathStats, s.handleStats)
	return mux
}

var errInjectedFault = errors.New("crowdhttp: injected transient fault")

// responseRecorder buffers a handler's response so it can be stored for
// idempotent replay (and dropped by fault injection) before any byte
// reaches the client.
type responseRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *responseRecorder {
	return &responseRecorder{header: make(http.Header), status: http.StatusOK}
}

func (r *responseRecorder) Header() http.Header         { return r.header }
func (r *responseRecorder) WriteHeader(status int)      { r.status = status }
func (r *responseRecorder) Write(b []byte) (int, error) { return r.body.Write(b) }

func (r *responseRecorder) copyTo(w http.ResponseWriter) {
	for k, vs := range r.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(r.status)
	_, _ = w.Write(r.body.Bytes())
}

// wrap applies fault injection and idempotent replay around one handler.
// A request without a key (the pricing GET) executes every time. A fresh
// key executes once and records a successful response before (possibly)
// losing it to an injected drop; a key in flight waits, while its own
// request lives, and replays the response — or executes afresh if that
// execution failed; a recorded key replays at once.
func (s *Server) wrap(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.reqCounts[path].Add(1)
		d := s.faults.next()
		if d.fail {
			writeError(w, http.StatusServiceUnavailable, errInjectedFault)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			writeBodyError(w, err)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var key idemKey
		_ = json.Unmarshal(body, &key)
		var call *flight.Call[string, []byte]
		for key.IdempotencyKey != "" {
			c, st := s.idem.Acquire(key.IdempotencyKey, nil)
			if st == flight.Claimed {
				call = c
				break
			}
			replay, err := c.Wait(r.Context())
			if err == nil {
				s.replayHits.Add(1)
				w.Header().Set("Content-Type", "application/json")
				_, _ = w.Write(replay)
				return
			}
			if r.Context().Err() != nil {
				writeError(w, http.StatusServiceUnavailable, err)
				return
			}
		}
		rec := newRecorder()
		h(rec, r)
		if call != nil {
			if rec.status == http.StatusOK {
				s.idem.Settle(call, append([]byte(nil), rec.body.Bytes()...))
			} else {
				s.idem.Fail(call, fmt.Errorf("crowdhttp: status %d is not replayed", rec.status))
			}
		}
		if d.drop && rec.status == http.StatusOK {
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("%w: response dropped", errInjectedFault))
			return
		}
		rec.copyTo(w)
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// statusFor maps platform errors onto the retryability contract: a
// transient platform failure is 503 (retryable), everything else is a
// terminal 400.
func statusFor(err error) int {
	if errors.Is(err, crowd.ErrTransient) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// maxBodyBytes bounds every request body the servers read, so a client
// cannot make them buffer an unbounded body. A /v1/batch body of
// maxBatchItems items stays under 300 KiB even with every field filled.
const maxBodyBytes = 1 << 20

// writeBodyError answers a request whose body could not be read or
// decoded: 413 naming the bound when the body exceeds maxBodyBytes, 400
// otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("crowdhttp: request body exceeds the %d-byte limit", tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("crowdhttp: bad request body: %w", err))
}

// decode reads a question endpoint's body. wrap has already read it,
// within maxBodyBytes, to find the idempotency key.
func decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("crowdhttp: %s requires POST", r.URL.Path))
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("crowdhttp: bad request body: %w", err))
		return false
	}
	return true
}

func (s *Server) lookupObject(id int) (*domain.Object, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objects[id]
	return o, ok
}

func (s *Server) handleValue(w http.ResponseWriter, r *http.Request) {
	var req valueRequest
	if !decode(w, r, &req) {
		return
	}
	obj, ok := s.lookupObject(req.ObjectID)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("crowdhttp: unknown object %d", req.ObjectID))
		return
	}
	answers, err := s.platform.Value(obj, req.Attribute, req.N)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, valueResponse{Answers: answers})
}

func (s *Server) handleDismantle(w http.ResponseWriter, r *http.Request) {
	var req dismantleRequest
	if !decode(w, r, &req) {
		return
	}
	ans, err := s.platform.Dismantle(req.Attribute)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, dismantleResponse{Answer: ans})
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req verifyRequest
	if !decode(w, r, &req) {
		return
	}
	yes, err := s.platform.Verify(req.Candidate, req.Target)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, verifyResponse{Yes: yes})
}

func (s *Server) handleExamples(w http.ResponseWriter, r *http.Request) {
	var req examplesRequest
	if !decode(w, r, &req) {
		return
	}
	examples, err := s.platform.Examples(req.Targets, req.N)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, examplesResponse{Examples: s.register(examples)})
}

// register makes example objects addressable by id and returns their
// wire form.
func (s *Server) register(examples []crowd.Example) []exampleWire {
	out := make([]exampleWire, len(examples))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, ex := range examples {
		s.objects[ex.Object.ID] = ex.Object
		out[i] = exampleWire{ObjectID: ex.Object.ID, Values: ex.Values}
	}
	return out
}

func (s *Server) handleCanonical(w http.ResponseWriter, r *http.Request) {
	var req canonicalRequest
	if !decode(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, canonicalResponse{Canonical: s.platform.Canonical(req.Name)})
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	var req metaRequest
	if !decode(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, metaResponse{
		Sigma:  s.platform.Sigma(req.Attribute),
		Binary: s.platform.IsBinary(req.Attribute),
	})
}

func (s *Server) handlePricing(w http.ResponseWriter, r *http.Request) {
	p := s.platform.Pricing()
	writeJSON(w, http.StatusOK, pricingResponse{
		BinaryValue:  p.BinaryValue,
		NumericValue: p.NumericValue,
		Dismantling:  p.Dismantling,
		Verification: p.Verification,
		Example:      p.Example,
	})
}

// RegisterObject makes an object the server already owns addressable by
// id (for online-phase evaluation of database objects that did not come
// from example questions).
func (s *Server) RegisterObject(o *domain.Object) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[o.ID] = o
}
