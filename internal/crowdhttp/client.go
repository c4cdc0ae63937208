package crowdhttp

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/flight"
)

// Options configures the client's fault-tolerant transport.
type Options struct {
	// Timeout bounds each individual HTTP attempt (default 30s); a
	// timed-out attempt is retried like a connection failure.
	Timeout time.Duration
	// MaxRetries is how many times a retryable request (connection error,
	// timeout, 5xx, 429, short batch) is re-sent after the first attempt
	// (default 3; negative disables retries).
	MaxRetries int
	// BackoffBase/BackoffMax shape the exponential backoff between
	// retries (defaults 25ms / 2s); each delay carries up to 50% random
	// jitter so synchronized clients do not stampede a recovering server.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BatchWindow is the micro-batching window of ValueBatch: how long
	// enqueued questions may wait for concurrent callers to join the
	// batch before a flush is forced (default 2ms; negative = flush at
	// every enqueue). The window is only an upper bound — a batch
	// flushes immediately once no caller is left preparing questions, so
	// sequential callers never pay it.
	BatchWindow time.Duration
	// MaxBatch caps the questions per /v1/batch request (default 64,
	// server limit 1024); larger batches are split.
	MaxBatch int
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 25 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.BatchWindow == 0 {
		o.BatchWindow = 2 * time.Millisecond
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxBatch > maxBatchItems {
		o.MaxBatch = maxBatchItems
	}
	return o
}

// TransportStats counts the client's transport-level fault handling.
type TransportStats struct {
	// Requests is the number of HTTP attempts sent, including retries.
	Requests int64
	// Retries counts re-sent requests.
	Retries int64
	// TransientErrors counts retryable failures observed (connection
	// errors, timeouts, 5xx, 429).
	TransientErrors int64
	// ShortResponses counts answer/example batches shorter than asked.
	ShortResponses int64
	// Batches counts /v1/batch requests sent; BatchItems counts the
	// questions they carried (BatchItems/Batches is the achieved batch
	// size).
	Batches    int64
	BatchItems int64
	// Coalesced counts ValueBatch calls whose questions joined another
	// caller's in-flight batch instead of opening their own.
	Coalesced int64
}

// Client implements crowd.Platform over the crowdhttp API. It owns the
// budget — every question is charged to the local ledger *before* the
// request is sent — and charging is transactional: the charge is a
// reservation that is committed when the server's answer arrives and
// released (refunded in full) when the request ultimately fails, so a
// flaky network can never leak budget. The local answer/example caches
// guarantee nothing is paid for twice (the same reuse semantics as
// crowd.SimPlatform), and a per-key single-flight lock makes the
// cache-check + charge + fetch sequence atomic per question identity:
// concurrent callers of the same question serialize instead of
// double-charging, while distinct questions proceed in parallel.
//
// The transport retries transient failures (connection errors, timeouts,
// 5xx, 429) with exponential backoff and jitter under a per-request retry
// budget. Every POST carries a client-unique idempotency key that stays
// constant across retries: the server executes each key at most once while
// it retains it (a retry arriving mid-execution waits for the first
// response), so a retry cannot advance a dismantling/verification stream
// twice or double-answer a question. A retry after the server evicted
// the key (see the package doc) is the one case that executes again.
type Client struct {
	base string
	http *http.Client
	opts Options

	// idemBase + idemSeq generate client-unique idempotency keys.
	idemBase string
	idemSeq  atomic.Int64

	// pricingMu guards the cached payment scheme. A failed fetch is not
	// cached (unlike a sync.Once), so a transient blip cannot permanently
	// poison pricing and, with it, every budget computation.
	pricingMu sync.Mutex
	pricing   *crowd.Pricing

	ledger atomic.Pointer[crowd.Ledger]

	// mu guards the answer/example caches; valueKeys and exampleKeys hold
	// their per-key locks (see lockKey).
	mu          sync.Mutex
	values      map[valueKey][]float64
	examples    map[string][]crowd.Example
	valueKeys   *flight.Group[valueKey, struct{}]
	exampleKeys *flight.Group[string, struct{}]

	// metaMu guards the read-mostly metadata caches; lookups take only a
	// read lock so concurrent value questions never serialize on them.
	metaMu sync.RWMutex
	meta   map[string]metaResponse
	canon  map[string]string

	requests       atomic.Int64
	retries        atomic.Int64
	transientErrs  atomic.Int64
	shortResponses atomic.Int64
	batchCount     atomic.Int64
	batchItemCount atomic.Int64
	coalescedCount atomic.Int64

	// batchMu guards the micro-batching coalescer (see coalesce.go).
	batchMu      sync.Mutex
	pending      []*pendingItem
	pendingTimer *time.Timer
	// preparing counts ValueBatch callers between entry and enqueue; the
	// pending batch flushes the moment it drops to zero, so the window
	// timer is only a staleness bound, never the common-case latency.
	preparing int
}

type valueKey struct {
	objID int
	attr  string
}

// NewClient returns a platform speaking to the server at baseURL with
// default transport options. The httpClient may be nil
// (http.DefaultClient is used). The initial ledger is unlimited; callers
// install budget limits with SetLedger.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	return NewClientWithOptions(baseURL, httpClient, Options{})
}

// NewClientWithOptions is NewClient with explicit retry/timeout options.
func NewClientWithOptions(baseURL string, httpClient *http.Client, opts Options) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{
		base:        strings.TrimRight(baseURL, "/"),
		http:        httpClient,
		opts:        opts.withDefaults(),
		idemBase:    newIdemBase(),
		values:      make(map[valueKey][]float64),
		examples:    make(map[string][]crowd.Example),
		valueKeys:   flight.New[valueKey, struct{}](0, 0, nil),
		exampleKeys: flight.New[string, struct{}](0, 0, nil),
		meta:        make(map[string]metaResponse),
		canon:       make(map[string]string),
	}
	c.ledger.Store(crowd.NewLedger(0))
	return c
}

// newIdemBase returns a random prefix making this client's idempotency
// keys unique across client instances sharing one server.
func newIdemBase() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

func (c *Client) nextIdemKey() string {
	return fmt.Sprintf("%s-%d", c.idemBase, c.idemSeq.Add(1))
}

// TransportStats implements a snapshot of the transport counters.
func (c *Client) TransportStats() TransportStats {
	return TransportStats{
		Requests:        c.requests.Load(),
		Retries:         c.retries.Load(),
		TransientErrors: c.transientErrs.Load(),
		ShortResponses:  c.shortResponses.Load(),
		Batches:         c.batchCount.Load(),
		BatchItems:      c.batchItemCount.Load(),
		Coalesced:       c.coalescedCount.Load(),
	}
}

// RequestCount implements crowd.RequestReporter: the number of HTTP
// attempts this client has sent (including retries). core.Preprocess
// reads deltas of it to report per-phase wire round trips, which is how
// the phase trace proves the batching win.
func (c *Client) RequestCount() int64 {
	return c.requests.Load()
}

// FaultStats implements crowd.FaultReporter, mapping the transport
// counters onto the shared fault-accounting shape.
func (c *Client) FaultStats() crowd.FaultStats {
	return crowd.FaultStats{
		Questions:      c.requests.Load(),
		InjectedErrors: c.transientErrs.Load(),
		InjectedShorts: c.shortResponses.Load(),
		Retries:        c.retries.Load(),
	}
}

// post sends one logical JSON request, retrying transient failures with
// exponential backoff and jitter. The idempotency key is generated once
// and reused across retries, so the server executes the question at most
// once and replays the recorded response to late retries.
func (c *Client) post(path string, req wireRequest, resp interface{}) error {
	req.setIdempotencyKey(c.nextIdemKey())
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.roundTrip(http.MethodPost, path, body, resp)
}

// get is the retrying GET counterpart of post (used for /v1/pricing).
func (c *Client) get(path string, resp interface{}) error {
	return c.roundTrip(http.MethodGet, path, nil, resp)
}

func (c *Client) roundTrip(method, path string, body []byte, resp interface{}) error {
	backoff := c.opts.BackoffBase
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			time.Sleep(jittered(backoff))
			if backoff *= 2; backoff > c.opts.BackoffMax {
				backoff = c.opts.BackoffMax
			}
		}
		err, retry := c.attempt(method, path, body, resp)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retry {
			return err
		}
		c.transientErrs.Add(1)
	}
	return fmt.Errorf("crowdhttp: %s: retry budget (%d) exhausted: %w", path, c.opts.MaxRetries, lastErr)
}

// jittered adds up to 50% random delay so retrying clients spread out.
func jittered(d time.Duration) time.Duration {
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// attempt performs one HTTP exchange and classifies the failure:
// connection errors, timeouts, 5xx and 429 are retryable; any other
// non-200 status (bad request, unknown object) is terminal.
func (c *Client) attempt(method, path string, body []byte, resp interface{}) (error, bool) {
	c.requests.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err, false
	}
	req.Header.Set("Content-Type", "application/json")
	r, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("crowdhttp: %s: %w", path, err), true
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return fmt.Errorf("crowdhttp: %s: reading response: %w", path, err), true
	}
	if r.StatusCode != http.StatusOK {
		retry := r.StatusCode >= 500 || r.StatusCode == http.StatusTooManyRequests
		var er errorResponse
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			return fmt.Errorf("crowdhttp: %s: %s", path, er.Error), retry
		}
		return fmt.Errorf("crowdhttp: %s: status %d", path, r.StatusCode), retry
	}
	if err := json.Unmarshal(data, resp); err != nil {
		// A truncated/corrupted 200 body is a transport fault, not a
		// protocol disagreement: retry it.
		return fmt.Errorf("crowdhttp: %s: decoding response: %w", path, err), true
	}
	return nil, false
}

// fetchPricing loads and caches the server's payment scheme; only a
// successful fetch is cached.
func (c *Client) fetchPricing() (crowd.Pricing, error) {
	c.pricingMu.Lock()
	defer c.pricingMu.Unlock()
	if c.pricing != nil {
		return *c.pricing, nil
	}
	var pr pricingResponse
	if err := c.get(PathPricing, &pr); err != nil {
		return crowd.Pricing{}, err
	}
	p := crowd.Pricing{
		BinaryValue:  pr.BinaryValue,
		NumericValue: pr.NumericValue,
		Dismantling:  pr.Dismantling,
		Verification: pr.Verification,
		Example:      pr.Example,
	}
	c.pricing = &p
	return p, nil
}

// metaOf fetches (and caches) attribute metadata.
func (c *Client) metaOf(attr string) (metaResponse, error) {
	c.metaMu.RLock()
	m, ok := c.meta[attr]
	c.metaMu.RUnlock()
	if ok {
		return m, nil
	}
	if err := c.post(PathMeta, &metaRequest{Attribute: attr}, &m); err != nil {
		return metaResponse{}, err
	}
	c.metaMu.Lock()
	c.meta[attr] = m
	c.metaMu.Unlock()
	return m, nil
}

// canonicalName resolves (and caches) the server-canonical form of an
// attribute name, surfacing transport failures instead of silently
// falling back: the value/example cache keys must agree with the server's
// canonical names, and a transient blip answered with the raw name would
// desynchronize them. Only a definitive 200 response is cached — the
// server answers unknown names with the identity, which is the one
// legitimate fallback.
func (c *Client) canonicalName(name string) (string, error) {
	c.metaMu.RLock()
	canon, ok := c.canon[name]
	c.metaMu.RUnlock()
	if ok {
		return canon, nil
	}
	var resp canonicalResponse
	if err := c.post(PathCanonical, &canonicalRequest{Name: name}, &resp); err != nil {
		return "", err
	}
	c.metaMu.Lock()
	c.canon[name] = resp.Canonical
	c.metaMu.Unlock()
	return resp.Canonical, nil
}

// lockKey claims k in a group retaining nothing, waiting out its holder,
// and returns the release; a caller that waited re-checks the cache.
func lockKey[K comparable](g *flight.Group[K, struct{}], k K) func() {
	for {
		c, st := g.Acquire(k, nil)
		if st == flight.Claimed {
			return func() { g.Settle(c, struct{}{}) }
		}
		_, _ = c.Wait(context.TODO()) // crowd.Platform calls carry no ctx
	}
}

// Value implements crowd.Platform: local cache first, then charge the
// ledger for the missing answers and fetch the full prefix remotely. The
// per-key lock makes cache-check + charge + fetch one critical section,
// so two concurrent callers of the same question never both pay; the
// reservation is released (refunded) if the request fails.
func (c *Client) Value(o *domain.Object, attr string, n int) ([]float64, error) {
	if o == nil {
		return nil, errors.New("crowdhttp: nil object")
	}
	if n < 0 {
		return nil, fmt.Errorf("crowdhttp: negative answer count %d", n)
	}
	canon, err := c.canonicalName(attr)
	if err != nil {
		return nil, fmt.Errorf("crowdhttp: canonicalizing %q: %w", attr, err)
	}
	key := valueKey{objID: o.ID, attr: canon}

	unlock := lockKey(c.valueKeys, key)
	defer unlock()

	c.mu.Lock()
	cached := len(c.values[key])
	c.mu.Unlock()
	if cached < n {
		pricing, err := c.fetchPricing()
		if err != nil {
			return nil, err
		}
		m, err := c.metaOf(canon)
		if err != nil {
			return nil, err
		}
		price := pricing.NumericValue
		kind := crowd.NumericValue
		if m.Binary {
			price = pricing.BinaryValue
			kind = crowd.BinaryValue
		}
		// Reserve exactly the new answers before asking; a failed request
		// returns the reservation, so Spent() only ever reflects answers
		// that actually arrived.
		res, err := c.ledgerRef().Reserve(kind, price, n-cached)
		if err != nil {
			return nil, err
		}
		resp, err := c.fetchValues(o.ID, canon, n)
		if err != nil {
			res.Release()
			return nil, err
		}
		// Copy out of the decoded body: aliasing resp.Answers would pin
		// the whole decoded slice for the cache's lifetime.
		vals := make([]float64, n)
		copy(vals, resp.Answers[:n])
		c.mu.Lock()
		c.values[key] = vals
		c.mu.Unlock()
		res.Commit()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, n)
	copy(out, c.values[key][:n])
	return out, nil
}

// fetchValues POSTs the value question until the answer batch is full.
func (c *Client) fetchValues(objID int, canon string, n int) (valueResponse, error) {
	return postFull(c, PathValue, &valueRequest{ObjectID: objID, Attribute: canon, N: n}, n,
		func(r *valueResponse) int { return len(r.Answers) })
}

// postFull POSTs req until its response holds n results, as size counts
// them. A short response is re-asked under a fresh idempotency key (the
// old key would replay the same short body); re-executing is safe because
// the server memoizes value answers and example streams.
func postFull[R any](c *Client, path string, req wireRequest, n int, size func(*R) int) (R, error) {
	for attempt := 0; ; attempt++ {
		var resp R
		if err := c.post(path, req, &resp); err != nil {
			return resp, err
		}
		got := size(&resp)
		if got >= n {
			return resp, nil
		}
		c.shortResponses.Add(1)
		if attempt >= c.opts.MaxRetries {
			return resp, fmt.Errorf("crowdhttp: server returned %d of %d results (after %d attempts)", got, n, attempt+1)
		}
		c.retries.Add(1)
	}
}

// Dismantle implements crowd.Platform with transactional charging.
func (c *Client) Dismantle(attr string) (string, error) {
	pricing, err := c.fetchPricing()
	if err != nil {
		return "", err
	}
	res, err := c.ledgerRef().Reserve(crowd.Dismantling, pricing.Dismantling, 1)
	if err != nil {
		return "", err
	}
	var resp dismantleResponse
	if err := c.post(PathDismantle, &dismantleRequest{Attribute: attr}, &resp); err != nil {
		res.Release()
		return "", err
	}
	res.Commit()
	return resp.Answer, nil
}

// Verify implements crowd.Platform with transactional charging.
func (c *Client) Verify(candidate, target string) (bool, error) {
	pricing, err := c.fetchPricing()
	if err != nil {
		return false, err
	}
	res, err := c.ledgerRef().Reserve(crowd.Verification, pricing.Verification, 1)
	if err != nil {
		return false, err
	}
	var resp verifyResponse
	if err := c.post(PathVerify, &verifyRequest{Candidate: candidate, Target: target}, &resp); err != nil {
		res.Release()
		return false, err
	}
	res.Commit()
	return resp.Yes, nil
}

// Examples implements crowd.Platform with the same stream-prefix reuse as
// the simulator: only examples beyond the locally cached prefix are
// charged and fetched, under the same single-flight + reservation
// discipline as Value.
func (c *Client) Examples(targets []string, n int) ([]crowd.Example, error) {
	if n < 0 {
		return nil, fmt.Errorf("crowdhttp: negative example count %d", n)
	}
	if len(targets) == 0 {
		return nil, errors.New("crowdhttp: example question needs targets")
	}
	canon := make([]string, len(targets))
	for i, t := range targets {
		ct, err := c.canonicalName(t)
		if err != nil {
			return nil, fmt.Errorf("crowdhttp: canonicalizing %q: %w", t, err)
		}
		canon[i] = ct
	}
	sorted := append([]string(nil), canon...)
	sort.Strings(sorted)
	streamKey := strings.Join(sorted, "\x00")

	unlock := lockKey(c.exampleKeys, streamKey)
	defer unlock()

	c.mu.Lock()
	cached := len(c.examples[streamKey])
	c.mu.Unlock()
	if cached < n {
		pricing, err := c.fetchPricing()
		if err != nil {
			return nil, err
		}
		res, err := c.ledgerRef().Reserve(crowd.ExampleQuestion, pricing.Example, n-cached)
		if err != nil {
			return nil, err
		}
		resp, err := postFull(c, PathExamples, &examplesRequest{Targets: canon, N: n}, n,
			func(r *examplesResponse) int { return len(r.Examples) })
		if err != nil {
			res.Release()
			return nil, err
		}
		// Right-sized copy: never alias the decoded response slice.
		stream := make([]crowd.Example, n)
		for i, ex := range resp.Examples[:n] {
			stream[i] = crowd.Example{Object: domain.RefObject(ex.ObjectID), Values: ex.Values}
		}
		c.mu.Lock()
		c.examples[streamKey] = stream
		c.mu.Unlock()
		res.Commit()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]crowd.Example, n)
	copy(out, c.examples[streamKey][:n])
	return out, nil
}

// Canonical implements crowd.Platform. The interface offers no error
// path, so when the transport retries are exhausted it degrades to the
// raw name WITHOUT caching it — the next call retries the server instead
// of pinning a desynchronized key. Internal users (Value, Examples,
// metadata) call canonicalName and surface the transport error instead.
func (c *Client) Canonical(name string) string {
	canon, err := c.canonicalName(name)
	if err != nil {
		return name
	}
	return canon
}

// Sigma implements crowd.Platform.
func (c *Client) Sigma(attr string) float64 {
	canon, err := c.canonicalName(attr)
	if err != nil {
		return 1
	}
	m, err := c.metaOf(canon)
	if err != nil {
		return 1
	}
	return m.Sigma
}

// IsBinary implements crowd.Platform.
func (c *Client) IsBinary(attr string) bool {
	canon, err := c.canonicalName(attr)
	if err != nil {
		return false
	}
	m, err := c.metaOf(canon)
	return err == nil && m.Binary
}

// Pricing implements crowd.Platform. It returns the zero value until the
// first successful fetch; the pipeline always issues a charging call
// (which fetches) before consulting Pricing.
func (c *Client) Pricing() crowd.Pricing {
	p, err := c.fetchPricing()
	if err != nil {
		return crowd.Pricing{}
	}
	return p
}

// Ledger implements crowd.Platform.
func (c *Client) Ledger() *crowd.Ledger { return c.ledgerRef() }

func (c *Client) ledgerRef() *crowd.Ledger {
	return c.ledger.Load()
}

// SetLedger implements crowd.Platform.
func (c *Client) SetLedger(l *crowd.Ledger) *crowd.Ledger {
	return c.ledger.Swap(l)
}
