package crowdhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"repro/internal/serve"
)

// Query-API endpoints: POST PathServeQuery executes one statement
// through a serve.Tier living in the server process, GET PathServeStats
// snapshots the tier's counters. Unlike the question-level endpoints
// (PathValue etc.), which move individual crowd questions across the
// wire so the *client* runs the pipeline, the query API moves whole
// queries: the server owns planning, caching, routing and budgets, and
// the client is a thin Executor — the deployment shape of a shared
// multi-tenant service. A query body is serve.Request's JSON form and a
// reply is serve.Result's.
const (
	PathServeQuery = "/v1/serve/query"
	PathServeStats = "/v1/serve/stats"
)

// QueryServer adapts a serve.Tier to the query API.
type QueryServer struct {
	tier    *serve.Tier
	queries atomic.Int64
}

// NewQueryServer wraps a tier.
func NewQueryServer(t *serve.Tier) *QueryServer { return &QueryServer{tier: t} }

// Register mounts the query API on an existing mux, so it can share an
// address with the question-level API.
func (s *QueryServer) Register(mux *http.ServeMux) {
	mux.HandleFunc(PathServeQuery, s.handleQuery)
	mux.HandleFunc(PathServeStats, s.handleStats)
}

// Handler returns a standalone handler serving only the query API.
func (s *QueryServer) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

// Queries reports how many query sessions the server has accepted.
func (s *QueryServer) Queries() int64 { return s.queries.Load() }

func (s *QueryServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("crowdhttp: %s requires POST", r.URL.Path))
		return
	}
	var req serve.Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeBodyError(w, err)
		return
	}
	s.queries.Add(1)
	res, err := s.tier.Execute(r.Context(), req)
	if err != nil {
		writeError(w, queryStatusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// queryStatusFor maps a tier error onto HTTP: admission sheds are 429
// (the one retryable-after-backoff case), everything else — parse
// errors, unknown or repeated objects, budget exhaustion — is a
// terminal 400.
func queryStatusFor(err error) int {
	if errors.Is(err, serve.ErrRejected) {
		return http.StatusTooManyRequests
	}
	return http.StatusBadRequest
}

func (s *QueryServer) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.tier.Stats())
}

// QueryClient runs queries against a remote QueryServer. It implements
// serve.Executor, so serve.RunLoad and serve.MeasureCacheGain drive a
// remote tier exactly as they drive an in-process one.
type QueryClient struct {
	base string
	http *http.Client
}

// NewQueryClient targets a server at base (e.g. "http://127.0.0.1:8080").
// A nil httpClient uses http.DefaultClient.
func NewQueryClient(base string, httpClient *http.Client) *QueryClient {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &QueryClient{base: base, http: httpClient}
}

// Execute implements serve.Executor over the wire.
func (c *QueryClient) Execute(ctx context.Context, req serve.Request) (*serve.Result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+PathServeQuery, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeQueryError(resp)
	}
	var res serve.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("crowdhttp: decoding query response: %w", err)
	}
	return &res, nil
}

// Stats fetches the remote tier's counters.
func (c *QueryClient) Stats(ctx context.Context) (*serve.Stats, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathServeStats, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeQueryError(resp)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("crowdhttp: decoding stats: %w", err)
	}
	return &st, nil
}

// decodeQueryError reconstructs the tier error, restoring the
// serve.ErrRejected identity so callers (and RunLoad's shed accounting)
// can errors.Is through the wire.
func decodeQueryError(resp *http.Response) error {
	var e errorResponse
	msg := resp.Status
	if body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); err == nil {
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			msg = e.Error
		}
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return fmt.Errorf("crowdhttp: %s: %w", msg, serve.ErrRejected)
	}
	return fmt.Errorf("crowdhttp: query failed (%d): %s", resp.StatusCode, msg)
}
