package crowdhttp

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/crowd"
)

// maxBatchItems bounds one /v1/batch request, so a misbehaving client
// cannot make the server buffer an unbounded response.
const maxBatchItems = 1024

// Batch wire types. A batch is a list of heterogeneous question items;
// the response carries one result-or-error per item, in item order, so a
// partially failed batch still delivers every answer that was computed.
type (
	// batchItem is one question of a batch. Kind selects the question
	// type ("value", "examples", "meta", "canonical") and which of the
	// remaining fields apply; the field meanings match the corresponding
	// single-question endpoints. Dismantle/verify are deliberately not
	// batchable: their stream semantics drive the sequential discovery
	// loop and gain nothing from coalescing.
	batchItem struct {
		Kind      string   `json:"kind"`
		ObjectID  int      `json:"object_id,omitempty"`
		Attribute string   `json:"attribute,omitempty"`
		N         int      `json:"n,omitempty"`
		Targets   []string `json:"targets,omitempty"`
		Name      string   `json:"name,omitempty"`
	}
	batchRequest struct {
		idemKey
		Items []batchItem `json:"items"`
	}
	// batchItemResult is exactly one of: an error (with its retryability
	// classification, mirroring statusFor), or the payload of the item's
	// kind.
	batchItemResult struct {
		Error     string        `json:"error,omitempty"`
		Transient bool          `json:"transient,omitempty"`
		Answers   []float64     `json:"answers,omitempty"`
		Examples  []exampleWire `json:"examples,omitempty"`
		Meta      *metaResponse `json:"meta,omitempty"`
		Canonical string        `json:"canonical,omitempty"`
	}
	batchResponse struct {
		Items []batchItemResult `json:"items"`
	}
)

// handleBatch executes a heterogeneous question batch. Items run
// concurrently on the shared computation pool; each item's failure is
// reported in its slot rather than failing the batch, so one bad item
// cannot discard its siblings' (already charged) answers. The response
// is always 200 unless the request itself is malformed, so wrap records
// the whole batch under its idempotency key and a retried batch replays
// it whole: no item executes twice.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("crowdhttp: empty batch"))
		return
	}
	if len(req.Items) > maxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("crowdhttp: batch of %d items exceeds limit %d", len(req.Items), maxBatchItems))
		return
	}
	s.batches.Add(1)
	s.batchItemCount.Add(int64(len(req.Items)))

	results := make([]batchItemResult, len(req.Items))
	core.ForEach(len(req.Items), 0, func(i int) {
		results[i] = s.executeItem(req.Items[i])
	})
	writeJSON(w, http.StatusOK, batchResponse{Items: results})
}

// executeItem runs one batch item against the platform, classifying
// failures with the same transient-vs-terminal contract statusFor gives
// the single-question endpoints.
func (s *Server) executeItem(it batchItem) batchItemResult {
	fail := func(err error) batchItemResult {
		return batchItemResult{Error: err.Error(), Transient: errors.Is(err, crowd.ErrTransient)}
	}
	switch it.Kind {
	case "value":
		obj, ok := s.lookupObject(it.ObjectID)
		if !ok {
			return fail(fmt.Errorf("crowdhttp: unknown object %d", it.ObjectID))
		}
		answers, err := s.platform.Value(obj, it.Attribute, it.N)
		if err != nil {
			return fail(err)
		}
		return batchItemResult{Answers: answers}
	case "examples":
		examples, err := s.platform.Examples(it.Targets, it.N)
		if err != nil {
			return fail(err)
		}
		return batchItemResult{Examples: s.register(examples)}
	case "meta":
		return batchItemResult{Meta: &metaResponse{
			Sigma:  s.platform.Sigma(it.Attribute),
			Binary: s.platform.IsBinary(it.Attribute),
		}}
	case "canonical":
		return batchItemResult{Canonical: s.platform.Canonical(it.Name)}
	default:
		return fail(fmt.Errorf("crowdhttp: unknown batch item kind %q", it.Kind))
	}
}

// ServerStats is the observability snapshot served at /v1/stats.
type ServerStats struct {
	// Requests counts HTTP requests per endpoint path (including replays
	// and fault-rejected ones).
	Requests map[string]int64 `json:"requests"`
	// ReplayHits counts requests answered from the idempotency table
	// (recorded, or awaited in flight) without touching the platform.
	ReplayHits int64 `json:"replay_hits"`
	// Batches/BatchItems count /v1/batch requests and the items they
	// carried.
	Batches    int64 `json:"batches"`
	BatchItems int64 `json:"batch_items"`
	// InjectedFaults counts request-level fault injections (faulty
	// servers only).
	InjectedFaults int64 `json:"injected_faults"`
	// RegisteredObjects and IdemRecords (≤ idemMaxRecords) size the
	// server's two registries.
	RegisteredObjects int `json:"registered_objects"`
	IdemRecords       int `json:"idem_records"`
}

// Stats returns the current observability counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Requests:       make(map[string]int64, len(s.reqCounts)),
		ReplayHits:     s.replayHits.Load(),
		Batches:        s.batches.Load(),
		BatchItems:     s.batchItemCount.Load(),
		InjectedFaults: s.InjectedFaults(),
	}
	for path, n := range s.reqCounts {
		st.Requests[path] = n.Load()
	}
	s.mu.RLock()
	st.RegisteredObjects = len(s.objects)
	s.mu.RUnlock()
	st.IdemRecords = s.idem.Stats().Retained
	return st
}

// handleStats serves the counters. It is exempt from fault injection and
// replay — an operator diagnosing a flaky deployment needs it to answer.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.reqCounts[PathStats].Add(1)
	writeJSON(w, http.StatusOK, s.Stats())
}
