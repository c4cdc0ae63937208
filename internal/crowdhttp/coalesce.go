package crowdhttp

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/crowd"
	"repro/internal/domain"
)

// pendingItem is one question waiting in the coalescer. The outcome
// channel is buffered, so the flusher never blocks on a consumer.
type pendingItem struct {
	item batchItem
	done chan batchOutcome
}

// batchOutcome is what a flushed item resolves to: the item's wire
// result, or the transport error that failed its whole batch request.
type batchOutcome struct {
	res batchItemResult
	err error
}

// batchEnter announces a ValueBatch caller that may enqueue questions.
// Pending flushes are held back while any caller is still preparing, so
// concurrent callers (EvaluateBatch fans objects out in parallel) land in
// one request instead of one each.
func (c *Client) batchEnter() {
	c.batchMu.Lock()
	c.preparing++
	c.batchMu.Unlock()
}

// batchLeave retires a caller announced by batchEnter. The last one out
// flushes whatever is pending — this, not the window timer, is the
// common-case flush trigger, which is why a strictly sequential caller
// pays no batching latency at all.
func (c *Client) batchLeave() {
	c.batchMu.Lock()
	c.preparing--
	var toSend []*pendingItem
	if c.preparing <= 0 && len(c.pending) > 0 {
		toSend = c.takePendingLocked()
	}
	c.batchMu.Unlock()
	c.sendBatch(toSend)
}

// enqueueBatch adds a caller's questions to the pending batch. The batch
// is flushed inline when micro-batching is disabled or the batch is full;
// otherwise the window timer is armed as the staleness bound for the
// case where every remaining caller stalls before its batchLeave.
func (c *Client) enqueueBatch(items []*pendingItem) {
	c.batchMu.Lock()
	if len(c.pending) > 0 {
		c.coalescedCount.Add(1)
	}
	c.pending = append(c.pending, items...)
	var toSend []*pendingItem
	if c.opts.BatchWindow < 0 || len(c.pending) >= c.opts.MaxBatch {
		toSend = c.takePendingLocked()
	} else if c.pendingTimer == nil {
		c.pendingTimer = time.AfterFunc(c.opts.BatchWindow, c.flushPending)
	}
	c.batchMu.Unlock()
	c.sendBatch(toSend)
}

// takePendingLocked claims the pending batch and disarms the timer; the
// caller must hold batchMu and send what it gets.
func (c *Client) takePendingLocked() []*pendingItem {
	toSend := c.pending
	c.pending = nil
	if c.pendingTimer != nil {
		c.pendingTimer.Stop()
		c.pendingTimer = nil
	}
	return toSend
}

// flushPending is the window-timer callback.
func (c *Client) flushPending() {
	c.batchMu.Lock()
	c.pendingTimer = nil
	toSend := c.pending
	c.pending = nil
	c.batchMu.Unlock()
	c.sendBatch(toSend)
}

// sendBatch posts the items as /v1/batch requests (split at MaxBatch) and
// fans the per-item results back out. Each request goes through the
// retrying transport under one idempotency key, so a retried batch
// replays server-side instead of re-executing.
func (c *Client) sendBatch(items []*pendingItem) {
	for start := 0; start < len(items); start += c.opts.MaxBatch {
		end := start + c.opts.MaxBatch
		if end > len(items) {
			end = len(items)
		}
		chunk := items[start:end]
		req := &batchRequest{Items: make([]batchItem, len(chunk))}
		for i, it := range chunk {
			req.Items[i] = it.item
		}
		c.batchCount.Add(1)
		c.batchItemCount.Add(int64(len(chunk)))
		var resp batchResponse
		err := c.post(PathBatch, req, &resp)
		if err == nil && len(resp.Items) != len(chunk) {
			err = fmt.Errorf("crowdhttp: %s returned %d results, want %d", PathBatch, len(resp.Items), len(chunk))
		}
		for i, it := range chunk {
			if err != nil {
				it.done <- batchOutcome{err: err}
			} else {
				it.done <- batchOutcome{res: resp.Items[i]}
			}
		}
	}
}

// ValueBatch implements crowd.ValueBatcher: answer every question about
// one object in (at most) one round trip. It is the single-object form
// of ValueBatchMulti.
func (c *Client) ValueBatch(o *domain.Object, qs []crowd.ValueQuestion) ([][]float64, error) {
	if o == nil {
		return nil, errors.New("crowdhttp: nil object")
	}
	mqs := make([]crowd.ObjectValueQuestion, len(qs))
	for i, q := range qs {
		mqs[i] = crowd.ObjectValueQuestion{Object: o, Attr: q.Attr, N: q.N}
	}
	return c.ValueBatchMulti(mqs)
}

// ValueBatchMulti implements crowd.MultiValueBatcher: answer value
// questions spanning many objects in (at most) one round trip, with the
// same caching, single-flight and transactional-charging guarantees as
// len(qs) Value calls — and byte-identical answers, since the server
// memoizes per question identity either way. This is the shape of
// statistics collection (one attribute × a whole example stream), which
// it collapses from one request per example to one request per stream.
//
// The call locks every distinct question key in sorted order (Value holds
// one key at a time, so ordered acquisition cannot deadlock against it),
// reserves the cost of every cache-missing answer up front, and enqueues
// the missing questions into the coalescer, where concurrent callers'
// questions merge into shared requests. Per-item transient failures and
// short answer batches fall back to the single-question path (fresh
// idempotency keys, its own retry budget); any terminal failure releases
// the whole reservation and fails the call, like Value.
func (c *Client) ValueBatchMulti(qs []crowd.ObjectValueQuestion) ([][]float64, error) {
	for _, q := range qs {
		if q.Object == nil {
			return nil, errors.New("crowdhttp: nil object")
		}
		if q.N < 0 {
			return nil, fmt.Errorf("crowdhttp: negative answer count %d", q.N)
		}
	}
	if len(qs) == 0 {
		return [][]float64{}, nil
	}

	c.batchEnter()
	preparing := true
	defer func() {
		if preparing {
			c.batchLeave()
		}
	}()

	canon := make([]string, len(qs))
	for i, q := range qs {
		ct, err := c.canonicalName(q.Attr)
		if err != nil {
			return nil, fmt.Errorf("crowdhttp: canonicalizing %q: %w", q.Attr, err)
		}
		canon[i] = ct
	}
	// Distinct question keys with the longest prefix each needs.
	need := make(map[valueKey]int, len(qs))
	for i, q := range qs {
		k := valueKey{objID: q.Object.ID, attr: canon[i]}
		if q.N > need[k] {
			need[k] = q.N
		}
	}
	keys := make([]valueKey, 0, len(need))
	for k := range need {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].objID != keys[j].objID {
			return keys[i].objID < keys[j].objID
		}
		return keys[i].attr < keys[j].attr
	})

	unlocks := make([]func(), 0, len(keys))
	defer func() {
		for i := len(unlocks) - 1; i >= 0; i-- {
			unlocks[i]()
		}
	}()
	for _, k := range keys {
		unlocks = append(unlocks, lockKey(c.valueKeys, k))
	}

	c.mu.Lock()
	cachedLen := make(map[valueKey]int, len(keys))
	for _, k := range keys {
		cachedLen[k] = len(c.values[k])
	}
	c.mu.Unlock()
	type missing struct {
		key valueKey
		n   int
	}
	var miss []missing
	for _, k := range keys {
		if cachedLen[k] < need[k] {
			miss = append(miss, missing{key: k, n: need[k]})
		}
	}

	if len(miss) > 0 {
		pricing, err := c.fetchPricing()
		if err != nil {
			return nil, err
		}
		// Reserve every missing answer before asking, one reservation per
		// question kind; all-or-nothing, released in full on failure.
		var nBinary, nNumeric int
		for _, m := range miss {
			meta, err := c.metaOf(m.key.attr)
			if err != nil {
				return nil, err
			}
			if meta.Binary {
				nBinary += m.n - cachedLen[m.key]
			} else {
				nNumeric += m.n - cachedLen[m.key]
			}
		}
		var resBin, resNum *crowd.Reservation
		if nBinary > 0 {
			if resBin, err = c.ledgerRef().Reserve(crowd.BinaryValue, pricing.BinaryValue, nBinary); err != nil {
				return nil, err
			}
		}
		if nNumeric > 0 {
			if resNum, err = c.ledgerRef().Reserve(crowd.NumericValue, pricing.NumericValue, nNumeric); err != nil {
				resBin.Release()
				return nil, err
			}
		}

		items := make([]*pendingItem, len(miss))
		for i, m := range miss {
			items[i] = &pendingItem{
				item: batchItem{Kind: "value", ObjectID: m.key.objID, Attribute: m.key.attr, N: m.n},
				done: make(chan batchOutcome, 1),
			}
		}
		c.enqueueBatch(items)
		preparing = false
		c.batchLeave()

		fetched := make(map[valueKey][]float64, len(miss))
		var termErr error
		for i, it := range items {
			out := <-it.done
			if termErr != nil {
				continue // outcome channels are buffered; no need to process
			}
			m := miss[i]
			switch {
			case out.err != nil:
				termErr = out.err
			case out.res.Error != "" && !out.res.Transient:
				termErr = fmt.Errorf("crowdhttp: %s: %s", PathBatch, out.res.Error)
			case out.res.Error != "" || len(out.res.Answers) < m.n:
				// A transiently failed or short item re-asks alone; the
				// server's answer memoization makes that a cheap replay
				// of whatever did execute.
				if out.res.Error != "" {
					c.transientErrs.Add(1)
				} else {
					c.shortResponses.Add(1)
				}
				resp, err := c.fetchValues(m.key.objID, m.key.attr, m.n)
				if err != nil {
					termErr = err
					continue
				}
				fetched[m.key] = resp.Answers[:m.n]
			default:
				fetched[m.key] = out.res.Answers[:m.n]
			}
		}
		if termErr != nil {
			resBin.Release()
			resNum.Release()
			return nil, termErr
		}
		c.mu.Lock()
		for k, ans := range fetched {
			// Right-sized copy, never aliasing the decoded response.
			vals := make([]float64, len(ans))
			copy(vals, ans)
			c.values[k] = vals
		}
		c.mu.Unlock()
		resBin.Commit()
		resNum.Commit()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]float64, len(qs))
	for i, q := range qs {
		vals := c.values[valueKey{objID: q.Object.ID, attr: canon[i]}]
		out[i] = make([]float64, q.N)
		copy(out[i], vals[:q.N])
	}
	return out, nil
}
