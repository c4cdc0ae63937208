package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/query"
)

// shardOutcome is one shard's contribution to a scattered session.
type shardOutcome struct {
	rows       []query.ResultRow
	spent      crowd.Cost
	asked      int64
	saved      int64
	pruned     int64
	skipped    int64
	reused     int64
	savedMills int64
}

// session is the one evaluation path of Tier.Execute, for every shard
// count S ≥ 1: one plan build (or cache hit) serves every shard, the
// partitioner splits the evaluation set by object ID, and each shard runs
// the compiled online evaluation on a private session of its backend.
// Shards partition objects, never answers: every (object, attribute)
// answer stream is consumed by exactly one shard from cursor zero, so
// per-object estimates are bit-equal at every S and the summed online
// spend matches to the mill. At S = 1 the lone shard holds the whole set
// in evaluation order and runs on the calling goroutine.
//
// Determinism caveat: shards are spread over the backends starting at
// the plan's home, so with several backends the estimates are bit-equal
// only when the backends are replicas (same simulator seed over the same
// universe) — which is how disq-serve configures a sharded tier.
func (t *Tier) session(ctx context.Context, req Request, st *query.Statement, objs []*domain.Object,
	bObj, bPrc crowd.Cost, key string, shards int, cm *classMetrics, start time.Time) (*Result, error) {
	// Route, then build (or fetch) the one shard-independent plan on its
	// home backend. The build session is released before evaluation, and
	// a session that joins another's build waits holding none: no path
	// holds a backend session while it waits for a plan, so on a
	// mutex-serialized backend nothing blocks the session a build needs.
	plan, idx, hit, err := t.cache.getOrBuild(ctx, key, t.picker(key), func(idx int) (*core.Plan, error) {
		b := t.backends[idx]
		b.load.startBuild()
		defer b.load.endBuild()
		buildSess := b.acquire()
		defer buildSess.release()
		return core.Preprocess(buildSess.platform, st.Query(), bObj, bPrc, t.opts)
	})
	if err != nil {
		return nil, err
	}
	if hit {
		cm.cacheHits.Add(1)
	} else {
		cm.cacheMisses.Add(1)
	}

	// One shared memo serves every shard: the replicas' deterministic
	// answer streams make a mean cached by one shard bit-identical to
	// what any other would have bought, so overlapping evaluation sets
	// across sessions stop being re-purchased per replica.
	var memo query.AnswerMemo
	if t.reuseOn(req) {
		memo = t.answers.memoFor(ctx, t.domain)
	}
	planQs := 0
	if qs, qerr := plan.Questions(); qerr == nil {
		planQs = len(qs)
	}

	// Scatter: shard s runs on the backends round-robin from the plan's
	// home (shard 0 reuses the answers the build memoized there). With
	// several shards, one goroutine per non-empty shard — plain
	// goroutines, not the shared worker pool: the shards are
	// latency-bound (each blocks on crowd round trips), so they must
	// overlap even on a single-slot pool host.
	outs := make([]shardOutcome, shards)
	errs := make([]error, shards)
	run := func(s int, shardObjs []*domain.Object) {
		sb := t.backends[(idx+s)%len(t.backends)]
		outs[s], errs[s] = t.runShard(sb, plan, st, shardObjs, planQs, req, memo)
	}
	if shards == 1 {
		run(0, objs)
	} else {
		var wg sync.WaitGroup
		for s, part := range t.partitioner.Partition(objs, shards) {
			if len(part) == 0 {
				continue
			}
			shardObjs := make([]*domain.Object, len(part))
			for j, pi := range part {
				shardObjs[j] = objs[pi]
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(s, shardObjs)
			}()
		}
		wg.Wait()
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	// Gather: a lone shard's rows are already the answer. Otherwise plain
	// statements merge back into evaluation order; ordered statements take
	// the rank-aware top-k gather, which reproduces the single shard's
	// (key, evaluation-order) total sort — each shard already returned its
	// local top k, and the global top k is a subset of their union.
	rows := outs[0].rows
	if shards > 1 {
		rank := make(map[int]int, len(objs))
		for i, o := range objs {
			rank[o.ID] = i
		}
		shardRows := make([][]query.ResultRow, len(outs))
		for s := range outs {
			shardRows[s] = outs[s].rows
		}
		if st.Order != nil {
			rows = query.MergeTopK(rank, st.Order.Desc, st.Limit, shardRows...)
		} else {
			rows = query.MergeRows(rank, shardRows...)
		}
	}

	out := &Result{
		Rows:           make([]Row, len(rows)),
		CacheHit:       hit,
		Backend:        t.backends[idx].name,
		PreprocessCost: plan.PreprocessCost,
		Adaptive:       req.Adaptive,
		Lazy:           req.Lazy,
		Reuse:          memo != nil,
		Shards:         shards,
	}
	var asked int64
	for s := range outs {
		out.OnlineSpent += outs[s].spent
		out.QuestionsSaved += outs[s].saved
		out.ObjectsPruned += outs[s].pruned
		out.QuestionsSkipped += outs[s].skipped
		out.AnswersReused += outs[s].reused
		out.SpendSavedMills += outs[s].savedMills
		asked += outs[s].asked
	}
	for i, r := range rows {
		out.Rows[i] = resultRow(st, r)
	}
	out.Latency = t.metrics.now().Sub(start)
	if req.Adaptive {
		cm.adaptiveSessions.Add(1)
		cm.questionsSaved.Add(out.QuestionsSaved)
	}
	if req.Lazy {
		cm.lazySessions.Add(1)
		cm.objectsPruned.Add(out.ObjectsPruned)
		cm.questionsSkipped.Add(out.QuestionsSkipped)
	}
	if out.Reuse {
		cm.reuseSessions.Add(1)
		cm.answersReused.Add(out.AnswersReused)
		cm.spendSavedMills.Add(out.SpendSavedMills)
	}
	if shards > 1 {
		cm.shardedSessions.Add(1)
	}
	cm.observe(out.Latency, out.OnlineSpent, asked)
	return out, nil
}

// runShard evaluates one object partition on a private session of its
// backend, in the request's evaluator mode, reporting the rows and what
// they cost.
func (t *Tier) runShard(sb *backend, plan *core.Plan, st *query.Statement,
	shardObjs []*domain.Object, planQs int, req Request, memo query.AnswerMemo) (shardOutcome, error) {
	sb.load.startSession()
	defer sb.load.endSession()
	sess := sb.acquire()
	defer sess.release()
	if planQs > 0 {
		n := int64(planQs * len(shardObjs))
		sb.load.addQuestions(n)
		defer sb.load.addQuestions(-n)
	}
	engine, err := query.NewEngine(sess.platform, plan, st)
	if err != nil {
		return shardOutcome{}, err
	}
	if req.Adaptive {
		// Adaptive calibration and reallocation are scoped to the shard's
		// partition — at S > 1 the adaptive path trades the tier-wide
		// savings pool for parallelism and is not bit-pinned.
		engine.SetAdaptive(t.adaptive)
	}
	if req.Lazy {
		// Lazy evaluation is per-object, so shard-local runs compose
		// exactly: top-k pruning only tightens within a shard, and the
		// ordered gather restores the global order from the local top-k's.
		engine.SetLazy(t.lazy)
	}
	if memo != nil {
		engine.SetReuse(memo)
	}
	rows, err := engine.Execute(st, shardObjs)
	if err != nil {
		return shardOutcome{}, err
	}
	o := shardOutcome{rows: rows, spent: sess.ledger.Spent(), asked: questionsAsked(sess.ledger)}
	if req.Adaptive {
		o.saved = engine.AdaptiveStats().Saved
	}
	if req.Lazy {
		ls := engine.LazyStats()
		o.pruned = ls.ObjectsPruned
		o.skipped = ls.QuestionsSkipped
	}
	if memo != nil {
		rs := engine.ReuseStats()
		o.reused = rs.AnswersReused
		o.savedMills = rs.SpendSavedMills
	}
	sb.load.noteAnswered(o.asked)
	return o, nil
}
