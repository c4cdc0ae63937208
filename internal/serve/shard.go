package serve

import (
	"errors"
	"sync"
	"time"

	"repro/internal/adaptive"
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

// executeSharded is the scatter-gather path of Tier.Execute: the
// partitioner splits the evaluation set by object ID, one plan build (or
// cache hit) serves every shard, and each shard runs the compiled online
// evaluation on a private COW session of its backend. Shards partition
// objects, never answers: every (object, attribute) answer stream is
// consumed by exactly one shard from cursor zero, so per-object
// estimates are bit-equal to the unsharded run and the summed online
// spend matches to the mill.
//
// Determinism caveat: shards are spread over the backends starting at
// the plan's home, so with several backends the estimates are bit-equal
// only when the backends are replicas (same simulator seed over the same
// universe) — which is how disq-serve configures a sharded tier.
func (t *Tier) executeSharded(req Request, st *query.Statement, objs []*domain.Object,
	bObj, bPrc crowd.Cost, key string, shards int, cm *classMetrics, start time.Time) (*Result, error) {
	parts := t.partitioner.Partition(objs, shards)

	// Route, then build (or fetch) the one shard-independent plan on its
	// home backend, releasing the build session before scattering — on a
	// mutex-serialized backend, holding it here would deadlock the
	// shards that need to acquire it below.
	plan, idx, hit, err := t.cache.getOrBuild(key, t.picker(key), func(idx int) (*core.Plan, error) {
		b := t.backends[idx]
		buildSess := b.acquire()
		defer buildSess.release()
		b.load.startBuild()
		defer b.load.endBuild()
		return core.Preprocess(buildSess.platform, st.Query(), bObj, bPrc, t.opts)
	})
	if err != nil {
		cm.errors.Add(1)
		return nil, err
	}
	home := t.backends[idx]
	if hit {
		cm.cacheHits.Add(1)
	} else {
		cm.cacheMisses.Add(1)
	}

	var acfg *adaptive.Config
	if req.Adaptive {
		acfg = t.adaptive
		if acfg == nil {
			d := adaptive.Defaults()
			acfg = &d
		}
	}
	var lcfg *query.LazyConfig
	if req.Lazy {
		lcfg = t.lazyConfig()
	}
	// One shared memo serves every shard: the replicas' deterministic
	// answer streams make a mean cached by one shard bit-identical to
	// what any other would have bought, so overlapping evaluation sets
	// across sessions stop being re-purchased per replica.
	var memo query.AnswerMemo
	if t.reuseOn(req) {
		memo = t.answers.memoFor(t.domain)
		cm.reuseSessions.Add(1)
	}
	planQs := 0
	if qs, qerr := plan.Questions(); qerr == nil {
		planQs = len(qs)
	}

	// Scatter: one goroutine per non-empty shard, round-robin over the
	// backends starting at the plan's home (shard 0 reuses the answers
	// the build memoized there). Plain goroutines, not the shared worker
	// pool: the shards are latency-bound (each blocks on crowd round
	// trips), so they must overlap even on a single-slot pool host.
	outs := make([]shardOutcome, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		shardObjs := make([]*domain.Object, len(part))
		for j, pi := range part {
			shardObjs[j] = objs[pi]
		}
		sb := t.backends[(idx+s)%len(t.backends)]
		wg.Add(1)
		go func(s int, sb *backend, shardObjs []*domain.Object) {
			defer wg.Done()
			outs[s], errs[s] = t.runShard(sb, plan, st, shardObjs, planQs, acfg, lcfg, memo)
		}(s, sb, shardObjs)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		cm.errors.Add(1)
		return nil, err
	}

	// Gather: plain statements merge back into evaluation order; ordered
	// statements take the rank-aware top-k gather, which reproduces the
	// unsharded engine's (key, evaluation-order) total sort — each shard
	// already returned its local top k, and the global top k is a subset
	// of their union.
	rank := make(map[int]int, len(objs))
	for i, o := range objs {
		rank[o.ID] = i
	}
	shardRows := make([][]query.ResultRow, len(outs))
	for s := range outs {
		shardRows[s] = outs[s].rows
	}
	var merged []query.ResultRow
	if st.Order != nil {
		merged = query.MergeTopK(rank, st.Order.Desc, st.Limit, shardRows...)
	} else {
		merged = query.MergeRows(rank, shardRows...)
	}

	out := &Result{
		Rows:           make([]Row, len(merged)),
		CacheHit:       hit,
		Backend:        home.name,
		PreprocessCost: plan.PreprocessCost,
		Adaptive:       req.Adaptive,
		Lazy:           req.Lazy,
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
	for i, r := range merged {
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
	if memo != nil {
		out.Reuse = true
		cm.answersReused.Add(out.AnswersReused)
		cm.spendSavedMills.Add(out.SpendSavedMills)
	}
	cm.shardedSessions.Add(1)
	cm.observe(out.Latency, out.OnlineSpent, asked)
	return out, nil
}

// runShard evaluates one object partition on a private session of its
// backend, reporting the rows and what they cost.
func (t *Tier) runShard(sb *backend, plan *core.Plan, st *query.Statement,
	shardObjs []*domain.Object, planQs int, acfg *adaptive.Config, lcfg *query.LazyConfig,
	memo query.AnswerMemo) (shardOutcome, error) {
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
	if acfg != nil {
		// Adaptive calibration and reallocation are scoped to the shard's
		// partition — the sharded adaptive path trades the tier-wide
		// savings pool for parallelism and is not bit-pinned.
		engine.SetAdaptive(acfg)
	}
	if lcfg != nil {
		// Lazy evaluation is per-object, so shard-local runs compose
		// exactly: top-k pruning only tightens within a shard, and the
		// ordered gather restores the global order from the local top-k's.
		engine.SetLazy(lcfg)
	}
	if memo != nil {
		engine.SetReuse(memo)
	}
	rows, err := engine.Execute(st, shardObjs)
	if err != nil {
		return shardOutcome{}, err
	}
	o := shardOutcome{rows: rows, spent: sess.ledger.Spent(), asked: questionsAsked(sess.ledger)}
	if acfg != nil {
		o.saved = engine.AdaptiveStats().Saved
	}
	if lcfg != nil {
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
