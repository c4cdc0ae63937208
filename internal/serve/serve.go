// Package serve is the multi-tenant query-serving tier: it sits between
// parsed query.Statements and one or more crowd.Platform backends and
// turns the paper's one-shot preprocess-then-evaluate pipeline into a
// long-lived service that amortizes crowd work across queries.
//
// The three mechanisms, in request order:
//
//   - Admission control: every session first passes a per-SLO-class
//     (interactive/batch) token bucket. Over-limit sessions queue up to a
//     bound and are rejected beyond it, so a burst of batch traffic cannot
//     starve interactive queries of crowd capacity.
//   - Plan cache: preprocessing output is cached under
//     (domain, sorted target-attribute set, B_obj, B_prc) with
//     single-flight semantics — N concurrent identical queries trigger ONE
//     core.Preprocess and all share the compiled plan. Repeated queries
//     skip the entire offline phase (tens of milliseconds and thousands of
//     paid questions per plan).
//   - Routing: sessions are multiplexed over the backends by a pluggable
//     policy (round-robin, least-loaded by in-flight questions, or
//     plan-affinity, which sticks a cached plan to the backend whose
//     answer streams built it so memoized answers are reused).
//   - Sharding (optional): with ≥ 2 shards configured, each query's
//     object set is partitioned deterministically (hash or range over
//     object IDs) and scattered over per-shard COW sessions evaluated in
//     parallel, the per-shard rows gathered back into evaluation order.
//     One plan build serves all shards (the plan is shard-independent),
//     and shards partition objects, never answers — per-object estimates
//     are bit-equal to the unsharded run.
//
// Each session runs on a private fork of its backend when the platform
// supports copy-on-write snapshots (crowd.SimPlatform does): the fork has
// its own ledger — every tenant pays its own crowd bill — while sharing
// the backend's memoized answer streams, so repeated evaluation of the
// same objects is served from memory. Platforms without forking are
// serialized per backend with the same accounting.
//
// The single-query degenerate configuration (one backend, cold cache,
// unlimited buckets) is determinism-pinned: it produces bit-equal plans,
// estimates and spend to driving core.Preprocess + query.Engine by hand.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/query"
)

// Backend names one crowd platform the tier multiplexes sessions over.
type Backend struct {
	// Name identifies the backend in routing decisions and stats.
	Name string
	// Platform answers the crowd questions. When it supports
	// copy-on-write snapshots (crowd.SimPlatform), each session runs on a
	// private fork; otherwise sessions serialize on the backend.
	Platform crowd.Platform
}

// Config assembles a Tier.
type Config struct {
	// Domain names the attribute universe served; it is part of every
	// plan-cache key.
	Domain string
	// Backends are the crowd platforms to multiplex over (at least one).
	Backends []Backend
	// Objects is the database the tier evaluates statements against.
	// Register them before the first query; the set is fixed for the
	// tier's lifetime.
	Objects []*domain.Object
	// Policy picks the routing policy by name: "round-robin",
	// "least-loaded" or "plan-affinity" (the default).
	Policy string
	// CacheSize bounds the plan cache (LRU-evicted beyond it; default 64).
	CacheSize int
	// DefaultBObj/DefaultBPrc apply when a request leaves its budgets
	// zero (defaults: 4 cents / 10 dollars).
	DefaultBObj crowd.Cost
	DefaultBPrc crowd.Cost
	// Shards splits every query's evaluation set into this many object
	// partitions evaluated in parallel, one COW session per shard
	// (0 or 1 = the unsharded path, which stays bit-equal to the
	// pre-sharding tier). Requests can override per session.
	Shards int
	// Partition picks the shard-assignment policy by name: "hash" (the
	// default) or "range".
	Partition string
	// Admission configures one token bucket per SLO class. Classes
	// without an entry are unlimited.
	Admission map[string]BucketConfig
	// Adaptive tunes the adaptive online evaluator for sessions that
	// request it (Request.Adaptive); nil applies adaptive.Defaults().
	// Fixed-budget sessions are untouched either way.
	Adaptive *adaptive.Config
	// Lazy tunes the lazy predicate-ordered evaluator for sessions that
	// request it (Request.Lazy); nil applies query.LazyDefaults().
	// Eager sessions are untouched either way.
	Lazy *query.LazyConfig
	// AnswerCache bounds the shared answer-reuse cache (entries = cached
	// fully-budgeted answer means). 0 disables the cache — sessions
	// requesting ReuseAnswers then run exactly like today's tier.
	AnswerCache int
	// AnswerTTL expires cached answer means this long after their fill
	// (0 = never). Only meaningful with AnswerCache > 0.
	AnswerTTL time.Duration
	// Options tunes preprocessing (zero value = paper configuration).
	Options core.Options

	// now overrides the clock in tests.
	now func() time.Time
}

// Request is one query session.
type Request struct {
	// Statement is the SELECT/WHERE text to evaluate.
	Statement string
	// Class is the SLO class ("interactive" when empty).
	Class string
	// ObjectIDs restricts evaluation to these registered objects
	// (nil = every registered object).
	ObjectIDs []int
	// MaxObjects truncates evaluation to the first n registered objects
	// (0 = no limit). Ignored when ObjectIDs is set.
	MaxObjects int
	// BObj/BPrc override the tier's default budgets when nonzero.
	BObj crowd.Cost
	BPrc crowd.Cost
	// Adaptive opts the session into the adaptive online evaluator:
	// sequential stopping, reliability weighting and budget reallocation
	// (internal/adaptive), tuned by the tier's Config.Adaptive. The
	// fixed-budget path and its determinism pins are unaffected.
	Adaptive bool
	// Shards overrides the tier's configured shard count for this
	// session (0 = tier default; 1 forces the unsharded path). The count
	// is clamped to the evaluation set's size.
	Shards int
	// Lazy opts the session into the lazy predicate-ordered evaluator:
	// short-circuit filters, confidence-based early decisions and top-k
	// pruning (query.LazyConfig), tuned by the tier's Config.Lazy.
	// Mutually exclusive with Adaptive.
	Lazy bool
	// ReuseAnswers opts the session into the tier's shared answer cache:
	// fully-budgeted answer means it pays for are published for other
	// sessions, and cached means are served instead of re-asking the
	// crowd — rows stay bit-equal at lower OnlineSpent. Ignored when the
	// tier has no cache (Config.AnswerCache 0) and by adaptive sessions
	// (their variable answer counts have no full-budget means to share).
	ReuseAnswers bool
}

// Row is one object that passed the statement's WHERE filter.
type Row struct {
	ObjectID int                `json:"object_id"`
	Values   map[string]float64 `json:"values"`
	// SortKey is the ORDER BY attribute's estimate when the statement has
	// an ordering clause (absent otherwise).
	SortKey float64 `json:"sort_key,omitempty"`
}

// Result is one completed session.
type Result struct {
	Rows []Row `json:"rows"`
	// CacheHit reports whether the plan came from the cache (including
	// joining another session's in-flight build).
	CacheHit bool `json:"cache_hit"`
	// Backend is the name of the backend the session ran on.
	Backend string `json:"backend"`
	// PreprocessCost is what building the plan cost the crowd (charged
	// once per cache miss, reported on every session using the plan).
	PreprocessCost crowd.Cost `json:"preprocess_cost_mills"`
	// OnlineSpent is what this session's online evaluation cost.
	OnlineSpent crowd.Cost `json:"online_spent_mills"`
	// Adaptive reports whether the session ran the adaptive evaluator.
	Adaptive bool `json:"adaptive,omitempty"`
	// QuestionsSaved is how many of the plan's per-object questions the
	// adaptive evaluator skipped (0 on the fixed path).
	QuestionsSaved int64 `json:"questions_saved,omitempty"`
	// Shards is how many object partitions the session's evaluation was
	// scattered over (1 = the unsharded path).
	Shards int `json:"shards,omitempty"`
	// Lazy reports whether the session ran the lazy evaluator;
	// ObjectsPruned and QuestionsSkipped are its savings counters
	// (top-k-pruned candidates and plan questions never paid for).
	Lazy             bool  `json:"lazy,omitempty"`
	ObjectsPruned    int64 `json:"objects_pruned,omitempty"`
	QuestionsSkipped int64 `json:"questions_skipped,omitempty"`
	// Reuse reports whether the session consulted the shared answer
	// cache; AnswersReused is how many individual crowd answers it was
	// served from cache and SpendSavedMills their price — the amount a
	// cache-cold run of the same session would have added to OnlineSpent.
	Reuse           bool  `json:"reuse,omitempty"`
	AnswersReused   int64 `json:"answers_reused,omitempty"`
	SpendSavedMills int64 `json:"spend_saved_mills,omitempty"`
	// Latency is the end-to-end session wall time (admission included).
	Latency time.Duration `json:"latency_ns"`
}

// DefaultClass is the SLO class assumed when a request names none.
const DefaultClass = "interactive"

// ErrRejected is returned (wrapped) when admission control sheds a
// session instead of queueing it.
var ErrRejected = errors.New("serve: admission rejected")

// snapshotter is the copy-on-write capability sessions prefer.
type snapshotter interface {
	Snapshot() *crowd.SimSnapshot
}

// backend is the tier's view of one configured Backend.
type backend struct {
	name string
	p    crowd.Platform
	snap *crowd.SimSnapshot // non-nil when the platform forks

	// mu serializes sessions on non-forkable platforms (SetLedger is
	// platform-wide, so concurrent sessions would corrupt accounting).
	mu sync.Mutex

	load backendLoad
}

// session is one query's private view of a backend.
type session struct {
	platform crowd.Platform
	ledger   *crowd.Ledger
	release  func()
}

// acquire opens a session: a fork with its own fresh ledger when the
// platform snapshots (or forks through a wrapper stack via
// crowd.Forker), the backend itself (ledger swapped in, sessions
// serialized) otherwise.
func (b *backend) acquire() *session {
	if b.snap != nil {
		f := b.snap.Fork()
		return &session{platform: f, ledger: f.Ledger(), release: func() {}}
	}
	if fk, ok := b.p.(crowd.Forker); ok {
		if f := fk.ForkPlatform(); f != nil {
			return &session{platform: f, ledger: f.Ledger(), release: func() {}}
		}
	}
	b.mu.Lock()
	ledger := crowd.NewLedger(0)
	prev := b.p.SetLedger(ledger)
	return &session{
		platform: b.p,
		ledger:   ledger,
		release: func() {
			b.p.SetLedger(prev)
			b.mu.Unlock()
		},
	}
}

// Tier is the serving layer. Safe for concurrent use.
type Tier struct {
	domain      string
	backends    []*backend
	router      Router
	cache       *planCache
	adm         *admission
	metrics     *metrics
	opts        core.Options
	adaptive    *adaptive.Config
	lazy        *query.LazyConfig
	shards      int
	partitioner Partitioner
	answers     *answerCache // nil when Config.AnswerCache is 0

	defBObj, defBPrc crowd.Cost

	objMu   sync.RWMutex
	objects []*domain.Object
	byID    map[int]*domain.Object
}

// New builds a Tier from the config.
func New(cfg Config) (*Tier, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("serve: no backends")
	}
	router, err := NewRouter(cfg.Policy)
	if err != nil {
		return nil, err
	}
	part, err := NewPartitioner(cfg.Partition)
	if err != nil {
		return nil, err
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("serve: negative shard count %d", cfg.Shards)
	}
	if cfg.AnswerCache < 0 {
		return nil, fmt.Errorf("serve: negative answer cache size %d", cfg.AnswerCache)
	}
	if cfg.AnswerTTL < 0 {
		return nil, fmt.Errorf("serve: negative answer TTL %v", cfg.AnswerTTL)
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 64
	}
	if cfg.DefaultBObj <= 0 {
		cfg.DefaultBObj = crowd.Cents(4)
	}
	if cfg.DefaultBPrc <= 0 {
		cfg.DefaultBPrc = crowd.Dollars(10)
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	t := &Tier{
		domain:      cfg.Domain,
		router:      router,
		cache:       newPlanCache(cfg.CacheSize),
		adm:         newAdmission(cfg.Admission, now),
		metrics:     newMetrics(now),
		opts:        cfg.Options,
		adaptive:    cfg.Adaptive,
		lazy:        cfg.Lazy,
		shards:      cfg.Shards,
		partitioner: part,
		defBObj:     cfg.DefaultBObj,
		defBPrc:     cfg.DefaultBPrc,
		byID:        make(map[int]*domain.Object, len(cfg.Objects)),
	}
	if cfg.AnswerCache > 0 {
		t.answers = newAnswerCache(cfg.AnswerCache, cfg.AnswerTTL, now)
	}
	for i, b := range cfg.Backends {
		name := b.Name
		if name == "" {
			name = fmt.Sprintf("backend-%d", i)
		}
		if b.Platform == nil {
			return nil, fmt.Errorf("serve: backend %q has no platform", name)
		}
		bk := &backend{name: name, p: b.Platform}
		// Snapshot AFTER all objects exist: forks pin the universe's
		// object-id watermark at snapshot time.
		if s, ok := b.Platform.(snapshotter); ok {
			bk.snap = s.Snapshot()
		}
		t.backends = append(t.backends, bk)
	}
	t.RegisterObjects(cfg.Objects)
	return t, nil
}

// RegisterObjects adds objects to the evaluation database.
func (t *Tier) RegisterObjects(objs []*domain.Object) {
	t.objMu.Lock()
	defer t.objMu.Unlock()
	for _, o := range objs {
		if o == nil {
			continue
		}
		if _, dup := t.byID[o.ID]; dup {
			continue
		}
		t.byID[o.ID] = o
		t.objects = append(t.objects, o)
	}
}

// resolveObjects materializes the request's object list in registration
// order.
func (t *Tier) resolveObjects(req Request) ([]*domain.Object, error) {
	t.objMu.RLock()
	defer t.objMu.RUnlock()
	if len(req.ObjectIDs) > 0 {
		out := make([]*domain.Object, 0, len(req.ObjectIDs))
		for _, id := range req.ObjectIDs {
			o, ok := t.byID[id]
			if !ok {
				return nil, fmt.Errorf("serve: unknown object %d", id)
			}
			out = append(out, o)
		}
		return out, nil
	}
	objs := t.objects
	if req.MaxObjects > 0 && req.MaxObjects < len(objs) {
		objs = objs[:req.MaxObjects]
	}
	return append([]*domain.Object(nil), objs...), nil
}

// planKey canonicalizes the cache identity of a statement at given
// budgets: the domain, the sorted deduplicated target-attribute set and
// both budgets. Two statements selecting/filtering the same attributes
// share a plan regardless of SELECT order or WHERE constants.
func (t *Tier) planKey(st *query.Statement, bObj, bPrc crowd.Cost) string {
	attrs := st.Attributes() // already deduplicated and sorted
	return fmt.Sprintf("%s|%s|%d|%d", t.domain, joinAttrs(attrs), bObj, bPrc)
}

// picker routes sessions of key by the tier's policy, given the backend
// recorded as the key's builder (-1 when none), clamped to a valid index.
func (t *Tier) picker(key string) func(affinity int) int {
	return func(affinity int) int {
		idx := t.router.Pick(t.backends, key, affinity)
		if idx < 0 || idx >= len(t.backends) {
			return 0
		}
		return idx
	}
}

func joinAttrs(attrs []string) string {
	sorted := append([]string(nil), attrs...)
	sort.Strings(sorted)
	out := ""
	for i, a := range sorted {
		if i > 0 {
			out += ","
		}
		out += a
	}
	return out
}

// Execute runs one query session end to end: admission, parse, routing,
// plan lookup/build, online evaluation. It implements Executor.
func (t *Tier) Execute(ctx context.Context, req Request) (*Result, error) {
	start := t.metrics.now()
	class := req.Class
	if class == "" {
		class = DefaultClass
	}
	cm := t.metrics.class(class)

	if err := t.adm.admit(ctx, class, cm); err != nil {
		cm.rejected.Add(1)
		return nil, err
	}

	st, err := query.Parse(req.Statement)
	if err != nil {
		cm.errors.Add(1)
		return nil, err
	}
	if req.Adaptive && req.Lazy {
		cm.errors.Add(1)
		return nil, errors.New("serve: adaptive and lazy modes are mutually exclusive")
	}
	objs, err := t.resolveObjects(req)
	if err != nil {
		cm.errors.Add(1)
		return nil, err
	}
	bObj, bPrc := req.BObj, req.BPrc
	if bObj <= 0 {
		bObj = t.defBObj
	}
	if bPrc <= 0 {
		bPrc = t.defBPrc
	}
	key := t.planKey(st, bObj, bPrc)

	// Scatter-gather dispatch: with S ≥ 2 effective shards the session
	// forks one COW sub-session per object partition and evaluates them
	// in parallel. S ≤ 1 continues on the unsharded path below, which is
	// pinned bit-equal to the pre-sharding tier.
	if shards := t.effectiveShards(req, len(objs)); shards > 1 {
		return t.executeSharded(req, st, objs, bObj, bPrc, key, shards, cm, start)
	}

	// Route and claim in one step: under plan-affinity a plan already
	// (being) built sticks to its builder's backend; otherwise the policy
	// picks, and a miss makes this session the builder.
	entry, idx, owner := t.cache.claim(key, t.picker(key))
	b := t.backends[idx]
	b.load.startSession()
	defer b.load.endSession()

	// A joiner waits for the plan before it acquires a session: on a
	// serialized backend the builder needs that session to finish.
	if !owner {
		entry.result()
	}
	sess := b.acquire()
	defer sess.release()
	if owner {
		t.cache.fill(entry, func() (*core.Plan, error) {
			b.load.startBuild()
			defer b.load.endBuild()
			return core.Preprocess(sess.platform, st.Query(), bObj, bPrc, t.opts)
		})
	}
	plan, err := entry.result()
	hit := !owner
	if err != nil {
		cm.errors.Add(1)
		return nil, err
	}
	if hit {
		cm.cacheHits.Add(1)
	} else {
		cm.cacheMisses.Add(1)
	}

	// Weigh the session's remaining work for least-loaded routing: the
	// plan names every value question an object costs.
	if qs, qerr := plan.Questions(); qerr == nil {
		n := int64(len(qs) * len(objs))
		b.load.addQuestions(n)
		defer b.load.addQuestions(-n)
	}

	engine, err := query.NewEngine(sess.platform, plan, st)
	if err != nil {
		cm.errors.Add(1)
		return nil, err
	}
	if req.Adaptive {
		acfg := t.adaptive
		if acfg == nil {
			d := adaptive.Defaults()
			acfg = &d
		}
		engine.SetAdaptive(acfg)
		cm.adaptiveSessions.Add(1)
	}
	if req.Lazy {
		engine.SetLazy(t.lazyConfig())
		cm.lazySessions.Add(1)
	}
	reuse := t.reuseOn(req)
	if reuse {
		engine.SetReuse(t.answers.memoFor(t.domain))
		cm.reuseSessions.Add(1)
	}
	rows, err := engine.Execute(st, objs)
	if err != nil {
		cm.errors.Add(1)
		return nil, err
	}

	out := &Result{
		Rows:           make([]Row, len(rows)),
		CacheHit:       hit,
		Backend:        b.name,
		PreprocessCost: plan.PreprocessCost,
		OnlineSpent:    sess.ledger.Spent(),
		Adaptive:       req.Adaptive,
		Shards:         1,
		Latency:        t.metrics.now().Sub(start),
	}
	if req.Adaptive {
		saved := engine.AdaptiveStats().Saved
		out.QuestionsSaved = saved
		cm.questionsSaved.Add(saved)
	}
	if req.Lazy {
		ls := engine.LazyStats()
		out.Lazy = true
		out.ObjectsPruned = ls.ObjectsPruned
		out.QuestionsSkipped = ls.QuestionsSkipped
		cm.objectsPruned.Add(ls.ObjectsPruned)
		cm.questionsSkipped.Add(ls.QuestionsSkipped)
	}
	if reuse {
		rs := engine.ReuseStats()
		out.Reuse = true
		out.AnswersReused = rs.AnswersReused
		out.SpendSavedMills = rs.SpendSavedMills
		cm.answersReused.Add(rs.AnswersReused)
		cm.spendSavedMills.Add(rs.SpendSavedMills)
	}
	for i, r := range rows {
		out.Rows[i] = resultRow(st, r)
	}
	asked := questionsAsked(sess.ledger)
	b.load.noteAnswered(asked)
	cm.observe(out.Latency, out.OnlineSpent, asked)
	return out, nil
}

// reuseOn reports whether a session runs against the shared answer
// cache: it must opt in, the tier must have one, and adaptive sessions
// are excluded (their variable answer counts never produce the
// full-budget means the cache keys on).
func (t *Tier) reuseOn(req Request) bool {
	return req.ReuseAnswers && t.answers != nil && !req.Adaptive
}

// lazyConfig resolves the tier's lazy evaluator tuning.
func (t *Tier) lazyConfig() *query.LazyConfig {
	if t.lazy != nil {
		return t.lazy
	}
	return query.LazyDefaults()
}

// resultRow converts an engine row to the wire shape, carrying the sort
// key only for ordered statements.
func resultRow(st *query.Statement, r query.ResultRow) Row {
	row := Row{ObjectID: r.Object.ID, Values: r.Values}
	if st.Order != nil {
		row.SortKey = r.Key
	}
	return row
}

// effectiveShards resolves the session's shard count: the request's
// override, else the tier's default, clamped to the evaluation set (an
// empty shard would fork a session for nothing).
func (t *Tier) effectiveShards(req Request, nObjs int) int {
	s := req.Shards
	if s == 0 {
		s = t.shards
	}
	if s > nObjs {
		s = nObjs
	}
	if s < 1 {
		s = 1
	}
	return s
}

// questionsAsked totals the ledger's per-kind question counts.
func questionsAsked(l *crowd.Ledger) int64 {
	var n int64
	for _, k := range []crowd.QuestionKind{
		crowd.BinaryValue, crowd.NumericValue, crowd.Dismantling,
		crowd.Verification, crowd.ExampleQuestion,
	} {
		n += int64(l.Asked(k))
	}
	return n
}

// CachedPlan peeks at the plan the cache holds for a statement at the
// given budgets (tier defaults applied when zero) without counting a
// lookup — introspection for tests and tooling.
func (t *Tier) CachedPlan(statement string, bObj, bPrc crowd.Cost) (*core.Plan, bool) {
	st, err := query.Parse(statement)
	if err != nil {
		return nil, false
	}
	if bObj <= 0 {
		bObj = t.defBObj
	}
	if bPrc <= 0 {
		bPrc = t.defBPrc
	}
	return t.cache.peek(t.planKey(st, bObj, bPrc))
}

// Stats snapshots the tier's observability counters.
func (t *Tier) Stats() Stats {
	s := t.metrics.snapshot()
	s.Policy = t.router.Name()
	s.Partition = t.partitioner.Name()
	if s.Shards = t.shards; s.Shards < 1 {
		s.Shards = 1
	}
	s.Cache = t.cache.stats()
	if t.answers != nil {
		s.AnswerCache = t.answers.stats()
	}
	s.Backends = make([]BackendStats, len(t.backends))
	for i, b := range t.backends {
		s.Backends[i] = b.load.stats(b.name)
	}
	return s
}
