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
//   - Sharding: each query's object set is partitioned deterministically
//     (hash or range over object IDs) into S ≥ 1 shards and scattered
//     over per-shard COW sessions evaluated in parallel, the per-shard
//     rows gathered back into evaluation order. Every session takes this
//     one path; S = 1 is a single shard holding the whole set. One plan
//     build serves all shards (the plan is shard-independent), and shards
//     partition objects, never answers — per-object estimates are
//     bit-equal at every S.
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
	"strings"
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
	// (0 = 1: the whole set is one shard). Requests can override per
	// session.
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

// Request is one query session. Its JSON form is the body of the query
// API (crowdhttp.PathServeQuery); budgets travel in mills, crowd.Cost's
// unit.
type Request struct {
	// Statement is the SELECT/WHERE text to evaluate.
	Statement string `json:"statement"`
	// Class is the SLO class ("interactive" when empty).
	Class string `json:"class,omitempty"`
	// ObjectIDs restricts evaluation to these registered objects, each
	// named once (nil = every registered object).
	ObjectIDs []int `json:"object_ids,omitempty"`
	// MaxObjects truncates evaluation to the first n registered objects
	// (0 = no limit). Ignored when ObjectIDs is set.
	MaxObjects int `json:"max_objects,omitempty"`
	// BObj/BPrc override the tier's default budgets when nonzero.
	BObj crowd.Cost `json:"b_obj_mills,omitempty"`
	BPrc crowd.Cost `json:"b_prc_mills,omitempty"`
	// Adaptive opts the session into the adaptive online evaluator:
	// sequential stopping, reliability weighting and budget reallocation
	// (internal/adaptive), tuned by the tier's Config.Adaptive. The
	// fixed-budget path and its determinism pins are unaffected.
	Adaptive bool `json:"adaptive,omitempty"`
	// Shards overrides the tier's configured shard count for this
	// session (0 = tier default; 1 = one shard holding the whole set).
	// The count is clamped to the evaluation set's size.
	Shards int `json:"shards,omitempty"`
	// Lazy opts the session into the lazy predicate-ordered evaluator:
	// short-circuit filters, confidence-based early decisions and top-k
	// pruning (query.LazyConfig), tuned by the tier's Config.Lazy.
	// Mutually exclusive with Adaptive.
	Lazy bool `json:"lazy,omitempty"`
	// ReuseAnswers opts the session into the tier's shared answer cache:
	// fully-budgeted answer means it pays for are published for other
	// sessions, and cached means are served instead of re-asking the
	// crowd — rows stay bit-equal at lower OnlineSpent. Ignored when the
	// tier has no cache (Config.AnswerCache 0) and by adaptive sessions
	// (their variable answer counts have no full-budget means to share).
	ReuseAnswers bool `json:"reuse,omitempty"`
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
	// scattered over (1 = the whole set as one shard).
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
	adaptive    *adaptive.Config  // defaults resolved by New
	lazy        *query.LazyConfig // defaults resolved by New
	shards      int               // ≥ 1
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
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Adaptive == nil {
		d := adaptive.Defaults()
		cfg.Adaptive = &d
	}
	if cfg.Lazy == nil {
		cfg.Lazy = query.LazyDefaults()
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
		metrics:     newMetrics(now, cfg.Admission),
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

// resolveObjects materializes the request's object list: ObjectIDs in
// their given order, else the registered objects in registration order.
// An unknown or repeated ID is malformed input — the gather ranks rows by
// object ID, so each object may appear in the evaluation set only once.
func (t *Tier) resolveObjects(req Request) ([]*domain.Object, error) {
	t.objMu.RLock()
	defer t.objMu.RUnlock()
	if len(req.ObjectIDs) > 0 {
		out := make([]*domain.Object, 0, len(req.ObjectIDs))
		seen := make(map[int]struct{}, len(req.ObjectIDs))
		for _, id := range req.ObjectIDs {
			o, ok := t.byID[id]
			if !ok {
				return nil, fmt.Errorf("serve: unknown object %d", id)
			}
			if _, dup := seen[id]; dup {
				return nil, fmt.Errorf("serve: object %d named more than once", id)
			}
			seen[id] = struct{}{}
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
	return fmt.Sprintf("%s|%s|%d|%d", t.domain, strings.Join(attrs, ","), bObj, bPrc)
}

// budgets applies the tier's defaults to zero (unset) budgets.
func (t *Tier) budgets(bObj, bPrc crowd.Cost) (crowd.Cost, crowd.Cost) {
	if bObj <= 0 {
		bObj = t.defBObj
	}
	if bPrc <= 0 {
		bPrc = t.defBPrc
	}
	return bObj, bPrc
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

// Execute runs one query session end to end: admission, parse, object
// resolution and the plan key, then the one session path (session, in
// shard.go) at the effective shard count. It implements Executor.
func (t *Tier) Execute(ctx context.Context, req Request) (res *Result, err error) {
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
	defer func() {
		if err != nil {
			cm.errors.Add(1)
		}
	}()

	st, err := query.Parse(req.Statement)
	if err != nil {
		return nil, err
	}
	if req.Adaptive && req.Lazy {
		return nil, errors.New("serve: adaptive and lazy modes are mutually exclusive")
	}
	objs, err := t.resolveObjects(req)
	if err != nil {
		return nil, err
	}
	bObj, bPrc := t.budgets(req.BObj, req.BPrc)
	key := t.planKey(st, bObj, bPrc)
	return t.session(ctx, req, st, objs, bObj, bPrc, key, t.effectiveShards(req, len(objs)), cm, start)
}

// reuseOn reports whether a session runs against the shared answer
// cache: it must opt in, the tier must have one, and adaptive sessions
// are excluded (their variable answer counts never produce the
// full-budget means the cache keys on).
func (t *Tier) reuseOn(req Request) bool {
	return req.ReuseAnswers && t.answers != nil && !req.Adaptive
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
	bObj, bPrc = t.budgets(bObj, bPrc)
	return t.cache.peek(t.planKey(st, bObj, bPrc))
}

// Stats snapshots the tier's observability counters.
func (t *Tier) Stats() Stats {
	s := t.metrics.snapshot()
	s.Policy = t.router.Name()
	s.Partition = t.partitioner.Name()
	s.Shards = t.shards
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
