package serve

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crowd"
)

// latencyRing keeps the most recent cap latency samples (a ring, so the
// quantiles track recent behavior under long-running load without
// unbounded memory).
type latencyRing struct {
	mu  sync.Mutex
	buf []int64
	n   int64 // total samples ever added
}

func newLatencyRing(cap int) *latencyRing {
	return &latencyRing{buf: make([]int64, 0, cap)}
}

func (r *latencyRing) add(ns int64) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ns)
	} else {
		r.buf[r.n%int64(cap(r.buf))] = ns
	}
	r.n++
	r.mu.Unlock()
}

// quantiles returns the requested quantiles (nearest-rank) over the
// retained window, zeros when empty.
func (r *latencyRing) quantiles(qs ...float64) []int64 {
	r.mu.Lock()
	snap := append([]int64(nil), r.buf...)
	r.mu.Unlock()
	out := make([]int64, len(qs))
	if len(snap) == 0 {
		return out
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i] < snap[j] })
	for i, q := range qs {
		// Nearest-rank with ceiling: the smallest sample that at least a
		// q-fraction of the window does not exceed. Flooring here biased
		// the tail quantiles low (p99 of 100 samples picked index 98).
		idx := int(math.Ceil(q * float64(len(snap)-1)))
		if idx < 0 {
			idx = 0
		}
		if idx > len(snap)-1 {
			idx = len(snap) - 1
		}
		out[i] = snap[idx]
	}
	return out
}

// classMetrics accumulates one SLO class's counters.
type classMetrics struct {
	sessions    atomic.Int64
	errors      atomic.Int64
	rejected    atomic.Int64
	queued      atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	spendMills  atomic.Int64
	questions   atomic.Int64

	// adaptiveSessions counts sessions that ran the adaptive evaluator;
	// questionsSaved accumulates the per-object questions it skipped.
	adaptiveSessions atomic.Int64
	questionsSaved   atomic.Int64

	// lazySessions counts sessions that ran the lazy evaluator;
	// objectsPruned and questionsSkipped accumulate the work it avoided
	// (objects dropped by top-k pruning, plan questions never asked).
	lazySessions     atomic.Int64
	objectsPruned    atomic.Int64
	questionsSkipped atomic.Int64

	// reuseSessions counts sessions that ran against the shared answer
	// cache; answersReused and spendSavedMills accumulate the crowd
	// answers they were served from cache and those answers' price.
	reuseSessions   atomic.Int64
	answersReused   atomic.Int64
	spendSavedMills atomic.Int64

	// shardedSessions counts sessions that took the scatter-gather path
	// (effective shard count ≥ 2).
	shardedSessions atomic.Int64

	lat *latencyRing
}

func (cm *classMetrics) observe(lat time.Duration, spend crowd.Cost, questions int64) {
	cm.sessions.Add(1)
	cm.spendMills.Add(int64(spend))
	cm.questions.Add(questions)
	cm.lat.add(lat.Nanoseconds())
}

// maxOpenClasses bounds how many class names get their own metrics
// entry besides DefaultClass and the classes Config.Admission names. A
// request naming a further class is counted under overflowClass. Each
// entry keeps a 128 KiB latency ring for the tier's lifetime, so without
// the cap any client could grow the tier by sending distinct class
// names, even in requests that fail to parse.
const maxOpenClasses = 16

// overflowClass is the one entry every class past maxOpenClasses folds
// into.
const overflowClass = "(overflow)"

// metrics is the tier-wide registry of per-class metrics.
type metrics struct {
	now   func() time.Time
	start time.Time

	mu      sync.RWMutex
	classes map[string]*classMetrics
	// reserved names the classes that always get their own entry; open
	// counts the entries of other names.
	reserved map[string]bool
	open     int
}

func newMetrics(now func() time.Time, admission map[string]BucketConfig) *metrics {
	reserved := map[string]bool{DefaultClass: true, overflowClass: true}
	for class := range admission {
		reserved[class] = true
	}
	return &metrics{now: now, start: now(), classes: make(map[string]*classMetrics), reserved: reserved}
}

func (m *metrics) class(name string) *classMetrics {
	m.mu.RLock()
	cm, ok := m.classes[name]
	m.mu.RUnlock()
	if ok {
		return cm
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if cm, ok = m.classes[name]; ok {
		return cm
	}
	if !m.reserved[name] {
		if m.open == maxOpenClasses {
			name = overflowClass
			if cm, ok = m.classes[name]; ok {
				return cm
			}
		} else {
			m.open++
		}
	}
	cm = &classMetrics{lat: newLatencyRing(1 << 14)}
	m.classes[name] = cm
	return cm
}

// ClassStats is one SLO class's snapshot, the /v1/serve/stats payload per
// class.
type ClassStats struct {
	Sessions    int64 `json:"sessions"`
	Errors      int64 `json:"errors"`
	Rejected    int64 `json:"rejected"`
	Queued      int64 `json:"queued"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// CacheHitRate is hits / (hits + misses); 0 with no lookups.
	CacheHitRate float64 `json:"cache_hit_rate"`
	P50Ns        int64   `json:"p50_ns"`
	P99Ns        int64   `json:"p99_ns"`
	// SessionsPerSec and QuestionsPerSec are averaged over the tier's
	// uptime.
	SessionsPerSec  float64 `json:"sessions_per_sec"`
	QuestionsPerSec float64 `json:"questions_per_sec"`
	// SpendPerQueryMills is the mean online crowd spend per completed
	// session, in mills.
	SpendPerQueryMills float64 `json:"spend_per_query_mills"`
	// AdaptiveSessions counts sessions that ran the adaptive online
	// evaluator; QuestionsSaved is how many plan questions those sessions
	// skipped in total.
	AdaptiveSessions int64 `json:"adaptive_sessions"`
	QuestionsSaved   int64 `json:"questions_saved"`
	// LazySessions counts sessions that ran the lazy short-circuit
	// evaluator; ObjectsPruned and QuestionsSkipped total the objects its
	// top-k bound dropped and the plan questions it never asked.
	LazySessions     int64 `json:"lazy_sessions"`
	ObjectsPruned    int64 `json:"objects_pruned"`
	QuestionsSkipped int64 `json:"questions_skipped"`
	// ReuseSessions counts sessions that ran against the shared answer
	// cache; AnswersReused and SpendSavedMills total the crowd answers
	// they were served from cache and what re-buying them would have
	// cost.
	ReuseSessions   int64 `json:"reuse_sessions"`
	AnswersReused   int64 `json:"answers_reused"`
	SpendSavedMills int64 `json:"spend_saved_mills"`
	// ShardedSessions counts sessions scattered over more than one shard.
	ShardedSessions int64 `json:"sharded_sessions"`
}

// Stats is the tier snapshot served at /v1/serve/stats.
type Stats struct {
	Policy string `json:"policy"`
	// Shards and Partition echo the tier's sharding configuration
	// (shards = 1: every session's set is one shard by default).
	Shards    int    `json:"shards"`
	Partition string `json:"partition"`
	UptimeNs  int64  `json:"uptime_ns"`
	// FairnessIndex is Jain's index over per-class served QPS:
	// (Σx)²/(n·Σx²) across the n observed SLO classes. 1.0 means every
	// class is served equally; a single class hogging the tier drives it
	// toward 1/n. Uptime is common to all classes, so sessions stand in
	// for QPS. 1.0 when nothing has been served yet.
	FairnessIndex float64    `json:"fairness_index"`
	Cache         CacheStats `json:"plan_cache"`
	// AnswerCache is the shared answer-reuse cache's snapshot (zero value
	// when the tier runs without one).
	AnswerCache AnswerCacheStats `json:"answer_cache"`
	Backends    []BackendStats   `json:"backends"`
	// Classes holds one entry per SLO class seen. Beyond DefaultClass,
	// the Config.Admission classes and 16 other names, further classes
	// share the "(overflow)" entry.
	Classes map[string]ClassStats `json:"classes"`
}

func (m *metrics) snapshot() Stats {
	uptime := m.now().Sub(m.start)
	secs := uptime.Seconds()
	s := Stats{UptimeNs: uptime.Nanoseconds(), Classes: make(map[string]ClassStats)}
	m.mu.RLock()
	defer m.mu.RUnlock()
	var sum, sumSq float64
	for name, cm := range m.classes {
		q := cm.lat.quantiles(0.50, 0.99)
		cs := ClassStats{
			Sessions:    cm.sessions.Load(),
			Errors:      cm.errors.Load(),
			Rejected:    cm.rejected.Load(),
			Queued:      cm.queued.Load(),
			CacheHits:   cm.cacheHits.Load(),
			CacheMisses: cm.cacheMisses.Load(),
			P50Ns:       q[0],
			P99Ns:       q[1],

			AdaptiveSessions: cm.adaptiveSessions.Load(),
			QuestionsSaved:   cm.questionsSaved.Load(),
			LazySessions:     cm.lazySessions.Load(),
			ObjectsPruned:    cm.objectsPruned.Load(),
			QuestionsSkipped: cm.questionsSkipped.Load(),
			ReuseSessions:    cm.reuseSessions.Load(),
			AnswersReused:    cm.answersReused.Load(),
			SpendSavedMills:  cm.spendSavedMills.Load(),
			ShardedSessions:  cm.shardedSessions.Load(),
		}
		if lookups := cs.CacheHits + cs.CacheMisses; lookups > 0 {
			cs.CacheHitRate = float64(cs.CacheHits) / float64(lookups)
		}
		if secs > 0 {
			cs.SessionsPerSec = float64(cs.Sessions) / secs
			cs.QuestionsPerSec = float64(cm.questions.Load()) / secs
		}
		if cs.Sessions > 0 {
			cs.SpendPerQueryMills = float64(cm.spendMills.Load()) / float64(cs.Sessions)
		}
		x := float64(cs.Sessions)
		sum += x
		sumSq += x * x
		s.Classes[name] = cs
	}
	// Jain's fairness index over the tracked classes' session counts.
	if n := len(s.Classes); n > 0 && sumSq > 0 {
		s.FairnessIndex = sum * sum / (float64(n) * sumSq)
	} else {
		s.FairnessIndex = 1
	}
	return s
}
