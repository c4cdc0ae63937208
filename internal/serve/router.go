package serve

import (
	"fmt"
	"sync/atomic"
)

// Router picks the backend a session runs on. affinity is the index of
// the backend that built (or is building) the session's cached plan, or
// -1 when no plan exists yet. Implementations must be safe for concurrent
// use.
type Router interface {
	Name() string
	Pick(backends []*backend, key string, affinity int) int
}

// Policy names.
const (
	PolicyRoundRobin   = "round-robin"
	PolicyLeastLoaded  = "least-loaded"
	PolicyPlanAffinity = "plan-affinity"
)

// Policies lists the routing policies NewRouter accepts.
func Policies() []string {
	return []string{PolicyRoundRobin, PolicyLeastLoaded, PolicyPlanAffinity}
}

// NewRouter resolves a policy name ("" = plan-affinity).
func NewRouter(policy string) (Router, error) {
	switch policy {
	case "", PolicyPlanAffinity:
		return &planAffinity{}, nil
	case PolicyRoundRobin:
		return &roundRobin{}, nil
	case PolicyLeastLoaded:
		return leastLoaded{}, nil
	default:
		return nil, fmt.Errorf("serve: unknown routing policy %q (want one of %v)", policy, Policies())
	}
}

// roundRobin cycles sessions over the backends regardless of load or
// cache locality.
type roundRobin struct {
	next atomic.Int64
}

func (r *roundRobin) Name() string { return PolicyRoundRobin }

func (r *roundRobin) Pick(backends []*backend, key string, affinity int) int {
	// Guard the degenerate slices: an empty tier has no pick (-1), and a
	// single backend needs no counter churn.
	if len(backends) == 0 {
		return -1
	}
	if len(backends) == 1 {
		return 0
	}
	return int((r.next.Add(1) - 1) % int64(len(backends)))
}

// leastLoaded sends the session to the backend with the fewest in-flight
// questions (outstanding value questions of active sessions, the best
// proxy for remaining crowd work), breaking ties by in-flight sessions
// and plan builds, then index.
type leastLoaded struct{}

func (leastLoaded) Name() string { return PolicyLeastLoaded }

func (leastLoaded) Pick(backends []*backend, key string, affinity int) int {
	if len(backends) == 0 {
		return -1
	}
	if len(backends) == 1 {
		return 0
	}
	best := 0
	bestQ, bestS := backends[0].load.questions(), backends[0].load.sessions()
	for i := 1; i < len(backends); i++ {
		q, s := backends[i].load.questions(), backends[i].load.sessions()
		if q < bestQ || (q == bestQ && s < bestS) {
			best, bestQ, bestS = i, q, s
		}
	}
	return best
}

// planAffinity pins a session to the backend whose answer streams built
// its plan — value questions the plan's training and earlier sessions
// already asked are memoized there, so affinity turns repeated queries
// into cache reads. Sessions with no cached plan fall back to
// least-loaded (and the backend they land on becomes the plan's home).
type planAffinity struct {
	fallback leastLoaded
}

func (p *planAffinity) Name() string { return PolicyPlanAffinity }

func (p *planAffinity) Pick(backends []*backend, key string, affinity int) int {
	if len(backends) == 0 {
		return -1
	}
	if affinity >= 0 && affinity < len(backends) {
		return affinity
	}
	return p.fallback.Pick(backends, key, -1)
}

// backendLoad tracks one backend's in-flight work with atomics.
type backendLoad struct {
	inflightSessions  atomic.Int64
	inflightQuestions atomic.Int64
	totalSessions     atomic.Int64
	plansBuilt        atomic.Int64
	buildsInFlight    atomic.Int64
	questionsAnswered atomic.Int64
}

func (l *backendLoad) startSession() {
	l.inflightSessions.Add(1)
	l.totalSessions.Add(1)
}
func (l *backendLoad) endSession()          { l.inflightSessions.Add(-1) }
func (l *backendLoad) addQuestions(n int64) { l.inflightQuestions.Add(n) }
func (l *backendLoad) startBuild() {
	l.buildsInFlight.Add(1)
	l.plansBuilt.Add(1)
}
func (l *backendLoad) endBuild()        { l.buildsInFlight.Add(-1) }
func (l *backendLoad) questions() int64 { return l.inflightQuestions.Load() }

// sessions counts the sessions in flight on the backend, a plan build as
// one: a build holds a session of its own, released before evaluation,
// so concurrent cold sessions must see it to spread their builds.
func (l *backendLoad) sessions() int64 {
	return l.inflightSessions.Load() + l.buildsInFlight.Load()
}

// noteAnswered records online questions a completed session actually
// asked on this backend — the per-backend work volume the sharding
// benchmark divides by.
func (l *backendLoad) noteAnswered(n int64) { l.questionsAnswered.Add(n) }

// BackendStats is one backend's observability snapshot.
type BackendStats struct {
	Name              string `json:"name"`
	Sessions          int64  `json:"sessions"`
	InflightSessions  int64  `json:"inflight_sessions"`
	InflightQuestions int64  `json:"inflight_questions"`
	PlansBuilt        int64  `json:"plans_built"`
	// QuestionsAnswered totals the online questions completed sessions
	// asked this backend; under sharding each backend answers only for
	// its object partitions, so this falls ~1/S per backend.
	QuestionsAnswered int64 `json:"questions_answered"`
}

func (l *backendLoad) stats(name string) BackendStats {
	return BackendStats{
		Name:              name,
		Sessions:          l.totalSessions.Load(),
		InflightSessions:  l.inflightSessions.Load(),
		InflightQuestions: l.inflightQuestions.Load(),
		PlansBuilt:        l.plansBuilt.Load(),
		QuestionsAnswered: l.questionsAnswered.Load(),
	}
}
