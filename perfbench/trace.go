package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crowd"
)

// spanKind names the layer boundary a span times.
type spanKind uint8

const (
	kSession    spanKind = iota // one Tier.Execute call or one cold-plan operation
	kCrowd                      // one crowd.Platform call on a backend
	kSim                        // one call from crowdhttp.Server into the simulator
	kEngine                     // one query.Engine.Execute call
	kHTTPClient                 // one HTTP exchange seen by the client's RoundTripper
	kHTTPServer                 // one request inside crowdhttp.Server's handler
)

var kindNames = [...]string{"session", "crowd", "sim", "engine", "http_client", "http_server"}

// span is one timed call. Times are nanoseconds since the recorder's epoch.
type span struct {
	kind       spanKind
	call       string // crowd call name (kCrowd, kSim)
	start, end int64
	// owner links the span to its session: the session id itself on
	// kSession, the fork id on kCrowd/kSim (mapped to a session by the
	// link analysis after the run), the session id everywhere else.
	owner int64
	// items is the questions a crowd call carried or the bytes an HTTP
	// exchange moved.
	items int
}

func (s span) dur() int64 { return s.end - s.start }

// fork is one tapped platform view: a backend root or a per-session fork
// the tier took from it. Its crowd spans reach a session only through the
// link analysis below.
type fork struct {
	id      int64
	created int64
	op      int64          // the single-client operation in flight at creation
	p       crowd.Platform // the tapped view, read for its ledger after the run

	mu   sync.Mutex
	objs map[int]struct{} // database objects its value questions named
	// built is set once the view asked a preprocessing-only question
	// (examples, dismantling, verification): it served a plan build.
	built bool
}

func (f *fork) note(id int) {
	f.mu.Lock()
	f.objs[id] = struct{}{}
	f.mu.Unlock()
}

func (f *fork) noteBuild() {
	f.mu.Lock()
	f.built = true
	f.mu.Unlock()
}

// recorder keeps every span of a traced run in memory; the analysis runs
// once the timed window has closed.
type recorder struct {
	epoch time.Time
	// op is the operation in flight on a single-client closed loop, where
	// ownership is unambiguous by construction.
	op atomic.Int64

	mu       sync.Mutex
	spans    []span
	forks    []*fork
	nextFork int64
}

// newRecorder starts a recorder whose clock reads zero now.
func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) newFork() *fork {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextFork++
	f := &fork{id: r.nextFork, created: r.now(), op: r.op.Load(), objs: make(map[int]struct{})}
	r.forks = append(r.forks, f)
	return f
}

// snapshot returns the recorded spans and forks.
func (r *recorder) snapshot() ([]span, []*fork) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), append([]*fork(nil), r.forks...)
}

// write saves every span as one JSON line, crowd spans with the session
// their fork links to (-1 when unlinked).
func (r *recorder) write(path string, links map[int64]int64) error {
	spans, _ := r.snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		session := s.owner
		if s.kind == kCrowd || s.kind == kSim {
			if session = -1; links != nil {
				if sid, ok := links[s.owner]; ok {
					session = sid
				}
			}
		}
		if err := enc.Encode(struct {
			Kind    string `json:"kind"`
			Call    string `json:"call,omitempty"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			Session int64  `json:"session"`
			Items   int    `json:"items,omitempty"`
		}{kindNames[s.kind], s.call, s.start, s.end, session, s.items}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sessionRef is what the link analysis knows about one session: when it
// ran, which database objects it owned and whether it built its plan.
type sessionRef struct {
	id         int64
	start, end int64
	objs       map[int]struct{}
	buildsPlan bool
}

// linkForks maps each fork that asked anything to the one session that
// can have created it: in flight when the fork was taken, owning every
// database object the fork asked about, and building its plan if the fork
// asked preprocessing questions. A fork with no such session, or with
// several, stays unlinked — its owner is never guessed.
func linkForks(forks []*fork, sessions []sessionRef) map[int64]int64 {
	bySt := append([]sessionRef(nil), sessions...)
	sort.Slice(bySt, func(i, j int) bool { return bySt[i].start < bySt[j].start })
	out := make(map[int64]int64, len(forks))
	for _, f := range forks {
		f.mu.Lock()
		objs, built := f.objs, f.built
		f.mu.Unlock()
		if len(objs) == 0 && !built {
			continue
		}
		owner, n := int64(0), 0
		for _, s := range bySt {
			if s.start > f.created {
				break
			}
			if s.end < f.created || (built && !s.buildsPlan) || !covers(s.objs, objs) {
				continue
			}
			owner = s.id
			n++
		}
		if n == 1 {
			out[f.id] = owner
		}
	}
	return out
}

func covers(set, sub map[int]struct{}) bool {
	for id := range sub {
		if _, ok := set[id]; !ok {
			return false
		}
	}
	return true
}

// unionLen is the total length of the union of intervals clipped to
// [lo, hi]. Sharded sub-sessions overlap, so summing child spans would
// count their shared wall time more than once.
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e > s {
			clipped = append(clipped, [2]int64{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curS, curE int64
	for i, x := range clipped {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	return total + curE - curS
}
