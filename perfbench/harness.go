package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// session is one completed or failed session of a run.
type session struct {
	class   string
	lat     time.Duration // from due time (open loop) or send time (closed loop)
	objects int           // objects evaluated
	online  int64         // online crowd spend, mills
	failed  string        // why it counts as failed: error, rejection or output check
}

// run is what one timed window produced, before it is turned into metrics.
type run struct {
	sessions []session
	// wall is the measured window: first due/send to last completion.
	wall time.Duration
	// cpu is process user+system time spent in the window.
	cpu     time.Duration
	heapMiB float64
	// prepMills is the plan-building spend of every plan the window's
	// sessions used, whether built during setup or inside the window.
	prepMills int64
	est       errAcc
	// lags is the open-loop generator's lateness per arrival (nil for
	// closed loops).
	lags   []time.Duration
	layers map[string]float64
	// links maps each traced fork to its session id.
	links map[int64]int64
}

// errAcc accumulates the paper's query error Σ_t ω_t·MSE_t over returned
// values, as experiment.WeightedErrorFunc computes it for one object set.
type errAcc struct {
	weights map[string]float64
	sse     map[string]float64
	n       map[string]int
}

func newErrAcc(weights map[string]float64) errAcc {
	return errAcc{weights: weights, sse: map[string]float64{}, n: map[string]int{}}
}

func (a *errAcc) add(attr string, est, truth float64) {
	d := est - truth
	a.sse[attr] += d * d
	a.n[attr]++
}

func (a *errAcc) value() float64 {
	var total float64
	for t, n := range a.n {
		w := a.weights[t]
		if w == 0 {
			w = 1
		}
		total += w * a.sse[t] / float64(n)
	}
	return total
}

// openLoop starts call(i, due) for every arrival no earlier than its due
// time, independent of how many are still running, and waits for all of
// them. It returns how late each arrival was started. Callers time each
// session from its due time, so a stall also charges the arrivals it
// delayed.
func openLoop(start time.Time, due []time.Duration, call func(i int, dueAt time.Time)) []time.Duration {
	lags := make([]time.Duration, len(due))
	var wg sync.WaitGroup
	for i, d := range due {
		at := start.Add(d)
		if w := time.Until(at); w > 0 {
			time.Sleep(w)
		}
		lags[i] = time.Since(at)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			call(i, at)
		}(i)
	}
	wg.Wait()
	return lags
}

// closedLoop runs clients goroutines, each calling call with the next
// operation index until the deadline passes, and waits for them.
func closedLoop(clients int, deadline time.Time, call func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				call(int(next.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
}

// arrivals draws an open-loop schedule of rate·seconds arrivals placed
// uniformly at random over the window: a Poisson process conditioned on
// its count, so offered load is the same on every seed.
func arrivals(rng *rand.Rand, rate float64, seconds int) []time.Duration {
	n := int(math.Round(rate * float64(seconds)))
	span := float64(seconds) * float64(time.Second)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * span)
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB reports the heap still reachable after two forced
// collections (the second empties what sync.Pools kept through the first).
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of xs (mean of the middle two for even counts); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that still has at least ten samples
// beyond it, and which percentile that is.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := max(len(s)-11, 0)
	return s[k], 100 * float64(k+1) / float64(len(s))
}

// quantile reads the q-quantile of xs by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// sleepFloor times short sleeps: the shortest crowd latency time.Sleep
// can model on this host.
func sleepFloor() time.Duration {
	xs := make([]float64, 21)
	for i := range xs {
		t0 := time.Now()
		time.Sleep(50 * time.Microsecond)
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
