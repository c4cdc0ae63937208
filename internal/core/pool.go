package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the number of concurrently *computing* goroutines across
// every layer that fans work out — repetitions inside experiment.Run,
// budget points inside experiment.RunSweep and the per-object evaluation
// fan-out of EvaluateBatch — with one shared semaphore sized to
// GOMAXPROCS. The invariants that keep arbitrary nesting of these layers
// deadlock-free and bounded:
//
//   - extra workers spawned by ForEach each hold exactly one slot for
//     their lifetime, acquired with TryAcquire so nothing ever *blocks*
//     waiting for a slot;
//   - the goroutine that calls ForEach always processes items itself,
//     so progress never depends on a slot being free;
//   - nested ForEach calls (a repetition fanning out its evaluation
//     objects) simply grab whatever slots remain, or run sequentially in
//     the caller when the pool is saturated.
//
// Total active computation is therefore at most the pool size plus the
// one root caller, no matter how deep the layers nest.
type Pool struct{ sem chan struct{} }

// NewPool returns a pool admitting n concurrent computations (n < 1 is
// treated as 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{sem: make(chan struct{}, n)}
}

// TryAcquire grabs a slot only if one is immediately free.
func (p *Pool) TryAcquire() bool {
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot.
func (p *Pool) Release() { <-p.sem }

// Cap returns how many concurrent computations the pool admits.
func (p *Pool) Cap() int { return cap(p.sem) }

// sharedPool is the process-wide computation pool, swappable so
// benchmarks can measure scaling at widths other than GOMAXPROCS.
var sharedPool atomic.Pointer[Pool]

func init() { sharedPool.Store(NewPool(DefaultParallelism())) }

// SetPoolParallelism resizes the shared computation pool and returns the
// previous width. It exists for benchmarks that pin the pool to a
// specific width (the shared-sweep benchmark in internal/experiment
// runs at one slot); in-flight ForEach calls keep draining the pool they acquired
// from, so a resize is safe but should happen between workloads, not
// during one.
func SetPoolParallelism(n int) int {
	return sharedPool.Swap(NewPool(n)).Cap()
}

// DefaultParallelism is the fan-out width used when a caller does not
// request a specific one: the number of CPUs the scheduler may use.
func DefaultParallelism() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n), fanning out up to parallelism
// wide over the shared pool. parallelism <= 0 means "as wide as the pool
// allows"; parallelism == 1 is strictly sequential in the caller (no
// goroutines at all, which is what determinism tests pin). The calling
// goroutine always participates, so ForEach never deadlocks even when the
// pool is exhausted, and indexes are handed out through a channel so
// workers self-balance across uneven item costs.
func ForEach(n, parallelism int, fn func(i int)) {
	if n <= 0 {
		return
	}
	// Capture the pool once so acquire and release pair up even if the
	// shared pool is swapped mid-call. A one-slot pool means the only
	// possible extra worker would share the single CPU with the caller —
	// the channel handoff then costs more than it buys (a one-slot sweep
	// measured slower than the sequential loop exactly this way), so fall
	// back to the plain sequential loop.
	pool := sharedPool.Load()
	if parallelism == 1 || n == 1 || pool.Cap() == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if parallelism <= 0 || parallelism > n {
		parallelism = n
	}
	next := make(chan int)
	go func() {
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
	}()
	var wg sync.WaitGroup
	for w := 1; w < parallelism && pool.TryAcquire(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pool.Release()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := range next {
		fn(i)
	}
	wg.Wait()
}
