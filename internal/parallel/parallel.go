// Package parallel is the concurrency layer shared by the statistical
// timing engines: a bounded worker pool for embarrassingly parallel index
// ranges, a level-barrier scheduler for topologically levelized graph
// propagation, and a deterministic seed-stream splitter for sharded
// Monte Carlo.
//
// Determinism is the design constraint everything here serves. Workers
// receive stable worker indices (so callers can give each worker its own
// scratch state), work items are identified by their index in the input
// range (so results land in caller-owned slices at fixed positions), and
// the seed splitter derives per-item seeds from (seed, item index) alone.
// The result: any engine built on this package produces output that does
// not depend on the worker count or on goroutine scheduling — only the
// wall-clock time does.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a user-facing Workers option to a concrete worker count:
// values <= 0 mean "one worker per available CPU" (runtime.GOMAXPROCS),
// anything else is returned unchanged. All engine Options use 0 as the
// default so that `Workers: 0` saturates the host and `Workers: 1` is the
// exact serial behavior.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ForEachWorker runs fn(w, i) for every i in [0, n) on at most workers
// goroutines. With workers <= 1 (or n <= 1) it degenerates to a plain
// serial loop on the calling goroutine — no goroutines, no
// synchronization. Items are handed out dynamically (atomic counter), so
// uneven item costs balance across workers; fn must be safe to call
// concurrently for distinct i. The worker index w is in [0, workers),
// and any two calls with the same w are sequential. This is the hook for
// per-worker scratch state: index a scratch slice by w and no locking is
// needed.
func ForEachWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// Levels runs a level-barrier schedule: for each level l in order, fn is
// invoked (concurrently, on at most workers goroutines with stable worker
// indices) for every item of levels[l], and level l+1 does not start
// until level l has fully finished. This is the execution model for
// levelized SSTA: gates within one topological level have no data
// dependencies on each other, while every fanin lives at a strictly
// lower level, so the barrier is exactly the dependency structure.
func Levels[T any](workers int, levels [][]T, fn func(worker int, item T)) {
	for _, level := range levels {
		lv := level
		ForEachWorker(workers, len(lv), func(w, i int) { fn(w, lv[i]) })
	}
}

// Chunks splits [0, n) into at most workers contiguous half-open ranges
// of near-equal size and runs fn(w, lo, hi) for each on its own worker.
// Unlike ForEachWorker the assignment is static, which shards well when
// every item costs the same (Monte-Carlo trials) and the caller wants
// one per-shard setup (scratch arrays) amortized over many items.
func Chunks(workers, n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// SeedStream derives independent per-item seeds from one root seed, so
// that work item i receives the same RNG stream no matter which worker
// (or how many workers) processes it. The derivation is SplitMix64 over
// the root seed mixed with the item index — the standard splittable-RNG
// construction (Steele et al., OOPSLA 2013); consecutive item indices
// yield statistically independent, well-mixed 64-bit seeds.
type SeedStream struct {
	root uint64
}

// NewSeedStream builds a splitter rooted at seed.
func NewSeedStream(seed int64) SeedStream {
	// One mixing round separates trivially related roots (0, 1, 2, ...).
	return SeedStream{root: mix64(uint64(seed))}
}

// Uint64 returns the derived seed for item i, for RNGs that take
// unsigned state (e.g. math/rand/v2 PCG).
func (s SeedStream) Uint64(i int) uint64 {
	return mix64(s.root + uint64(i)*0x9e3779b97f4a7c15)
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche mix.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
