// Package parallel provides the fork-join substrate used by every bulk
// operation in the library.
//
// PAM is written against Cilk Plus (cilk_spawn / cilk_sync / cilk_for): a
// work-stealing fork-join runtime with explicit granularity control. Go has
// goroutines but no user-visible work-stealing task pool, so this package
// rebuilds the needed subset:
//
//   - Do(f, g) runs two tasks, in parallel when a worker token is
//     available, sequentially otherwise. Tokens bound the number of
//     in-flight forked goroutines so that nested recursive forking (the
//     shape of every tree algorithm in this library) cannot explode into
//     millions of goroutines; the Go scheduler's own work stealing
//     balances the resulting tasks across Ps. Granularity is the
//     caller's: a tree algorithm calls Do only when its subproblem
//     exceeds the grain and otherwise makes two plain calls, so that no
//     closure is built where nothing forks (PAM's par_do_if passes
//     stack lambdas; a Go closure handed to Do lives on the heap).
//   - For(n, grain, body) is the cilk_for analogue: a blocked,
//     recursively-split parallel loop. Its default grain has a floor of
//     1024 items, so a loop over fewer items runs inline: a fork costs a
//     goroutine, a closure and a WaitGroup, more than a small loop body
//     saves.
//
// Parallelism is controlled by SetParallelism; with parallelism 1 every
// combinator degrades to plain sequential calls, which is how the "T1"
// (one-thread) measurements in the paper's tables are produced.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// tokens is the number of additional goroutines Do is still allowed to
// fork. It is a semaphore implemented with a lock-free counter: acquire
// decrements if positive, release increments.
var tokens atomic.Int64

// parallelism is the configured parallelism level (see SetParallelism).
var parallelism atomic.Int64

// forks counts successful forks since the last ResetStats. It is only
// incremented when stats collection is enabled.
var forks atomic.Int64

// statsEnabled gates fork counting so the hot path pays one atomic load.
var statsEnabled atomic.Bool

// spawnFactor is the token multiplier: with parallelism p, up to
// p*spawnFactor forked tasks may be in flight. A factor > 1 keeps workers
// busy when tasks are irregular (e.g. union of skewed trees) at a small
// scheduling cost.
const spawnFactor = 8

func init() {
	SetParallelism(runtime.GOMAXPROCS(0))
}

// SetParallelism sets the target parallelism level. p <= 1 makes all
// combinators run sequentially. Calling it while parallel work is in
// flight is not supported (tokens would be miscounted); the benchmark
// harness only calls it between runs.
func SetParallelism(p int) {
	if p < 1 {
		p = 1
	}
	parallelism.Store(int64(p))
	if p == 1 {
		tokens.Store(0)
		return
	}
	tokens.Store(int64(p * spawnFactor))
}

// Parallelism reports the configured parallelism level.
func Parallelism() int { return int(parallelism.Load()) }

// EnableStats turns fork counting on or off and resets the counter.
func EnableStats(on bool) {
	statsEnabled.Store(on)
	forks.Store(0)
}

// Forks reports the number of forked (actually parallel) Do calls since
// stats were enabled or last reset.
func Forks() int64 { return forks.Load() }

// tryAcquire takes a fork token if one is available.
func tryAcquire() bool {
	for {
		c := tokens.Load()
		if c <= 0 {
			return false
		}
		if tokens.CompareAndSwap(c, c-1) {
			return true
		}
	}
}

func release() { tokens.Add(1) }

// Do runs f and g and returns when both have completed. When a fork token
// is available g runs in a fresh goroutine while f runs on the calling
// goroutine; otherwise both run sequentially. Panics in either task are
// propagated to the caller (the first one observed wins).
func Do(f, g func()) {
	if !tryAcquire() {
		f()
		g()
		return
	}
	if statsEnabled.Load() {
		forks.Add(1)
	}
	var wg sync.WaitGroup
	var gPanic any
	wg.Add(1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				gPanic = r
			}
			release()
			wg.Done()
		}()
		g()
	}()
	f()
	wg.Wait()
	if gPanic != nil {
		panic(gPanic)
	}
}

// Do3 runs three tasks, possibly in parallel. It is used where the paper's
// pseudocode forks over the left child, the root work, and the right child.
func Do3(f, g, h func()) {
	Do(func() { Do(f, g) }, h)
}

// For runs body(i) for every i in [0, n), splitting the index space
// recursively and running halves in parallel while each half is larger
// than grain. grain <= 0 selects a default that yields roughly 8 blocks
// per worker, but never blocks below 1024 items: a loop over fewer than
// 1024 items runs inline.
func For(n, grain int, body func(i int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = defaultGrain(n)
	}
	forRange(0, n, grain, body)
}

func forRange(lo, hi, grain int, body func(i int)) {
	for hi-lo > grain {
		mid := lo + (hi-lo)/2
		lo2, hi2 := lo, mid // capture for the spawned half
		if !tryAcquire() {
			// No token: run the left half inline and loop on the right,
			// keeping the stack shallow in the sequential case.
			for i := lo2; i < hi2; i++ {
				body(i)
			}
			lo = mid
			continue
		}
		if statsEnabled.Load() {
			forks.Add(1)
		}
		var wg sync.WaitGroup
		var p any
		wg.Add(1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					p = r
				}
				release()
				wg.Done()
			}()
			forRange(lo2, hi2, grain, body)
		}()
		forRange(mid, hi, grain, body)
		wg.Wait()
		if p != nil {
			panic(p)
		}
		return
	}
	for i := lo; i < hi; i++ {
		body(i)
	}
}

// ForBlocked runs body(lo, hi) over disjoint blocks covering [0, n).
// It is For for callers that want to amortize per-iteration overhead
// themselves (e.g. scan passes).
func ForBlocked(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = defaultGrain(n)
	}
	blocks := (n + grain - 1) / grain
	For(blocks, 1, func(b int) {
		lo := b * grain
		hi := min(lo+grain, n)
		body(lo, hi)
	})
}

// minGrain is the floor of the default grain.
const minGrain = 1024

func defaultGrain(n int) int {
	return max(n/(Parallelism()*spawnFactor), minGrain)
}

// NumBlocks reports the block count ForBlocked would use for n items with
// the given grain (after defaulting), letting callers size per-block
// scratch arrays.
func NumBlocks(n, grain int) (blocks, actualGrain int) {
	if n <= 0 {
		return 0, 1
	}
	if grain <= 0 {
		grain = defaultGrain(n)
	}
	return (n + grain - 1) / grain, grain
}
