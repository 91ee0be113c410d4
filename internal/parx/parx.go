// Package parx provides the tiny bounded-parallelism primitive shared by
// the evaluation hot paths (per-node policy replay, hyperparameter search).
// The contract that matters here is determinism: For runs fn(i) for every i
// exactly once, with results racked up by index by the caller, so the
// outcome is identical for any worker count — parallelism changes wall
// clock, never results.
package parx

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: n <= 0 selects GOMAXPROCS,
// anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For invokes fn(i) for every i in [0, n) using at most workers concurrent
// lanes and returns when all calls are done. workers <= 0 selects
// GOMAXPROCS; a single worker (or n <= 1) runs inline with no goroutines.
// Otherwise For forks workers-1 goroutines and runs the last lane on the
// calling goroutine. fn must confine its writes to per-index state (e.g.
// out[i]) — For adds no synchronization around shared state beyond the
// final join.
//
// A panic in fn aborts remaining work and is re-raised on the caller's
// goroutine (the original stack trace is lost but the value is preserved),
// so panic semantics match the serial path for every worker count.
func For(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		aborted  atomic.Bool
		panicMu  sync.Mutex
		panicVal any
		wg       sync.WaitGroup
	)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicVal == nil {
					panicVal = r
				}
				panicMu.Unlock()
				aborted.Store(true)
			}
		}()
		fn(i)
	}
	lane := func() {
		for !aborted.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			call(i)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			lane()
		}()
	}
	lane()
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
