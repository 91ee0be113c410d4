package parx

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		var hits [n]atomic.Int32
		For(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestForEmptyAndNegative(t *testing.T) {
	called := false
	For(0, 4, func(int) { called = true })
	For(-3, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			For(50, workers, func(i int) {
				if i == 17 {
					panic("boom")
				}
			})
			t.Fatalf("workers=%d: For returned instead of panicking", workers)
		}()
	}
}

// TestForPanicOnCallerLane: a panic raised on the caller's own lane is
// re-raised only after the forked lanes have stopped, and aborts the
// remaining work. Forked lanes hold their first index until the caller's
// lane has taken one, so the caller always runs fn.
func TestForPanicOnCallerLane(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	caller := goid()
	const n = 1 << 20
	var (
		ran       atomic.Int32
		inFlight  atomic.Int32
		afterJoin bool
	)
	callerIn := make(chan struct{})
	func() {
		defer func() {
			if r := recover(); r != "caller boom" {
				t.Fatalf("recovered %v, want caller boom", r)
			}
			afterJoin = inFlight.Load() == 0
		}()
		For(n, 4, func(i int) {
			inFlight.Add(1)
			defer inFlight.Add(-1)
			ran.Add(1)
			if goid() == caller {
				close(callerIn)
				panic("caller boom")
			}
			select {
			case <-callerIn:
			case <-time.After(5 * time.Second):
				panic("the caller's lane never ran fn")
			}
			runtime.Gosched()
		})
		t.Fatal("For returned instead of panicking")
	}()
	if !afterJoin {
		t.Fatal("panic re-raised while forked lanes were still running")
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("all %d indices ran; the caller-lane panic did not abort the rest", got)
	}
}

// goid returns the current goroutine's id, parsed from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Fatal("default worker count is not GOMAXPROCS")
	}
}
