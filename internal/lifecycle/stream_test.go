package lifecycle

import (
	"sync"
	"testing"

	"repro/internal/rl"
)

// Pushing far past capacity must keep the counters exact across every
// ring-buffer wraparound: pushed counts all pushes, dropped counts
// exactly the evictions, and their difference is what Drain yields.
func TestStreamOverflowCountersAcrossWraparound(t *testing.T) {
	const cap = 8
	s := NewStream(cap)
	// 10 full wraparounds plus a partial lap, interleaved with drains so
	// head lands on every slot of the ring at least once.
	total, drained := 0, 0
	for lap := 0; lap < 10; lap++ {
		n := cap*2 + lap // varies per lap to shift the wrap point
		for i := 0; i < n; i++ {
			s.Push(rl.Transition{A: total})
			total++
		}
		if s.ring.Len() != cap {
			t.Fatalf("lap %d: len=%d, want full at %d", lap, s.ring.Len(), cap)
		}
		wantDropped := uint64(total - drained - cap)
		if s.Pushed() != uint64(total) || s.Dropped() != wantDropped {
			t.Fatalf("lap %d: pushed=%d dropped=%d, want %d/%d",
				lap, s.Pushed(), s.Dropped(), total, wantDropped)
		}
		if lap%3 == 2 { // drain on some laps only, desynchronizing head
			drained += s.Drain(func(rl.Transition) {})
		}
	}
	// Conservation: everything pushed was either dropped, drained, or is
	// still buffered.
	if got := s.Dropped() + uint64(drained) + uint64(s.ring.Len()); got != s.Pushed() {
		t.Fatalf("conservation broken: dropped+drained+len = %d, pushed = %d", got, s.Pushed())
	}
}

// After overflow, Drain must return exactly the newest capacity-sized
// window in FIFO order — never a stale slot from a previous lap.
func TestStreamDrainAfterOverflowReturnsNewestWindow(t *testing.T) {
	const cap = 8
	for _, pushes := range []int{cap + 1, cap * 3, cap*7 + 5} {
		s := NewStream(cap)
		for i := 0; i < pushes; i++ {
			s.Push(rl.Transition{A: i})
		}
		var got []int
		n := s.Drain(func(tr rl.Transition) { got = append(got, tr.A) })
		if n != cap || len(got) != cap {
			t.Fatalf("%d pushes: Drain returned %d items, want %d", pushes, len(got), cap)
		}
		for i, a := range got {
			if want := pushes - cap + i; a != want {
				t.Fatalf("%d pushes: drained[%d] = %d, want %d (stale slot survived overflow)",
					pushes, i, a, want)
			}
		}
		if s.ring.Len() != 0 || s.Dropped() != uint64(pushes-cap) {
			t.Fatalf("%d pushes: len=%d dropped=%d after drain, want 0/%d",
				pushes, s.ring.Len(), s.Dropped(), pushes-cap)
		}
	}
}

// Concurrent pushers overflowing the stream keep the counters coherent:
// no push is lost or double-counted even while evicting (run with -race).
func TestStreamConcurrentOverflowCounters(t *testing.T) {
	const cap, workers, perWorker = 16, 8, 500
	s := NewStream(cap)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Push(rl.Transition{A: w*perWorker + i})
			}
		}(w)
	}
	wg.Wait()
	if s.Pushed() != workers*perWorker {
		t.Fatalf("pushed=%d, want %d", s.Pushed(), workers*perWorker)
	}
	if s.ring.Len() != cap {
		t.Fatalf("len=%d, want full at %d", s.ring.Len(), cap)
	}
	if s.Dropped() != workers*perWorker-cap {
		t.Fatalf("dropped=%d, want %d", s.Dropped(), workers*perWorker-cap)
	}
	seen := map[int]bool{}
	s.Drain(func(tr rl.Transition) {
		if seen[tr.A] {
			t.Errorf("transition %d drained twice", tr.A)
		}
		seen[tr.A] = true
	})
	if len(seen) != cap {
		t.Fatalf("drained %d distinct transitions, want %d", len(seen), cap)
	}
}

// A caller reusing one state buffer for every Push must not change what
// Drain returns, and each transition's bits must survive the ring
// wrapping over evicted slots, across drains.
func TestStreamDrainOwnsStatesAcrossWraparound(t *testing.T) {
	const cap = 4
	s := NewStream(cap)
	var state, next [3]float64
	k := 0
	for _, pushes := range []int{cap*2 + 1, 3, cap*3 + 2} {
		for i := 0; i < pushes; i++ {
			state = [3]float64{float64(k), 0.25 * float64(k), -float64(k)}
			next = [3]float64{float64(k) + 1, 1 / float64(k+1), 7}
			s.Push(rl.Transition{S: state[:], A: k, R: float64(k) / 2, NextS: next[:], Done: k%2 == 1})
			state, next = [3]float64{-1, -1, -1}, [3]float64{-1, -1, -1}
			k++
		}
		first := k - min(pushes, cap)
		i := 0
		s.Drain(func(tr rl.Transition) {
			want := first + i
			i++
			wantS := [3]float64{float64(want), 0.25 * float64(want), -float64(want)}
			wantNext := [3]float64{float64(want) + 1, 1 / float64(want+1), 7}
			if tr.A != want || tr.R != float64(want)/2 || tr.Done != (want%2 == 1) ||
				[3]float64(tr.S) != wantS || [3]float64(tr.NextS) != wantNext {
				t.Fatalf("drained %+v, want transition %d with S %v NextS %v", tr, want, wantS, wantNext)
			}
		})
		if i != min(pushes, cap) {
			t.Fatalf("drained %d transitions, want %d", i, min(pushes, cap))
		}
	}
}
