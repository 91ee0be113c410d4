package rl

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

func tr(r float64) Transition {
	return Transition{S: []float64{r}, A: 0, R: r, NextS: []float64{r}, Done: true}
}

// sample draws n transitions from r through SampleInto; nil slices when r
// is empty.
func sample(r Replay, rng *mathx.RNG, n int) ([]Transition, []int, []float64) {
	trs, handles, ws := make([]Transition, n), make([]int, n), make([]float64, n)
	if r.SampleInto(rng, trs, handles, ws) == 0 {
		return nil, nil, nil
	}
	return trs, handles, ws
}

func TestUniformReplayRing(t *testing.T) {
	u := NewUniformReplay(3)
	if u.Len() != 0 {
		t.Fatal("new buffer should be empty")
	}
	for i := 0; i < 5; i++ {
		u.Add(tr(float64(i)))
	}
	if u.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (capacity)", u.Len())
	}
	// Oldest entries (0, 1) evicted; survivors are 2, 3, 4.
	rng := mathx.NewRNG(1)
	seen := map[float64]bool{}
	for i := 0; i < 200; i++ {
		trs, _, ws := sample(u, rng, 1)
		seen[trs[0].R] = true
		if ws[0] != 1 {
			t.Fatal("uniform weights must be 1")
		}
	}
	for _, old := range []float64{0, 1} {
		if seen[old] {
			t.Fatalf("evicted transition %v sampled", old)
		}
	}
	for _, cur := range []float64{2, 3, 4} {
		if !seen[cur] {
			t.Fatalf("live transition %v never sampled", cur)
		}
	}
}

func TestUniformReplayEmptySample(t *testing.T) {
	u := NewUniformReplay(3)
	trs, _, _ := sample(u, mathx.NewRNG(1), 4)
	if trs != nil {
		t.Fatal("empty buffer should return nil")
	}
}

func TestUniformReplayPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewUniformReplay(0)
}

func TestPERNewTransitionsGetMaxPriority(t *testing.T) {
	p := NewPrioritizedReplay(PERConfig{Capacity: 8, Alpha: 1, Beta: 1})
	p.Add(tr(1))
	// Mark the first transition as very important.
	p.UpdatePriorities([]int{0}, []float64{99})
	p.Add(tr(2))
	// The new transition must carry the running max priority so it is not
	// starved relative to the updated one.
	if p.tree.get(1) < p.tree.get(0) {
		t.Fatalf("new transition priority %v below max %v", p.tree.get(1), p.tree.get(0))
	}
}

func TestPERPrioritySkewsSampling(t *testing.T) {
	p := NewPrioritizedReplay(PERConfig{Capacity: 4, Alpha: 1, Beta: 0.4, Eps: 1e-6})
	for i := 0; i < 4; i++ {
		p.Add(tr(float64(i)))
	}
	// Give transition 3 a much higher TD error.
	p.UpdatePriorities([]int{0, 1, 2, 3}, []float64{0.01, 0.01, 0.01, 10})
	rng := mathx.NewRNG(2)
	counts := map[float64]int{}
	for i := 0; i < 2000; i++ {
		trs, _, _ := sample(p, rng, 2)
		for _, x := range trs {
			counts[x.R]++
		}
	}
	if counts[3] < counts[0]*5 {
		t.Fatalf("high-priority transition undersampled: %v", counts)
	}
}

func TestPERImportanceWeightsNormalized(t *testing.T) {
	p := NewPrioritizedReplay(PERConfig{Capacity: 8, Alpha: 0.6, Beta: 0.4})
	for i := 0; i < 8; i++ {
		p.Add(tr(float64(i)))
	}
	p.UpdatePriorities([]int{0, 1, 2, 3, 4, 5, 6, 7},
		[]float64{1, 2, 3, 4, 5, 6, 7, 8})
	rng := mathx.NewRNG(3)
	for i := 0; i < 50; i++ {
		_, _, ws := sample(p, rng, 4)
		maxW := 0.0
		for _, w := range ws {
			if w <= 0 || w > 1+1e-9 {
				t.Fatalf("weight %v outside (0,1]", w)
			}
			if w > maxW {
				maxW = w
			}
		}
		if math.Abs(maxW-1) > 1e-9 {
			t.Fatalf("max weight %v, want 1", maxW)
		}
	}
}

func TestPERBetaAnneals(t *testing.T) {
	p := NewPrioritizedReplay(PERConfig{Capacity: 4, Alpha: 1, Beta: 0.4, BetaSteps: 10})
	for i := 0; i < 4; i++ {
		p.Add(tr(float64(i)))
	}
	if got := p.beta(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("initial beta %v", got)
	}
	rng := mathx.NewRNG(4)
	for i := 0; i < 20; i++ {
		sample(p, rng, 2)
	}
	if got := p.beta(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("annealed beta %v, want 1", got)
	}
}

func TestPERHandlesOutOfRangeUpdate(t *testing.T) {
	p := NewPrioritizedReplay(PERConfig{Capacity: 4})
	p.Add(tr(1))
	// Must not panic.
	p.UpdatePriorities([]int{-1, 100}, []float64{1, 1})
}

func TestPERSampleEmpty(t *testing.T) {
	p := NewPrioritizedReplay(PERConfig{Capacity: 4})
	trs, _, _ := sample(p, mathx.NewRNG(1), 2)
	if trs != nil {
		t.Fatal("empty PER should return nil")
	}
}

func TestPERWrapAroundOverwrites(t *testing.T) {
	p := NewPrioritizedReplay(PERConfig{Capacity: 2})
	p.Add(tr(1))
	p.Add(tr(2))
	p.Add(tr(3)) // overwrites slot 0
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	rng := mathx.NewRNG(5)
	for i := 0; i < 100; i++ {
		trs, _, _ := sample(p, rng, 1)
		if trs[0].R == 1 {
			t.Fatal("overwritten transition sampled")
		}
	}
}

// TestAddCopiesStateVectors: stored transitions must own their state memory
// so environments can reuse ping-pong state buffers across steps.
func TestAddCopiesStateVectors(t *testing.T) {
	s := []float64{1, 2, 3}
	next := []float64{4, 5, 6}
	for name, r := range map[string]Replay{
		"uniform": NewUniformReplay(4),
		"per":     NewPrioritizedReplay(PERConfig{Capacity: 4}),
	} {
		r.Add(Transition{S: s, NextS: next, A: 1, R: 1})
		s[0], next[0] = 99, 99
		trs, _, _ := sample(r, mathx.NewRNG(1), 1)
		if trs[0].S[0] != 1 || trs[0].NextS[0] != 4 {
			t.Fatalf("%s: stored transition aliases caller buffers: S[0]=%v NextS[0]=%v",
				name, trs[0].S[0], trs[0].NextS[0])
		}
		s[0], next[0] = 1, 4
	}
}

// TestAddZeroAllocSteadyState: after the first Add sizes the backing store,
// adding transitions must not allocate — the env step loop calls Add once
// per step (~130 B/step of garbage before state interning existed).
func TestAddZeroAllocSteadyState(t *testing.T) {
	s := []float64{1, 2, 3}
	next := []float64{4, 5, 6}
	for name, r := range map[string]Replay{
		"uniform": NewUniformReplay(64),
		"per":     NewPrioritizedReplay(PERConfig{Capacity: 64}),
	} {
		r.Add(Transition{S: s, NextS: next})
		allocs := testing.AllocsPerRun(100, func() {
			r.Add(Transition{S: s, NextS: next, A: 1, R: 0.5})
		})
		if allocs != 0 {
			t.Fatalf("%s: Add allocates %v times per call, want 0", name, allocs)
		}
	}
}

// TestSampleIntoOwnsStatesAcrossWraparound: a caller reusing one state
// buffer for every Add must not change what SampleInto returns, and each
// slot's bits must survive the ring overwriting its neighbours.
func TestSampleIntoOwnsStatesAcrossWraparound(t *testing.T) {
	const capacity, adds = 4, 11
	want := func(k float64) (s, next [3]float64) {
		return [3]float64{k, k + 0.5, -k}, [3]float64{k + 100, k / 3, math.Pi * k}
	}
	for name, r := range map[string]Replay{
		"uniform": NewUniformReplay(capacity),
		"per":     NewPrioritizedReplay(PERConfig{Capacity: capacity}),
	} {
		var s, next [3]float64
		for k := 0; k < adds; k++ {
			s, next = want(float64(k))
			r.Add(Transition{S: s[:], A: k % 2, R: float64(k), NextS: next[:], Done: k%3 == 0})
			s, next = [3]float64{-1, -1, -1}, [3]float64{-1, -1, -1}
		}
		trs := make([]Transition, 8)
		handles, ws := make([]int, 8), make([]float64, 8)
		rng := mathx.NewRNG(7)
		for round := 0; round < 50; round++ {
			if n := r.SampleInto(rng, trs, handles, ws); n != len(trs) {
				t.Fatalf("%s: SampleInto wrote %d, want %d", name, n, len(trs))
			}
			for _, got := range trs {
				k := int(got.R)
				if k < adds-capacity || got.A != k%2 || got.Done != (k%3 == 0) {
					t.Fatalf("%s: sampled stale or torn transition %+v", name, got)
				}
				wantS, wantNext := want(got.R)
				if [3]float64(got.S) != wantS || [3]float64(got.NextS) != wantNext {
					t.Fatalf("%s: transition %d states = %v / %v, want %v / %v", name, k, got.S, got.NextS, wantS, wantNext)
				}
			}
		}
	}
}

// TestSlotsOddLengthByReference: states whose length differs from the
// learned dimension are kept by reference, nil states stay nil, and a
// slot re-Put with regular states drops its by-reference ones.
func TestSlotsOddLengthByReference(t *testing.T) {
	st := NewSlots(2)
	st.Put(1, Transition{R: 1}) // before the dimension is known
	st.Put(0, Transition{S: []float64{1, 2, 3}, NextS: []float64{4, 5, 6}})
	if got := st.At(1); got.S != nil || got.NextS != nil || got.R != 1 {
		t.Fatalf("nil-state slot stored before the dimension = %+v, want nil states", got)
	}
	odd := []float64{7, 8}
	st.Put(1, Transition{S: odd, A: 1, Done: true})
	got := st.At(1)
	if len(got.S) != 2 || &got.S[0] != &odd[0] || got.NextS != nil || got.A != 1 || !got.Done {
		t.Fatalf("odd-length slot = %+v, want S by reference and nil NextS", got)
	}
	st.Put(1, Transition{S: []float64{9, 9, 9}, NextS: []float64{0, 0, 0}, R: 2})
	if got := st.At(1); [3]float64(got.S) != [3]float64{9, 9, 9} || [3]float64(got.NextS) != [3]float64{} || got.R != 2 {
		t.Fatalf("re-Put slot = %+v", got)
	}
	st.Put(0, Transition{R: 3})
	if got := st.At(0); got.S != nil || got.NextS != nil || got.R != 3 {
		t.Fatalf("nil-state slot = %+v, want nil states", got)
	}
}
