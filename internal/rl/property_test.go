package rl

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

// TestSumTreeTotalInvariant: after any sequence of sets, the root equals
// the sum of the leaves.
func TestSumTreeTotalInvariant(t *testing.T) {
	f := func(updates []float64) bool {
		st := newSumTree(16)
		want := make([]float64, 16)
		for i, p := range updates {
			leaf := i % 16
			v := math.Abs(p)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			// Keep magnitudes bounded so float error stays tiny.
			v = math.Mod(v, 1000)
			st.set(leaf, v)
			want[leaf] = v
		}
		sum := 0.0
		for _, v := range want {
			sum += v
		}
		return math.Abs(st.total()-sum) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSumTreeFindInRange: find always returns a leaf whose priority is
// positive (never an empty leaf) for any mass within the total.
func TestSumTreeFindInRange(t *testing.T) {
	st := newSumTree(8)
	st.set(1, 2)
	st.set(5, 3)
	rng := mathx.NewRNG(1)
	for i := 0; i < 2000; i++ {
		leaf := st.find(rng.Float64() * st.total())
		if leaf != 1 && leaf != 5 {
			t.Fatalf("find returned empty leaf %d", leaf)
		}
	}
}

// TestPERWeightsBounded: importance weights are always in (0, 1] whatever
// the priority pattern.
func TestPERWeightsBounded(t *testing.T) {
	f := func(prios []float64) bool {
		p := NewPrioritizedReplay(PERConfig{Capacity: 8, Alpha: 0.7, Beta: 0.5})
		for i := 0; i < 8; i++ {
			p.Add(Transition{S: []float64{0}, NextS: []float64{0}, Done: true})
		}
		handles := make([]int, 0, len(prios))
		vals := make([]float64, 0, len(prios))
		for i, pr := range prios {
			if math.IsNaN(pr) || math.IsInf(pr, 0) {
				pr = 0
			}
			handles = append(handles, i%8)
			vals = append(vals, pr)
		}
		p.UpdatePriorities(handles, vals)
		rng := mathx.NewRNG(7)
		_, _, ws := sample(p, rng, 4)
		for _, w := range ws {
			if !(w > 0 && w <= 1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEpsilonScheduleBounded: epsilon stays within [min(start,end),
// max(start,end)] at every step.
func TestEpsilonScheduleBounded(t *testing.T) {
	f := func(step int) bool {
		if step < 0 {
			step = -step
		}
		e := EpsilonSchedule{Start: 1, End: 0.05, DecaySteps: 1000}
		v := e.At(step % 100000)
		return v >= 0.05-1e-12 && v <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
