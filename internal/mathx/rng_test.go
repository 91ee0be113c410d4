package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	g := NewRNG(7)
	f1 := g.Fork()
	f2 := g.Fork()
	// Consuming from f1 must not change f2's stream.
	want := make([]float64, 10)
	probe := NewRNG(7)
	probe.Fork() // advance past f1's seed draw
	f2clone := probe.Fork()
	for i := range want {
		want[i] = f2clone.Float64()
	}
	for i := 0; i < 100; i++ {
		f1.Float64()
	}
	for i := range want {
		if got := f2.Float64(); got != want[i] {
			t.Fatalf("fork streams not independent at %d: got %v want %v", i, got, want[i])
		}
	}
}

func TestPoissonMean(t *testing.T) {
	g := NewRNG(3)
	for _, mean := range []float64{0.5, 4, 20, 200} {
		xs := make([]float64, 20000)
		for i := range xs {
			xs[i] = float64(g.Poisson(mean))
		}
		if m := Mean(xs); math.Abs(m-mean) > 4*math.Sqrt(mean/20000)+0.5 {
			t.Errorf("Poisson(%v) sample mean %v too far", mean, m)
		}
	}
}

func TestPoissonEdge(t *testing.T) {
	g := NewRNG(3)
	if got := g.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := g.Poisson(-1); got != 0 {
		t.Errorf("Poisson(-1) = %d, want 0", got)
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(9)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = g.Exponential(3.0)
	}
	if m := Mean(xs); math.Abs(m-3.0) > 0.15 {
		t.Errorf("Exponential(3) sample mean %v", m)
	}
	if g.Exponential(0) != 0 || g.Exponential(-2) != 0 {
		t.Error("non-positive mean should return 0")
	}
}

func TestLogNormalMedian(t *testing.T) {
	g := NewRNG(11)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = g.LogNormal(2, 1)
	}
	med := Quantile(xs, 0.5)
	want := math.Exp(2.0)
	if math.Abs(med-want)/want > 0.1 {
		t.Errorf("LogNormal median %v, want about %v", med, want)
	}
}

func TestBoundedParetoRange(t *testing.T) {
	g := NewRNG(13)
	for i := 0; i < 10000; i++ {
		v := g.BoundedPareto(1.2, 1, 1000)
		if v < 1 || v > 1000 {
			t.Fatalf("BoundedPareto out of range: %v", v)
		}
	}
	if got := g.BoundedPareto(1.2, 5, 5); got != 5 {
		t.Errorf("degenerate range should return lo, got %v", got)
	}
}

func TestBoundedParetoHeavyTail(t *testing.T) {
	g := NewRNG(17)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = g.BoundedPareto(1.0, 1, 10000)
	}
	med := Quantile(xs, 0.5)
	p99 := Quantile(xs, 0.99)
	if p99/med < 20 {
		t.Errorf("expected heavy tail: median %v p99 %v", med, p99)
	}
}

func TestGeometric(t *testing.T) {
	g := NewRNG(19)
	if g.Geometric(1) != 0 {
		t.Error("Geometric(1) must be 0")
	}
	xs := make([]float64, 30000)
	for i := range xs {
		xs[i] = float64(g.Geometric(0.25))
	}
	// Mean of geometric(failures) is (1-p)/p = 3.
	if m := Mean(xs); math.Abs(m-3) > 0.2 {
		t.Errorf("Geometric(0.25) mean %v, want about 3", m)
	}
}

func TestWeightedChoice(t *testing.T) {
	g := NewRNG(23)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[g.WeightedChoice([]float64{1, 2, 7})]++
	}
	if !(counts[2] > counts[1] && counts[1] > counts[0]) {
		t.Errorf("weighted choice ordering wrong: %v", counts)
	}
	// All-zero weights fall back to uniform and must not panic.
	idx := g.WeightedChoice([]float64{0, 0})
	if idx != 0 && idx != 1 {
		t.Errorf("uniform fallback out of range: %d", idx)
	}
}

func TestWeightedChoiceNegativeIgnored(t *testing.T) {
	g := NewRNG(29)
	for i := 0; i < 1000; i++ {
		if got := g.WeightedChoice([]float64{-5, 0, 3}); got != 2 {
			t.Fatalf("negative weight selected: index %d", got)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	g := NewRNG(31)
	n := 0
	for i := 0; i < 10000; i++ {
		if g.Bool(0.3) {
			n++
		}
	}
	if n < 2700 || n > 3300 {
		t.Errorf("Bool(0.3) hit %d/10000", n)
	}
}

func TestPoissonNonNegativeProperty(t *testing.T) {
	g := NewRNG(37)
	f := func(mean float64) bool {
		m := math.Mod(math.Abs(mean), 500)
		return g.Poisson(m) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
