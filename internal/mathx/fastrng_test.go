package mathx

import "testing"

// TestFastRNGDeterministic pins that two fast RNGs from the same seed
// produce identical streams across every distribution helper.
func TestFastRNGDeterministic(t *testing.T) {
	a, b := NewFastRNG(42), NewFastRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Float64(), b.Float64(); av != bv {
			t.Fatalf("Float64 diverged at %d: %v vs %v", i, av, bv)
		}
		if av, bv := a.NormFloat64(), b.NormFloat64(); av != bv {
			t.Fatalf("NormFloat64 diverged at %d: %v vs %v", i, av, bv)
		}
		if av, bv := a.Intn(97), b.Intn(97); av != bv {
			t.Fatalf("Intn diverged at %d: %v vs %v", i, av, bv)
		}
	}
}

// TestFastRNGForkDeterministic pins that forked children are deterministic
// and independent of sibling consumption, matching the Fork contract of the
// default source.
func TestFastRNGForkDeterministic(t *testing.T) {
	a, b := NewFastRNG(7), NewFastRNG(7)
	ca1, ca2 := a.Fork(), a.Fork()
	_, cb2 := b.Fork(), b.Fork()
	if ca1.fast == nil || ca2.fast == nil {
		t.Fatal("fast RNG forked a non-fast child")
	}
	// Drain ca1 heavily; ca2 must still match cb2 exactly.
	for i := 0; i < 500; i++ {
		ca1.Float64()
	}
	for i := 0; i < 200; i++ {
		if av, bv := ca2.Intn(1<<62), cb2.Intn(1<<62); av != bv {
			t.Fatalf("sibling fork diverged at %d: %v vs %v", i, av, bv)
		}
	}
}

// TestFastRNGDistinctSeeds is a smoke test that different seeds give
// different streams (catches degenerate state initialization).
func TestFastRNGDistinctSeeds(t *testing.T) {
	a, b := NewFastRNG(1), NewFastRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Intn(1<<62) == b.Intn(1<<62) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 collide on %d/64 outputs", same)
	}
}

// TestFastRNGUniformity sanity-checks the mean of Float64 draws.
func TestFastRNGUniformity(t *testing.T) {
	g := NewFastRNG(123)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += g.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

// BenchmarkRNGFork measures the default source's Fork cost (the ~4.9 KB
// lagged-Fibonacci reseed) against the PCG fast path.
func BenchmarkRNGFork(b *testing.B) {
	b.Run("default", func(b *testing.B) {
		g := NewRNG(1)
		for i := 0; i < b.N; i++ {
			_ = g.Fork()
		}
	})
	b.Run("fast", func(b *testing.B) {
		g := NewFastRNG(1)
		for i := 0; i < b.N; i++ {
			_ = g.Fork()
		}
	})
}
