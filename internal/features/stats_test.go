package features

import (
	"math"
	"testing"
)

func statsVec(vals ...float64) Vector {
	var v Vector
	for i, x := range vals {
		v[i] = x
	}
	return v
}

func TestSummaryStatsMeanVariance(t *testing.T) {
	var s SummaryStats
	samples := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range samples {
		s.Observe(statsVec(x))
	}
	if got := s.Count(); got != len(samples) {
		t.Fatalf("Count = %d, want %d", got, len(samples))
	}
	if got := s.Mean(0); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Population variance of the classic example is exactly 4.
	if got := s.Variance(0); math.Abs(got-4) > 1e-12 {
		t.Fatalf("Variance = %v, want 4", got)
	}
	// Untouched dimensions stay at zero mean/variance.
	if s.Mean(1) != 0 || s.Variance(1) != 0 {
		t.Fatalf("untouched dim moved: mean=%v var=%v", s.Mean(1), s.Variance(1))
	}
}

func TestSummaryStatsVarianceNeedsTwoSamples(t *testing.T) {
	var s SummaryStats
	if s.Variance(0) != 0 {
		t.Fatalf("empty variance = %v, want 0", s.Variance(0))
	}
	s.Observe(statsVec(42))
	if s.Variance(0) != 0 {
		t.Fatalf("one-sample variance = %v, want 0", s.Variance(0))
	}
	s.Observe(statsVec(44))
	s.Reset()
	if s.Count() != 0 || s.Mean(0) != 0 || s.Variance(0) != 0 {
		t.Fatal("Reset did not clear the accumulator")
	}
}
