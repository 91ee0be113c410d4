package mathx

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.3); math.Abs(got-3) > 1e-12 {
		t.Errorf("interpolated quantile = %v, want 3", got)
	}
}

func TestMeanSum(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 3, 3, 2}) != 1 {
		t.Error("ArgMax should break ties low")
	}
	if ArgMax([]float64{-5}) != 0 {
		t.Error("single element")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	g := NewRNG(5)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = g.NormFloat64()
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := Quantile(xs, q)
		if v < prev-1e-12 {
			t.Fatalf("quantile not monotone at q=%v", q)
		}
		prev = v
	}
}
