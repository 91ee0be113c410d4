package nn

import (
	"math"
	"testing"
)

// quadratic sets up a single-parameter problem minimizing 0.5*(w-3)^2.
func quadratic() *Param {
	return &Param{W: []float64{0}, G: []float64{0}}
}

func optimize(t *testing.T, opt *Adam, steps int) float64 {
	t.Helper()
	p := quadratic()
	ps := []*Param{p}
	for i := 0; i < steps; i++ {
		p.G[0] = p.W[0] - 3
		opt.Step(ps)
		p.G[0] = 0
	}
	return p.W[0]
}

func TestAdamConverges(t *testing.T) {
	w := optimize(t, &Adam{LR: 0.05}, 2000)
	if math.Abs(w-3) > 1e-3 {
		t.Fatalf("Adam converged to %v", w)
	}
}

func TestAdamDefaults(t *testing.T) {
	// Zero-value hyperparameters must fall back to standard defaults rather
	// than producing NaNs.
	w := optimize(t, &Adam{LR: 0.1}, 500)
	if math.IsNaN(w) {
		t.Fatal("Adam produced NaN with default betas")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := &Param{W: []float64{0, 0}, G: []float64{3, 4}}
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v, want 5", norm)
	}
	got := math.Sqrt(p.G[0]*p.G[0] + p.G[1]*p.G[1])
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("post-clip norm %v, want 1", got)
	}
	// Below the threshold, gradients are untouched.
	p2 := &Param{W: []float64{0}, G: []float64{0.5}}
	ClipGradNorm([]*Param{p2}, 1)
	if p2.G[0] != 0.5 {
		t.Fatal("clip modified small gradient")
	}
	// maxNorm <= 0 disables clipping.
	p3 := &Param{W: []float64{0}, G: []float64{100}}
	ClipGradNorm([]*Param{p3}, 0)
	if p3.G[0] != 100 {
		t.Fatal("maxNorm=0 should disable clipping")
	}
}

func TestHuberLoss(t *testing.T) {
	// Inside the quadratic region.
	l, d := HuberLoss(1, 0.5, 1)
	if math.Abs(l-0.125) > 1e-12 || math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("huber quad: l=%v d=%v", l, d)
	}
	// Outside: linear with bounded derivative.
	l, d = HuberLoss(5, 0, 1)
	if math.Abs(l-4.5) > 1e-12 || d != 1 {
		t.Fatalf("huber lin: l=%v d=%v", l, d)
	}
	l, d = HuberLoss(-5, 0, 1)
	if math.Abs(l-4.5) > 1e-12 || d != -1 {
		t.Fatalf("huber lin neg: l=%v d=%v", l, d)
	}
	// Zero error.
	l, d = HuberLoss(2, 2, 1)
	if l != 0 || d != 0 {
		t.Fatalf("huber zero: l=%v d=%v", l, d)
	}
}

func TestHuberDerivativeMatchesNumeric(t *testing.T) {
	const h = 1e-7
	for _, pred := range []float64{-3, -0.4, 0, 0.4, 3} {
		lUp, _ := HuberLoss(pred+h, 0, 1)
		lDown, _ := HuberLoss(pred-h, 0, 1)
		num := (lUp - lDown) / (2 * h)
		_, d := HuberLoss(pred, 0, 1)
		if math.Abs(num-d) > 1e-5 {
			t.Fatalf("pred=%v numeric %v analytic %v", pred, num, d)
		}
	}
}
