package nn

import "math"

// Adam implements Adam (Kingma & Ba) with bias correction. The two
// per-element bias-correction divides are replaced by precomputed
// reciprocals, w -= LR*(m*rc1)/(sqrt(v*rc2)+eps) with rc1 = 1/c1 and
// rc2 = 1/c2, which is part of the KernelFast rounding stream.
type Adam struct {
	LR    float64
	Beta1 float64 // default 0.9
	Beta2 float64 // default 0.999
	Eps   float64 // default 1e-8
	t     int
	m, v  [][]float64
}

// Step applies one update using the gradients currently accumulated in
// params and leaves the gradients untouched (callers ZeroGrad between
// batches). Adam keeps per-parameter state keyed by position, so it must
// always be used with the same parameter list.
//
//uerl:hotpath
func (o *Adam) Step(params []*Param) {
	if o.m == nil {
		o.m = makeState(params)
		o.v = makeState(params)
	}
	b1 := o.Beta1
	if b1 == 0 {
		b1 = 0.9
	}
	b2 := o.Beta2
	if b2 == 0 {
		b2 = 0.999
	}
	eps := o.Eps
	if eps == 0 {
		eps = 1e-8
	}
	o.t++
	c1 := 1 - math.Pow(b1, float64(o.t))
	c2 := 1 - math.Pow(b2, float64(o.t))
	rc1, rc2 := 1/c1, 1/c2
	for pi, p := range params {
		w := p.W
		gs := p.G[:len(w)]
		m := o.m[pi][:len(w)]
		v := o.v[pi][:len(w)]
		i := 0
		if useAsm && len(w) >= 8 {
			// Bit-identical to the scalar loop: all operations are
			// element-wise and applied in the same order per element.
			n4 := len(w) &^ 3
			adamAVX(&w[0], &gs[0], &m[0], &v[0], n4,
				o.LR, b1, 1-b1, b2, 1-b2, eps, rc1, rc2)
			i = n4
		}
		for ; i < len(w); i++ {
			g := gs[i]
			m[i] = float64(b1*m[i]) + float64((1-b1)*g)
			v[i] = float64(b2*v[i]) + float64((1-b2)*g*g)
			w[i] -= o.LR * (m[i] * rc1) / (math.Sqrt(v[i]*rc2) + eps)
		}
	}
}

func makeState(params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = make([]float64, len(p.W))
	}
	return out
}

// ClipGradNorm rescales the accumulated gradients so their global L2 norm is
// at most maxNorm, returning the pre-clip norm. maxNorm <= 0 disables
// clipping.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.G {
			total += float64(g * g)
		}
	}
	norm := math.Sqrt(total)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / (norm + 1e-12)
		for _, p := range params {
			for i := range p.G {
				p.G[i] *= scale
			}
		}
	}
	return norm
}
