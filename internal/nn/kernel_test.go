package nn

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/mathx"
)

// withAsm runs f with the assembly kernels forced on or off. Tests in this
// package run serially, so toggling the package variable is safe.
func withAsm(t *testing.T, on bool, f func()) {
	t.Helper()
	if on && !haveAVX2FMA {
		t.Skip("no AVX2+FMA on this machine")
	}
	saved := useAsm
	useAsm = on
	defer func() { useAsm = saved }()
	f()
}

func randSlice(rng *mathx.RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestElementwiseAsmParity pins that the AVX element-wise kernels produce
// bit-identical results to their scalar Go loops across awkward lengths.
func TestElementwiseAsmParity(t *testing.T) {
	if !haveAVX2FMA {
		t.Skip("no AVX2+FMA on this machine")
	}
	rng := mathx.NewRNG(1)
	for _, n := range []int{1, 3, 4, 7, 8, 12, 15, 31, 64, 129} {
		x := randSlice(rng, n)
		xb := randSlice(rng, n)
		y0 := randSlice(rng, n)
		y1 := append([]float64(nil), y0...)
		withAsm(t, false, func() { axpy(1.7, x, y0) })
		withAsm(t, true, func() { axpy(1.7, x, y1) })
		if !bitsEqual(y0, y1) {
			t.Fatalf("axpy parity failed at n=%d", n)
		}
		y0 = randSlice(rng, n)
		y1 = append([]float64(nil), y0...)
		withAsm(t, false, func() { fmaAxpy(-0.9, x, y0) })
		withAsm(t, true, func() { fmaAxpy(-0.9, x, y1) })
		if !bitsEqual(y0, y1) {
			t.Fatalf("fmaAxpy parity failed at n=%d", n)
		}
		y0 = randSlice(rng, n)
		y1 = append([]float64(nil), y0...)
		withAsm(t, false, func() { fmaAxpy2(0.4, x, 2.5, xb, y0) })
		withAsm(t, true, func() { fmaAxpy2(0.4, x, 2.5, xb, y1) })
		if !bitsEqual(y0, y1) {
			t.Fatalf("fmaAxpy2 parity failed at n=%d", n)
		}
	}
}

// TestAdamAsmParity pins bit-identical Adam steps between the scalar loop
// and the AVX kernel.
func TestAdamAsmParity(t *testing.T) {
	if !haveAVX2FMA {
		t.Skip("no AVX2+FMA on this machine")
	}
	for _, n := range []int{5, 8, 13, 64, 257} {
		rng := mathx.NewRNG(int64(n))
		w := randSlice(rng, n)
		g1 := randSlice(rng, n)
		g2 := randSlice(rng, n)
		run := func(on bool) []float64 {
			p := &Param{W: append([]float64(nil), w...), G: append([]float64(nil), g1...)}
			opt := &Adam{LR: 3e-3}
			withAsm(t, on, func() {
				opt.Step([]*Param{p})
				copy(p.G, g2)
				opt.Step([]*Param{p})
			})
			return p.W
		}
		got, want := run(true), run(false)
		if !bitsEqual(got, want) {
			t.Fatalf("Adam parity failed at n=%d", n)
		}
	}
}

// TestGemmAsmParity pins that the FMA GEMM assembly matches the pure-Go
// math.FMA fallback bit for bit across shapes, strides, and both relu
// modes — the KernelFast portability guarantee.
func TestGemmAsmParity(t *testing.T) {
	if !haveAVX2FMA {
		t.Skip("no AVX2+FMA on this machine")
	}
	rng := mathx.NewRNG(9)
	shapes := []struct{ nb, in, out int }{
		{1, 4, 1}, {2, 8, 3}, {3, 5, 4}, {5, 17, 7}, {8, 32, 16}, {7, 13, 9},
	}
	for _, sh := range shapes {
		inP := pad4(sh.in)
		outP := pad4(sh.out)
		w := make([]float64, sh.out*inP)
		for o := 0; o < sh.out; o++ {
			copy(w[o*inP:o*inP+sh.in], randSlice(rng, sh.in))
		}
		bias := randSlice(rng, sh.out)
		x := make([]float64, sh.nb*inP)
		for s := 0; s < sh.nb; s++ {
			copy(x[s*inP:s*inP+sh.in], randSlice(rng, sh.in))
		}
		for _, relu := range []bool{false, true} {
			y0 := make([]float64, sh.nb*outP)
			y1 := make([]float64, sh.nb*outP)
			withAsm(t, false, func() { fwdLayerFast(w, bias, x, y0, sh.nb, inP, sh.out, outP, relu) })
			withAsm(t, true, func() { fwdLayerFast(w, bias, x, y1, sh.nb, inP, sh.out, outP, relu) })
			if !bitsEqual(y0, y1) {
				t.Fatalf("gemm parity failed at %+v relu=%v", sh, relu)
			}
		}
	}
}

// trainSteps runs a fixed sequence of batched forward/backward/clip/step
// iterations and returns the serialized weights.
func trainSteps(t *testing.T) []byte {
	t.Helper()
	cfg := Config{Inputs: 7, Hidden: []int{32, 16}, Outputs: 3, Dueling: true, Seed: 11}
	n := New(cfg)
	opt := &Adam{LR: 3e-3}
	const nb = 8
	s := n.NewBatchScratch(nb)
	rng := mathx.NewRNG(5)
	xs := make([]float64, nb*cfg.Inputs)
	dOut := make([]float64, nb*cfg.Outputs)
	for step := 0; step < 25; step++ {
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		q := n.ForwardBatchInto(s, xs, nb)
		for i := range dOut {
			dOut[i] = 0
		}
		for b := 0; b < nb; b++ {
			a := b % cfg.Outputs
			dOut[b*cfg.Outputs+a] = q[b*cfg.Outputs+a] - rng.NormFloat64()
		}
		n.ZeroGrad()
		n.BackwardBatch(s, dOut, nb)
		ClipGradNorm(n.Params(), 10)
		opt.Step(n.Params())
		n.InvalidateFast()
	}
	blob, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestKernelFastAsmFallbackParity proves the KernelFast portability pin:
// the same training sequence under KernelFast is byte-identical between the
// assembly kernels and the pure-Go math.FMA fallbacks.
func TestKernelFastAsmFallbackParity(t *testing.T) {
	if !haveAVX2FMA {
		t.Skip("no AVX2+FMA on this machine")
	}
	var withA, withoutA []byte
	withAsm(t, true, func() { withA = trainSteps(t) })
	withAsm(t, false, func() { withoutA = trainSteps(t) })
	if !bytes.Equal(withA, withoutA) {
		t.Fatal("KernelFast weights differ between asm and Go fallback")
	}
}

// TestKernelFastForwardMatchesReference checks the KernelFast batched
// forward pass numerically against the scalar single-input path that
// serves decisions (different roundings, so compare with tolerance).
func TestKernelFastForwardMatchesReference(t *testing.T) {
	cfg := Config{Inputs: 7, Hidden: []int{32, 16}, Outputs: 3, Dueling: true, Seed: 2}
	n := New(cfg)
	const nb = 6
	rng := mathx.NewRNG(3)
	xs := randSlice(rng, nb*cfg.Inputs)
	qFast := n.ForwardBatchInto(n.NewBatchScratch(nb), xs, nb)
	scr := n.NewScratch()
	for b := 0; b < nb; b++ {
		qRef := n.ForwardInto(scr, xs[b*cfg.Inputs:(b+1)*cfg.Inputs])
		for o, want := range qRef {
			got := qFast[b*cfg.Outputs+o]
			if d := math.Abs(want - got); d > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("fast forward diverged at sample %d output %d: %v vs %v", b, o, got, want)
			}
		}
	}
}

// TestGradShadowAccumulates pins GradShadow semantics: shadows share
// weights with the owner, accumulate gradients privately, and the
// chunk-index-ordered reduction is independent of which shadow computed
// which chunk in which order — the worker-schedule invariance the chunked
// trainer relies on.
func TestGradShadowAccumulates(t *testing.T) {
	cfg := Config{Inputs: 5, Hidden: []int{8}, Outputs: 3, Dueling: true, Seed: 4}
	n := New(cfg)
	n.EnsureFast()
	const nb = 4
	rng := mathx.NewRNG(6)
	xs := randSlice(rng, 2*nb*cfg.Inputs)
	dOut := randSlice(rng, 2*nb*cfg.Outputs)

	chunk := func(sh *Network, s *BatchScratch, c int) {
		sh.ForwardBatchInto(s, xs[c*nb*cfg.Inputs:(c+1)*nb*cfg.Inputs], nb)
		sh.BackwardBatch(s, dOut[c*nb*cfg.Outputs:(c+1)*nb*cfg.Outputs], nb)
	}

	// Schedule 1: shadow a computes chunk 0 first, shadow b chunk 1.
	a, b := n.GradShadow(), n.GradShadow()
	sA := a.NewBatchScratch(nb)
	sB := b.NewBatchScratch(nb)
	chunk(a, sA, 0)
	chunk(b, sB, 1)
	n.ZeroGrad()
	AccumulateGrads(n.Params(), a.Params())
	AccumulateGrads(n.Params(), b.Params())
	want := make([][]float64, len(n.Params()))
	for i, p := range n.Params() {
		want[i] = append([]float64(nil), p.G...)
	}

	// Schedule 2: opposite assignment and compute order; the reduction
	// still walks chunk 0 then chunk 1.
	c, d := n.GradShadow(), n.GradShadow()
	sC := c.NewBatchScratch(nb)
	sD := d.NewBatchScratch(nb)
	chunk(d, sD, 1)
	chunk(c, sC, 0)
	n.ZeroGrad()
	AccumulateGrads(n.Params(), c.Params())
	AccumulateGrads(n.Params(), d.Params())
	for i, p := range n.Params() {
		if !bitsEqual(p.G, want[i]) {
			t.Fatalf("chunk-ordered reduction depends on worker schedule at param %d", i)
		}
	}

	// Weight sharing: mutating the owner must be visible to shadows
	// (after the owner's padded image is refreshed).
	n.Params()[0].W[0] += 0.5
	n.InvalidateFast()
	n.EnsureFast()
	q1 := append([]float64(nil), a.ForwardBatchInto(sA, xs[:nb*cfg.Inputs], nb)...)
	q2 := n.ForwardBatchInto(n.NewBatchScratch(nb), xs[:nb*cfg.Inputs], nb)
	if !bitsEqual(q1, q2) {
		t.Fatal("shadow forward does not track owner weights")
	}
}

// TestBackLayerAsmParity pins that the fused backward kernels (bgradFMAAVX,
// dxFMAAVX) match the pure-Go fmaAxpy loops bit for bit across shapes, with
// dy containing exact zeros (which must be skipped) and NaN (which must not
// be — NaN != 0).
func TestBackLayerAsmParity(t *testing.T) {
	if !haveAVX2FMA {
		t.Skip("no AVX2+FMA on this machine")
	}
	rng := mathx.NewRNG(17)
	shapes := []struct{ nb, in, out int }{
		{1, 4, 1}, {8, 16, 3}, {8, 16, 1}, {8, 28, 32}, {16, 32, 16},
		{5, 12, 7}, {8, 20, 9}, {3, 36, 5}, {8, 64, 8},
		{8, 15, 32}, {8, 15, 3}, {4, 7, 5}, {6, 2, 3}, {3, 1, 4}, {8, 23, 16},
		{5, 30, 11},
	}
	for si, sh := range shapes {
		inP := pad4(sh.in)
		mk := func() (*dense, []float64, []float64, []float64) {
			d := &dense{
				in: sh.in, out: sh.out,
				w: &Param{W: randSlice(rng, sh.out*sh.in), G: randSlice(rng, sh.out*sh.in)},
				b: &Param{W: randSlice(rng, sh.out), G: randSlice(rng, sh.out)},
			}
			x := make([]float64, sh.nb*inP)
			for s := 0; s < sh.nb; s++ {
				copy(x[s*inP:s*inP+sh.in], randSlice(rng, sh.in))
			}
			dy := randSlice(rng, sh.nb*sh.out)
			for i := range dy {
				switch i % 5 {
				case 1:
					dy[i] = 0
				case 3:
					if i%10 == 3 {
						dy[i] = math.NaN()
					}
				}
			}
			return d, x, dy, make([]float64, sh.nb*sh.in)
		}
		// Identical inputs for both runs: rebuild from one saved state.
		d0, x, dy, _ := mk()
		clone := func() (*dense, []float64) {
			d := &dense{
				in: d0.in, out: d0.out,
				w: &Param{W: append([]float64(nil), d0.w.W...), G: append([]float64(nil), d0.w.G...)},
				b: &Param{W: append([]float64(nil), d0.b.W...), G: append([]float64(nil), d0.b.G...)},
			}
			return d, make([]float64, sh.nb*sh.in)
		}
		dGo, dxGo := clone()
		dAsm, dxAsm := clone()
		withAsm(t, false, func() { backLayerFast(dGo, x, inP, dy, dxGo, sh.nb) })
		withAsm(t, true, func() { backLayerFast(dAsm, x, inP, dy, dxAsm, sh.nb) })
		for _, pair := range []struct {
			name      string
			got, want []float64
		}{
			{"w.G", dAsm.w.G, dGo.w.G},
			{"b.G", dAsm.b.G, dGo.b.G},
			{"dx", dxAsm, dxGo},
		} {
			if len(pair.got) != len(pair.want) {
				t.Fatalf("shape %d %+v: %s length mismatch", si, sh, pair.name)
			}
			for i := range pair.got {
				gb, wb := math.Float64bits(pair.got[i]), math.Float64bits(pair.want[i])
				if gb != wb && !(math.IsNaN(pair.got[i]) && math.IsNaN(pair.want[i])) {
					t.Fatalf("shape %d %+v: %s[%d] = %v (asm) vs %v (go)",
						si, sh, pair.name, i, pair.got[i], pair.want[i])
				}
			}
		}
	}
}

// TestReluMaskAsmParity pins that the branch-free compare-and-mask kernel
// matches the scalar `if act <= 0 { dy = 0 }` loop bit for bit, including
// ±0 and NaN activations (NaN keeps dy; zeros of either sign clear it).
func TestReluMaskAsmParity(t *testing.T) {
	if !haveAVX2FMA {
		t.Skip("no AVX2+FMA on this machine")
	}
	rng := mathx.NewRNG(23)
	for _, n := range []int{4, 8, 32, 128, 252} {
		act := randSlice(rng, n)
		dy := randSlice(rng, n)
		for i := range act {
			switch i % 7 {
			case 1:
				act[i] = 0
			case 2:
				act[i] = math.Copysign(0, -1)
			case 3:
				act[i] = math.NaN()
			case 4:
				act[i] = -act[i] * act[i]
			}
			if i%5 == 0 {
				dy[i] = -dy[i]
			}
			if i%11 == 3 {
				dy[i] = math.NaN()
			}
		}
		want := append([]float64(nil), dy...)
		for i, a := range act {
			if a <= 0 {
				want[i] = 0
			}
		}
		got := append([]float64(nil), dy...)
		reluMaskAVX(&got[0], &act[0], n)
		for i := range want {
			gb, wb := math.Float64bits(got[i]), math.Float64bits(want[i])
			if gb != wb && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("n=%d i=%d act=%v: got %x want %x", n, i, act[i], gb, wb)
			}
		}
	}
}

// gemvValue draws a weight or input spanning 1e-4..1e4 in magnitude with a
// random sign, and now and then one of the IEEE edge values the kernel must
// round exactly like dot: ±0, ±Inf and subnormals.
func gemvValue(rng *mathx.RNG) float64 {
	specials := [...]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1030}
	if rng.Intn(50) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	v := math.Pow(10, 8*rng.Float64()-4)
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// sameBits compares a and b bit for bit, except that where a NaN is
// involved both must merely be NaN (payload propagation is not pinned).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			if !math.IsNaN(a[i]) || !math.IsNaN(b[i]) {
				return false
			}
		} else if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestGemvMatchesDot pins the single-input serving kernel: dense.forward
// through gemvAVX must reproduce the scalar dot rows bit for bit at every
// input width (covering each in%4 tail) and output count (covering the
// 4-row quads and the dot remainder rows), with and without the fused
// ReLU, and so must whole ForwardInto passes at the learner and paper
// network shapes. Some rows get a NaN bias or an all-zero row, so the
// ReLU sees NaN and exactly +0 pre-activations; it must turn both into +0
// as the Go rule !(v > 0) does. (A pre-activation is never -0: dot's
// lanes start at +0, and -0 + +0 rounds to +0.)
func TestGemvMatchesDot(t *testing.T) {
	if !haveAVX2FMA {
		t.Skip("no AVX2+FMA on this machine")
	}
	rng := mathx.NewRNG(21)
	fill := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = gemvValue(rng)
		}
		return out
	}
	for in := 1; in <= 67; in++ {
		for _, out := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32, 256} {
			d := &dense{in: in, out: out, w: &Param{W: fill(in * out)}, b: &Param{W: fill(out)}}
			for o := 0; o < out; o++ {
				switch rng.Intn(6) {
				case 0:
					d.b.W[o] = math.NaN()
				case 1:
					clear(d.w.W[o*in : (o+1)*in])
					d.b.W[o] = math.Copysign(0, float64(rng.Intn(2)*2-1))
				}
			}
			x := fill(in)
			for _, relu := range []bool{false, true} {
				want := make([]float64, out)
				got := make([]float64, out)
				withAsm(t, false, func() { d.forward(x, want, relu) })
				withAsm(t, true, func() { d.forward(x, got, relu) })
				if !sameBits(want, got) {
					t.Fatalf("in=%d out=%d relu=%v: gemv %v, dot %v", in, out, relu, got, want)
				}
				for o, v := range want {
					if relu && (math.IsNaN(v) || math.Float64bits(v) == math.Float64bits(math.Copysign(0, -1))) {
						t.Fatalf("in=%d out=%d: ReLU row %d is %v, want +0 or positive", in, out, o, v)
					}
				}
			}
		}
	}
	for _, cfg := range []Config{
		{Inputs: 15, Hidden: []int{32, 16}, Outputs: 2, Dueling: true, Seed: 1},
		{Inputs: 15, Hidden: []int{256, 256, 128, 64}, Outputs: 2, Dueling: true, Seed: 2},
	} {
		n := New(cfg)
		s := n.NewScratch()
		for trial := 0; trial < 50; trial++ {
			x := randSlice(rng, cfg.Inputs)
			var want, got []float64
			withAsm(t, false, func() { want = append(want, n.ForwardInto(s, x)...) })
			withAsm(t, true, func() { got = append(got, n.ForwardInto(s, x)...) })
			if !sameBits(want, got) {
				t.Fatalf("hidden %v trial %d: asm %v, scalar %v", cfg.Hidden, trial, got, want)
			}
		}
	}
}
