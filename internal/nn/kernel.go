package nn

import "math"

// Kernel/stream versions. A kernel version names a complete, pinned
// arithmetic stream: the exact sequence of floating-point operations (and
// therefore roundings) a training run performs. Changing any rounding —
// fusing a multiply-add, reassociating a reduction, precomputing a
// reciprocal — changes trained weights bit-for-bit, so every such change
// needs a new version. Model artifacts record the version their weights
// were trained under.
//
// Results are deterministic at every version; the versions differ only in
// which (equally valid) rounding sequence they pin.
const (
	// KernelReference identifies legacy artifacts, trained under the
	// original serial stream: unfused multiply-adds, dot's 4-lane
	// reduction, Adam with per-element divides and math/rand sources.
	// Nothing trains under it any more; its per-sample step survives only
	// as the test oracle the KernelFast stream is checked against.
	KernelReference = 1
	// KernelFast is the training stream: FMA row-blocked forward GEMM
	// over zero-padded weights, FMA gradient accumulation, Adam with
	// precomputed reciprocal bias corrections, the O(copy)-forkable PCG RNG
	// source, exp(p*log(x)) prioritized-replay powers, fixed-size minibatch
	// chunking with in-order gradient reduction, and vectorized environment
	// stepping. It is deterministic for every worker count and GOMAXPROCS,
	// and bit-identical between the AVX2 kernels and their pure-Go
	// math.FMA fallbacks.
	KernelFast = 2
)

// ValidKernel reports whether k names a known kernel version.
func ValidKernel(k int) bool { return k == KernelReference || k == KernelFast }

// useAsm selects the AVX2/FMA assembly kernels. It is set once at init on
// amd64 CPUs with AVX2+FMA (and OS AVX state support) and is a variable
// only so parity tests can force the pure-Go fallbacks.
var useAsm = haveAVX2FMA

// pad4 rounds a row width up to the 4-lane vector width the padded kernels
// process. Padded lanes hold zeros, which are exact no-ops under FMA
// accumulation from a +0 start (fma(0, 0, acc) == acc bit-for-bit, and acc
// can never become -0 because every partial sum starts at +0).
func pad4(n int) int { return (n + 3) &^ 3 }

// fmaAxpy accumulates y[i] = fma(alpha, x[i], y[i]) — the training
// stream's gradient-accumulation kernel. Element-wise, so the vector form is
// bit-identical to this scalar definition.
//
//uerl:hotpath
func fmaAxpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	if useAsm && len(x) >= 4 {
		n4 := len(x) &^ 3
		axpyFMAAVX(alpha, &x[0], &y[0], n4)
		for i := n4; i < len(x); i++ {
			y[i] = math.FMA(alpha, x[i], y[i])
		}
		return
	}
	for i := range x {
		y[i] = math.FMA(alpha, x[i], y[i])
	}
}

// fmaAxpy2 accumulates y = fma(b, xb, fma(a, xa, y)) element-wise: the
// blocked form of two sequential fmaAxpy calls.
//
//uerl:hotpath
func fmaAxpy2(a float64, xa []float64, b float64, xb, y []float64) {
	y = y[:len(xa)]
	xb = xb[:len(xa)]
	if useAsm && len(xa) >= 4 {
		n4 := len(xa) &^ 3
		axpy2FMAAVX(a, &xa[0], b, &xb[0], &y[0], n4)
		for i := n4; i < len(xa); i++ {
			y[i] = math.FMA(b, xb[i], math.FMA(a, xa[i], y[i]))
		}
		return
	}
	for i := range xa {
		y[i] = math.FMA(b, xb[i], math.FMA(a, xa[i], y[i]))
	}
}

// fwdLayerFast computes the batched forward GEMM for one layer over nb
// samples: y[s*outP+o] = relu?(bias[o] + Σ_k w[o*inP+k]*x[s*inP+k]) with
// the sum accumulated in four independent FMA lanes combined as
// (l0+l1)+(l2+l3). w rows and x rows are zero-padded to inP (a multiple of
// 4), so the kernel has no scalar tail. The ReLU is max(sum, +0): non-
// positive sums (and NaN) become +0, matching the VMAXSD semantics of the
// assembly exactly.
//
// The assembly path and this Go fallback share the identical lane
// structure, so outputs are bit-identical with or without AVX2.
//
//uerl:hotpath
func fwdLayerFast(w, bias, x, y []float64, nb, inP, out, outP int, relu bool) {
	if useAsm {
		r := 0
		if relu {
			r = 1
		}
		gemmFMAAVX(&w[0], &x[0], &y[0], &bias[0], nb, inP, out, outP, r)
		return
	}
	for s := 0; s < nb; s++ {
		xrow := x[s*inP : s*inP+inP]
		yrow := y[s*outP:]
		for o := 0; o < out; o++ {
			row := w[o*inP : o*inP+inP]
			var l0, l1, l2, l3 float64
			for k := 0; k < inP; k += 4 {
				l0 = math.FMA(row[k], xrow[k], l0)
				l1 = math.FMA(row[k+1], xrow[k+1], l1)
				l2 = math.FMA(row[k+2], xrow[k+2], l2)
				l3 = math.FMA(row[k+3], xrow[k+3], l3)
			}
			sum := ((l0 + l1) + (l2 + l3)) + bias[o]
			if relu && !(sum > 0) {
				sum = 0
			}
			yrow[o] = sum
		}
	}
}

// AccumulateGrads adds src's accumulated gradients into dst's, element-wise
// (dst.G[i] += 1*src.G[i], which is exact). It is the in-order reduction
// step of chunked training: the caller adds chunk gradients in ascending
// chunk index, which fixes the reduced gradient's rounding.
func AccumulateGrads(dst, src []*Param) {
	if len(dst) != len(src) {
		panic("nn: AccumulateGrads parameter count mismatch")
	}
	for i, p := range dst {
		axpy(1, src[i].G, p.G)
	}
}
