//go:build amd64

package nn

// haveAVX2FMA reports whether the CPU and OS support the AVX2+FMA kernels:
// CPUID.1:ECX OSXSAVE(27)+AVX(28)+FMA(12), XCR0 XMM|YMM state enabled, and
// CPUID.7.0:EBX AVX2(5).
var haveAVX2FMA = func() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	if ecx1&osxsave == 0 || ecx1&avx == 0 || ecx1&fma == 0 {
		return false
	}
	xlo, _ := xgetbvAsm()
	if xlo&6 != 6 { // XMM and YMM state saved by the OS
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}()

// The assembly kernels below process exactly n elements, where n must be a
// positive multiple of 4; callers peel scalar tails in Go. The element-wise
// kernels (axpy*, adam*) are bit-identical to their scalar loops because
// VMULPD/VADDPD/VSUBPD/VDIVPD/VSQRTPD and VFMADD are IEEE-754 correctly
// rounded per lane and lanes are independent.

//go:noescape
func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbvAsm() (eax, edx uint32)

// axpyAVX: y[i] += alpha * x[i] (separate round for mul and add).
//
//go:noescape
func axpyAVX(alpha float64, x, y *float64, n int)

// axpyFMAAVX: y[i] = fma(alpha, x[i], y[i]).
//
//go:noescape
func axpyFMAAVX(alpha float64, x, y *float64, n int)

// axpy2FMAAVX: y[i] = fma(b, xb[i], fma(a, xa[i], y[i])).
//
//go:noescape
func axpy2FMAAVX(a float64, xa *float64, b float64, xb, y *float64, n int)

// adamAVX is the Adam update with precomputed reciprocal bias
// corrections rc1 = 1/c1, rc2 = 1/c2:
//
//	m[i] = b1*m[i] + ob1*g[i]
//	v[i] = b2*v[i] + (ob2*g[i])*g[i]
//	w[i] -= lr * (m[i]*rc1) / (sqrt(v[i]*rc2) + eps)
//
// where ob1 = 1-b1 and ob2 = 1-b2 are precomputed by the caller exactly as
// the scalar loop's compiler-hoisted subexpressions.
//
//go:noescape
func adamAVX(w, grad, m, v *float64, n int, lr, b1, ob1, b2, ob2, eps, rc1, rc2 float64)

// bgradFMAAVX fuses backLayerFast's weight-gradient loop into one call:
// grad[o*in+k] = fma(dy[s*out+o], x[s*inP+k], grad[o*in+k]) with samples
// ascending and every sample accumulated unconditionally (branch-free), the
// gradient row held in registers across the sample loop (k blocked
// 16/8/4/2/1 wide, so any positive in works). Bias gradients stay with the
// Go caller.
//
//go:noescape
func bgradFMAAVX(grad, x, dy *float64, nb, in, inP, out int)

// dxFMAAVX fuses backLayerFast's input-gradient loop into one call:
// dx[s*in+k] = Σ_o dy[s*out+o]*w[o*inP+k], FMA-accumulated output-ascending
// from +0, every output unconditionally (branch-free), for any positive in.
//
//go:noescape
func dxFMAAVX(dx, w, dy *float64, nb, in, inP, out int)

// reluMaskAVX zeroes dy[i] (to +0) where act[i] <= 0 and keeps it
// otherwise (NaN activations keep dy), branch-free via compare-and-mask.
// n must be a positive multiple of 4.
//
//go:noescape
func reluMaskAVX(dy, act *float64, n int)

// gemvAVX computes y[o] = bias[o] + dot(w[o*in:(o+1)*in], x) for the
// first out rows (out a positive multiple of 4, in any positive width),
// bit-identical to dot: unfused multiply then add into dot's four lanes,
// the in%4 tail on lane 0, and the (s0+s1)+(s2+s3) reduction. relu is 0
// or 1; 1 floors each row at +0 via VMAXPD, bit-identical to gemv's Go
// rule !(v > 0) -> +0 (NaN and -0 included).
//
//go:noescape
func gemvAVX(w, x, y, bias *float64, in, out, relu int)

// gemmFMAAVX computes, for each of nb samples and out output rows,
// y[s*outP+o] = relu?(bias[o] + Σ_k w[o*inP+k]*x[s*inP+k]) with four
// independent FMA accumulator lanes reduced as (l0+l1)+(l2+l3). inP must be
// a positive multiple of 4 (rows zero-padded); relu is 0 or 1 and applies
// max(sum, +0) via VMAXSD.
//
//go:noescape
func gemmFMAAVX(w, x, y, bias *float64, nb, inP, out, outP, relu int)
