//go:build !amd64

package nn

// Non-amd64 builds always take the pure-Go kernels; results are
// bit-identical to the assembly because the fallbacks pin the same
// per-element operation order and math.FMA lane structure. The unfused
// kernels write every product as an explicit float64(a*b) conversion,
// which the Go spec says rounds, so backends that would contract x*y+z
// into a fused multiply-add (arm64 among them) keep the separate rounding
// of the amd64 VMULPD/VADDPD stream; scripts/lint.sh checks the arm64
// build for stray FMADDD/FMSUBD.
const haveAVX2FMA = false

func axpyAVX(alpha float64, x, y *float64, n int)    { panic("nn: no asm") }
func axpyFMAAVX(alpha float64, x, y *float64, n int) { panic("nn: no asm") }
func axpy2FMAAVX(a float64, xa *float64, b float64, xb, y *float64, n int) {
	panic("nn: no asm")
}
func adamAVX(w, grad, m, v *float64, n int, lr, b1, ob1, b2, ob2, eps, rc1, rc2 float64) {
	panic("nn: no asm")
}
func gemvAVX(w, x, y, bias *float64, in, out, relu int)               { panic("nn: no asm") }
func gemmFMAAVX(w, x, y, bias *float64, nb, inP, out, outP, relu int) { panic("nn: no asm") }
func reluMaskAVX(dy, act *float64, n int)                             { panic("nn: no asm") }
func bgradFMAAVX(grad, x, dy *float64, nb, in, inP, out int)          { panic("nn: no asm") }
func dxFMAAVX(dx, w, dy *float64, nb, in, inP, out int)               { panic("nn: no asm") }
