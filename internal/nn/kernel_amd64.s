//go:build amd64

#include "textflag.h"

// AVX2/FMA kernels. Contracts shared by every routine here:
//   - n (or inP) is a positive multiple of 4; Go callers peel scalar tails
//     (gemvAVX alone takes any width and adds its tail itself, as dot does).
//   - Element-wise routines are bit-identical to their scalar Go loops:
//     VMULPD/VADDPD/VSUBPD/VDIVPD/VSQRTPD and VFMADD231PD are IEEE-754
//     correctly rounded per lane, lanes are independent, and the per-element
//     operation order matches the Go source exactly.
//   - The GEMM reduces its four accumulator lanes as (l0+l1)+(l2+l3),
//     matching fwdLayerFast's fallback (and dot's historical lane shape).
// Plan9 operand order is reversed from Intel: the Intel destination is the
// LAST operand, and src2 (the one that may be memory) comes FIRST.

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX(alpha float64, x, y *float64, n int)
// y[i] = y[i] + alpha*x[i], multiply and add rounded separately (the
// semantics of axpy's scalar loop).
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX

axpy_loop:
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1       // alpha*x
	VADDPD  (DI), Y1, Y1     // y + alpha*x
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNE     axpy_loop
	VZEROUPPER
	RET

// func axpyFMAAVX(alpha float64, x, y *float64, n int)
// y[i] = fma(alpha, x[i], y[i]) — the training stream's accumulate.
TEXT ·axpyFMAAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX

axpyfma_loop:
	VMOVUPD     (DI), Y1
	VFMADD231PD (SI), Y0, Y1 // y += alpha*x, single rounding
	VMOVUPD     Y1, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $4, CX
	JNE         axpyfma_loop
	VZEROUPPER
	RET

// func axpy2FMAAVX(a float64, xa *float64, b float64, xb, y *float64, n int)
// y[i] = fma(b, xb[i], fma(a, xa[i], y[i])).
TEXT ·axpy2FMAAVX(SB), NOSPLIT, $0-48
	VBROADCASTSD a+0(FP), Y0
	VBROADCASTSD b+16(FP), Y1
	MOVQ xa+8(FP), R8
	MOVQ xb+24(FP), R9
	MOVQ y+32(FP), DI
	MOVQ n+40(FP), CX

axpy2fma_loop:
	VMOVUPD     (DI), Y2
	VFMADD231PD (R8), Y0, Y2 // y += a*xa
	VFMADD231PD (R9), Y1, Y2 // ... += b*xb
	VMOVUPD     Y2, (DI)
	ADDQ        $32, R8
	ADDQ        $32, R9
	ADDQ        $32, DI
	SUBQ        $4, CX
	JNE         axpy2fma_loop
	VZEROUPPER
	RET

// adamAVX register assignment:
//   R8=w R9=g R10=m R11=v CX=n
//   Y6=b1 Y7=ob1 Y8=b2 Y9=ob2 Y10=lr Y11=eps Y12=rc1 Y13=rc2

// func adamAVX(w, g, m, v *float64, n int, lr, b1, ob1, b2, ob2, eps, rc1, rc2 float64)
// Adam with precomputed reciprocal bias corrections:
//   w -= lr*(m*rc1) / (sqrt(v*rc2) + eps)
TEXT ·adamAVX(SB), NOSPLIT, $0-104
	MOVQ w+0(FP), R8
	MOVQ grad+8(FP), R9
	MOVQ m+16(FP), R10
	MOVQ v+24(FP), R11
	MOVQ n+32(FP), CX
	VBROADCASTSD lr+40(FP), Y10
	VBROADCASTSD b1+48(FP), Y6
	VBROADCASTSD ob1+56(FP), Y7
	VBROADCASTSD b2+64(FP), Y8
	VBROADCASTSD ob2+72(FP), Y9
	VBROADCASTSD eps+80(FP), Y11
	VBROADCASTSD rc1+88(FP), Y12
	VBROADCASTSD rc2+96(FP), Y13

adam_loop:
	VMOVUPD (R9), Y0         // g
	VMOVUPD (R10), Y1        // m
	VMULPD  Y6, Y1, Y1       // b1*m
	VMULPD  Y7, Y0, Y2       // ob1*g
	VADDPD  Y2, Y1, Y1       // m'
	VMOVUPD Y1, (R10)
	VMOVUPD (R11), Y2        // v
	VMULPD  Y8, Y2, Y2       // b2*v
	VMULPD  Y9, Y0, Y3       // ob2*g
	VMULPD  Y0, Y3, Y3       // (ob2*g)*g
	VADDPD  Y3, Y2, Y2       // v'
	VMOVUPD Y2, (R11)
	VMULPD  Y12, Y1, Y1      // m'*rc1
	VMULPD  Y13, Y2, Y2      // v'*rc2
	VSQRTPD Y2, Y2
	VADDPD  Y11, Y2, Y2      // sqrt(v'*rc2) + eps
	VMULPD  Y10, Y1, Y1      // lr*(m'*rc1)
	VDIVPD  Y2, Y1, Y1       // update
	VMOVUPD (R8), Y0
	VSUBPD  Y1, Y0, Y0       // w - update
	VMOVUPD Y0, (R8)
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	SUBQ    $4, CX
	JNE     adam_loop
	VZEROUPPER
	RET

// REDUCE4 folds the four lanes of YACC (low half XACC) into the low lane of
// DST as (l0+l1)+(l2+l3) — the exact association of fwdLayerFast's fallback.
// Clobbers X5 and X7.
#define REDUCE4(YACC, XACC, DST) \
	VEXTRACTF128 $1, YACC, X5; \
	VPERMILPD    $1, XACC, X7; \
	VADDSD       X7, XACC, DST; \
	VPERMILPD    $1, X5, X7;   \
	VADDSD       X7, X5, X5;   \
	VADDSD       X5, DST, DST

// COL4 reduces one accumulator and adds its bias: X6 = lanes(YACC) + bias[o+DISP/8].
#define COL4(YACC, XACC, DISP) \
	REDUCE4(YACC, XACC, X6);   \
	VADDSD DISP(R11)(BX*8), X6, X6

// func gemmFMAAVX(w, x, y, bias *float64, nb, inP, out, outP, relu int)
// For each sample s < nb and output o < out:
//   y[s*outP+o] = relu?(bias[o] + sum_k w[o*inP+k]*x[s*inP+k])
// FMA-accumulated in 4 independent lanes, rows processed 4 at a time.
// Registers: R8=w R11=bias R12=samples-left R13=inP*8 R14=out R15=outP*8
//            SI=x row DI=y row BX=o CX=row0 DX=row3 AX=k bytes R9=scratch
//            Y15=+0 (relu floor)
TEXT ·gemmFMAAVX(SB), NOSPLIT, $0-72
	MOVQ w+0(FP), R8
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ bias+24(FP), R11
	MOVQ nb+32(FP), R12
	MOVQ inP+40(FP), R13
	SHLQ $3, R13
	MOVQ out+48(FP), R14
	MOVQ outP+56(FP), R15
	SHLQ $3, R15
	VXORPD Y15, Y15, Y15

gemm_sample:
	MOVQ R8, CX              // row0 = w
	LEAQ (R8)(R13*2), DX
	ADDQ R13, DX             // row3 = w + 3*inP

	XORQ BX, BX              // o = 0

gemm_quad:
	LEAQ 4(BX), R9
	CMPQ R9, R14
	JGT  gemm_rowtail        // fewer than 4 rows left

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   R13, AX

	// The k loop is unrolled two 4-lane steps per iteration (same k-ascending
	// FMA order per accumulator, so bit-identical to the single-step loop);
	// an odd leading step peels rows whose inP is 4 mod 8.
	TESTQ $32, AX
	JZ    gemm_k8
	VMOVUPD     (SI), Y4
	VFMADD231PD (CX), Y4, Y0
	VFMADD231PD (CX)(R13*1), Y4, Y1
	VFMADD231PD (CX)(R13*2), Y4, Y2
	VFMADD231PD (DX), Y4, Y3
	ADDQ        $32, SI
	ADDQ        $32, CX
	ADDQ        $32, DX
	SUBQ        $32, AX
	JZ          gemm_kdone

gemm_k8:
	VMOVUPD     (SI), Y4
	VFMADD231PD (CX), Y4, Y0
	VFMADD231PD (CX)(R13*1), Y4, Y1
	VFMADD231PD (CX)(R13*2), Y4, Y2
	VFMADD231PD (DX), Y4, Y3
	VMOVUPD     32(SI), Y5
	VFMADD231PD 32(CX), Y5, Y0
	VFMADD231PD 32(CX)(R13*1), Y5, Y1
	VFMADD231PD 32(CX)(R13*2), Y5, Y2
	VFMADD231PD 32(DX), Y5, Y3
	ADDQ        $64, SI
	ADDQ        $64, CX
	ADDQ        $64, DX
	SUBQ        $64, AX
	JNE         gemm_k8

gemm_kdone:
	SUBQ R13, SI             // rewind x to the row start

	// Next quad's row0 is the row after row3; DX already points there.
	MOVQ DX, CX
	LEAQ (CX)(R13*2), DX
	ADDQ R13, DX

	// Reduce the quad via a 4x4 transpose: after transposing, column j of
	// the transposed block holds lane j of each row, so (c0+c1)+(c2+c3)
	// computes exactly (l0+l1)+(l2+l3) per output — the same association as
	// REDUCE4 — and the bias add and ReLU floor proceed 4 outputs at a time
	// with identical per-lane rounding (VMAXPD returns its +0 second source
	// for NaN sums, matching VMAXSD).
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VADDPD     Y1, Y0, Y0
	VADDPD     Y3, Y2, Y2
	VADDPD     Y2, Y0, Y0
	VADDPD     0(R11)(BX*8), Y0, Y0
	CMPQ       relu+64(FP), $0
	JE         gemm_store4
	VMAXPD     Y15, Y0, Y0

gemm_store4:
	VMOVUPD Y0, 0(DI)(BX*8)
	ADDQ $4, BX
	JMP  gemm_quad

gemm_rowtail:
	CMPQ BX, R14
	JGE  gemm_samplenext

	VXORPD Y0, Y0, Y0
	MOVQ   R13, AX

gemm_k1:
	VMOVUPD     (SI), Y4
	VFMADD231PD (CX), Y4, Y0
	ADDQ        $32, SI
	ADDQ        $32, CX
	SUBQ        $32, AX
	JNE         gemm_k1

	SUBQ R13, SI

	COL4(Y0, X0, 0)
	CMPQ relu+64(FP), $0
	JE   gemm_tailstore
	VMAXSD X15, X6, X6

gemm_tailstore:
	VMOVSD X6, 0(DI)(BX*8)
	INCQ   BX
	JMP    gemm_rowtail

gemm_samplenext:
	ADDQ R13, SI             // next x row
	ADDQ R15, DI             // next y row
	DECQ R12
	JNE  gemm_sample
	VZEROUPPER
	RET

// func bgradFMAAVX(grad, x, dy *float64, nb, in, inP, out int)
// Weight-gradient accumulation for one layer:
//   grad[o*in+k] = fma(dy[s*out+o], x[s*inP+k], grad[o*in+k])  for s ascending
// with every sample accumulated unconditionally (branch-free; zero gradients
// contribute exact ±0 FMA terms that leave the accumulators unchanged). The
// k dimension is blocked 16/8/4/2/1 wide with the gradient block held in
// registers across the whole sample loop, which changes no per-element
// operation order: each grad element still sees the same sample-ascending
// FMA sequence as backLayerFast's fallback loop. in is any positive width;
// x rows are strided inP, grad rows in.
// Registers: R8=grad cursor SI/R9=x column base DI=dy column R13=inP*8
//            R14=out*8 R15=in*8 CX=rows-left BX=row bytes left
//            R10=x walker R11=dy walker R12=samples-left
TEXT ·bgradFMAAVX(SB), NOSPLIT, $0-56
	MOVQ grad+0(FP), R8
	MOVQ dy+16(FP), DI
	MOVQ inP+40(FP), R13
	SHLQ $3, R13
	MOVQ out+48(FP), R14
	SHLQ $3, R14
	MOVQ in+32(FP), R15
	SHLQ $3, R15
	MOVQ out+48(FP), CX

bgrad_o:
	MOVQ x+8(FP), R9         // kb = 0
	MOVQ R15, BX

bgrad_block:
	CMPQ BX, $128
	JGE  bgrad_b16
	CMPQ BX, $64
	JGE  bgrad_b8
	CMPQ BX, $32
	JGE  bgrad_b4
	CMPQ BX, $16
	JGE  bgrad_b2
	CMPQ BX, $0
	JNE  bgrad_b1
	ADDQ $8, DI              // next dy column
	DECQ CX
	JNE  bgrad_o
	VZEROUPPER
	RET

bgrad_b16:
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD 64(R8), Y2
	VMOVUPD 96(R8), Y3
	MOVQ    DI, R11
	MOVQ    R9, R10
	MOVQ    nb+24(FP), R12

bgrad_b16s:
	VMOVSD (R11), X5
	VBROADCASTSD X5, Y4
	VFMADD231PD  (R10), Y4, Y0
	VFMADD231PD  32(R10), Y4, Y1
	VFMADD231PD  64(R10), Y4, Y2
	VFMADD231PD  96(R10), Y4, Y3

	ADDQ R14, R11
	ADDQ R13, R10
	DECQ R12
	JNE  bgrad_b16s
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	ADDQ    $128, R8
	ADDQ    $128, R9
	SUBQ    $128, BX
	JMP     bgrad_block

bgrad_b8:
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	MOVQ    DI, R11
	MOVQ    R9, R10
	MOVQ    nb+24(FP), R12

bgrad_b8s:
	VMOVSD (R11), X5
	VBROADCASTSD X5, Y4
	VFMADD231PD  (R10), Y4, Y0
	VFMADD231PD  32(R10), Y4, Y1

	ADDQ R14, R11
	ADDQ R13, R10
	DECQ R12
	JNE  bgrad_b8s
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	ADDQ    $64, R8
	ADDQ    $64, R9
	SUBQ    $64, BX
	JMP     bgrad_block

bgrad_b4:
	VMOVUPD (R8), Y0
	MOVQ    DI, R11
	MOVQ    R9, R10
	MOVQ    nb+24(FP), R12

bgrad_b4s:
	VMOVSD (R11), X5
	VBROADCASTSD X5, Y4
	VFMADD231PD  (R10), Y4, Y0

	ADDQ R14, R11
	ADDQ R13, R10
	DECQ R12
	JNE  bgrad_b4s
	VMOVUPD Y0, (R8)
	ADDQ    $32, R8
	ADDQ    $32, R9
	SUBQ    $32, BX
	JMP     bgrad_block

bgrad_b2:
	VMOVUPD (R8), X0
	MOVQ    DI, R11
	MOVQ    R9, R10
	MOVQ    nb+24(FP), R12

bgrad_b2s:
	VMOVSD (R11), X5
	VMOVDDUP    X5, X4
	VFMADD231PD (R10), X4, X0

	ADDQ R14, R11
	ADDQ R13, R10
	DECQ R12
	JNE  bgrad_b2s
	VMOVUPD X0, (R8)
	ADDQ    $16, R8
	ADDQ    $16, R9
	SUBQ    $16, BX
	JMP     bgrad_block

bgrad_b1:
	VMOVSD (R8), X0
	MOVQ   DI, R11
	MOVQ   R9, R10
	MOVQ   nb+24(FP), R12

bgrad_b1s:
	VMOVSD (R11), X5
	VFMADD231SD (R10), X5, X0

	ADDQ R14, R11
	ADDQ R13, R10
	DECQ R12
	JNE  bgrad_b1s
	VMOVSD X0, (R8)
	ADDQ   $8, R8
	ADDQ   $8, R9
	SUBQ   $8, BX
	JMP    bgrad_block

// func dxFMAAVX(dx, w, dy *float64, nb, in, inP, out int)
// Input-gradient accumulation for one layer:
//   dx[s*in+k] = sum_o dy[s*out+o] * w[o*inP+k]
// accumulated output-ascending with single-rounded FMAs from a +0 start,
// every output unconditionally (no zero test) — element for element the
// operation sequence of the fallback's fmaAxpy2/fmaAxpy pairing (a fused
// pair is exactly two sequential FMAs). k blocked 16/8/4/2/1 wide in
// registers per sample.
// Registers: R8=dx cursor SI=w base DI=dy row R9=w column base CX=samples
//            R13=inP*8 R14=out*8 R15=in*8 BX=row bytes left
//            R10=w walker R11=dy walker R12=outputs-left
TEXT ·dxFMAAVX(SB), NOSPLIT, $0-56
	MOVQ dx+0(FP), R8
	MOVQ w+8(FP), SI
	MOVQ dy+16(FP), DI
	MOVQ nb+24(FP), CX
	MOVQ in+32(FP), R15
	SHLQ $3, R15
	MOVQ inP+40(FP), R13
	SHLQ $3, R13
	MOVQ out+48(FP), R14
	SHLQ $3, R14

dx_s:
	MOVQ SI, R9              // kb = 0
	MOVQ R15, BX

dx_block:
	CMPQ BX, $128
	JGE  dx_b16
	CMPQ BX, $64
	JGE  dx_b8
	CMPQ BX, $32
	JGE  dx_b4
	CMPQ BX, $16
	JGE  dx_b2
	CMPQ BX, $0
	JNE  dx_b1
	ADDQ R14, DI             // next dy row
	DECQ CX
	JNE  dx_s
	VZEROUPPER
	RET

dx_b16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   DI, R11
	MOVQ   R9, R10
	MOVQ   out+48(FP), R12

dx_b16o:
	VMOVSD (R11), X5
	VBROADCASTSD X5, Y4
	VFMADD231PD  (R10), Y4, Y0
	VFMADD231PD  32(R10), Y4, Y1
	VFMADD231PD  64(R10), Y4, Y2
	VFMADD231PD  96(R10), Y4, Y3

	ADDQ $8, R11
	ADDQ R13, R10
	DECQ R12
	JNE  dx_b16o
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	ADDQ    $128, R8
	ADDQ    $128, R9
	SUBQ    $128, BX
	JMP     dx_block

dx_b8:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   DI, R11
	MOVQ   R9, R10
	MOVQ   out+48(FP), R12

dx_b8o:
	VMOVSD (R11), X5
	VBROADCASTSD X5, Y4
	VFMADD231PD  (R10), Y4, Y0
	VFMADD231PD  32(R10), Y4, Y1

	ADDQ $8, R11
	ADDQ R13, R10
	DECQ R12
	JNE  dx_b8o
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	ADDQ    $64, R8
	ADDQ    $64, R9
	SUBQ    $64, BX
	JMP     dx_block

dx_b4:
	VXORPD Y0, Y0, Y0
	MOVQ   DI, R11
	MOVQ   R9, R10
	MOVQ   out+48(FP), R12

dx_b4o:
	VMOVSD (R11), X5
	VBROADCASTSD X5, Y4
	VFMADD231PD  (R10), Y4, Y0

	ADDQ $8, R11
	ADDQ R13, R10
	DECQ R12
	JNE  dx_b4o
	VMOVUPD Y0, (R8)
	ADDQ    $32, R8
	ADDQ    $32, R9
	SUBQ    $32, BX
	JMP     dx_block

dx_b2:
	VXORPD X0, X0, X0
	MOVQ   DI, R11
	MOVQ   R9, R10
	MOVQ   out+48(FP), R12

dx_b2o:
	VMOVSD (R11), X5
	VMOVDDUP    X5, X4
	VFMADD231PD (R10), X4, X0

	ADDQ $8, R11
	ADDQ R13, R10
	DECQ R12
	JNE  dx_b2o
	VMOVUPD X0, (R8)
	ADDQ    $16, R8
	ADDQ    $16, R9
	SUBQ    $16, BX
	JMP     dx_block

dx_b1:
	VXORPD X0, X0, X0
	MOVQ   DI, R11
	MOVQ   R9, R10
	MOVQ   out+48(FP), R12

dx_b1o:
	VMOVSD (R11), X5
	VFMADD231SD (R10), X5, X0

	ADDQ $8, R11
	ADDQ R13, R10
	DECQ R12
	JNE  dx_b1o
	VMOVSD X0, (R8)
	ADDQ   $8, R8
	ADDQ   $8, R9
	SUBQ   $8, BX
	JMP    dx_block

// func reluMaskAVX(dy, act *float64, n int)
// Branch-free ReLU backward mask: dy[i] is zeroed (+0) where act[i] <= 0
// and kept otherwise. VCMPPD with the NLE_US predicate builds an all-ones
// mask exactly where !(act <= 0) — positives and NaNs keep dy, zeros
// (either sign) and negatives clear it — matching the scalar fallback's
// `if a <= 0 { dy = 0 }` bit for bit. n must be a positive multiple of 4.
TEXT ·reluMaskAVX(SB), NOSPLIT, $0-24
	MOVQ   dy+0(FP), DI
	MOVQ   act+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y1, Y1, Y1

relumask_loop:
	VMOVUPD (SI), Y0
	VCMPPD  $6, Y1, Y0, Y2
	VANDPD  (DI), Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNE     relumask_loop
	VZEROUPPER
	RET

// func gemvAVX(w, x, y, bias *float64, in, out, relu int)
// Single-input forward rows, out a positive multiple of 4, any positive in:
//   y[o] = relu?(bias[o] + dot(w[o*in:(o+1)*in], x))
// bit-identical to dot: row o's four YMM lanes are dot's accumulators
// s0..s3, each step an unfused VMULPD then VADDPD from a +0 start; the
// in%4 tail goes to lane 0 with VMULSD/VADDSD (after lanes 2-3 are saved,
// as VEX scalar ops zero the upper half); each row reduces as
// (s0+s1)+(s2+s3) and then adds its bias. Rows are processed four at a
// time, sharing each x load. With relu nonzero the epilogue applies
// VMAXPD with +0 as its second source, which MAXPD returns whenever the
// sum is not greater than it (-0 and NaN included): exactly the Go rule
// !(v > 0) -> +0.
// Registers: R8=row0 R13=in*8 R12=in&^3 bytes R15=in%4 SI=x DI=y R11=bias
//            R14=rows left CX=row0 walker R9=row3 walker R10=x walker
//            AX/DX=loop counters BX=relu; Y0-Y3 row accumulators, X8-X11
//            their saved lanes 2-3, Y15=+0
TEXT ·gemvAVX(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), R8
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ bias+24(FP), R11
	MOVQ in+32(FP), R13
	MOVQ relu+48(FP), BX
	VXORPD Y15, Y15, Y15
	MOVQ R13, R15
	ANDQ $3, R15
	MOVQ R13, R12
	ANDQ $-4, R12
	SHLQ $3, R12
	SHLQ $3, R13
	MOVQ out+40(FP), R14

gemv_quad:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   R8, CX
	LEAQ   (R8)(R13*2), R9
	ADDQ   R13, R9           // row3 = row0 + 3*in
	MOVQ   SI, R10
	MOVQ   R12, AX
	TESTQ  AX, AX
	JZ     gemv_kdone

gemv_k:
	VMOVUPD (R10), Y4
	VMULPD  (CX), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (CX)(R13*1), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (CX)(R13*2), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (R9), Y4, Y12
	VADDPD  Y12, Y3, Y3
	ADDQ    $32, R10
	ADDQ    $32, CX
	ADDQ    $32, R9
	SUBQ    $32, AX
	JNE     gemv_k

gemv_kdone:
	VEXTRACTF128 $1, Y0, X8
	VEXTRACTF128 $1, Y1, X9
	VEXTRACTF128 $1, Y2, X10
	VEXTRACTF128 $1, Y3, X11
	MOVQ         R15, DX
	TESTQ        DX, DX
	JZ           gemv_reduce

gemv_tail:
	VMOVSD (R10), X4
	VMULSD (CX), X4, X5
	VADDSD X5, X0, X0
	VMULSD (CX)(R13*1), X4, X5
	VADDSD X5, X1, X1
	VMULSD (CX)(R13*2), X4, X5
	VADDSD X5, X2, X2
	VMULSD (R9), X4, X5
	VADDSD X5, X3, X3
	ADDQ   $8, R10
	ADDQ   $8, CX
	ADDQ   $8, R9
	DECQ   DX
	JNE    gemv_tail

gemv_reduce:
	// Per row pair, unpack lane j of both rows side by side so one VADDPD
	// forms (s0+s1) and one (s2+s3) for two rows at once.
	VUNPCKLPD   X1, X0, X4   // (r0.s0, r1.s0)
	VUNPCKHPD   X1, X0, X5   // (r0.s1, r1.s1)
	VADDPD      X5, X4, X4   // s0+s1
	VUNPCKLPD   X9, X8, X5   // (r0.s2, r1.s2)
	VUNPCKHPD   X9, X8, X6   // (r0.s3, r1.s3)
	VADDPD      X6, X5, X5   // s2+s3
	VADDPD      X5, X4, X4   // rows 0-1
	VUNPCKLPD   X3, X2, X5
	VUNPCKHPD   X3, X2, X6
	VADDPD      X6, X5, X5
	VUNPCKLPD   X11, X10, X6
	VUNPCKHPD   X11, X10, X7
	VADDPD      X7, X6, X6
	VADDPD      X6, X5, X5   // rows 2-3
	VINSERTF128 $1, X5, Y4, Y4
	VADDPD      (R11), Y4, Y4 // + bias
	TESTQ       BX, BX
	JZ          gemv_store
	VMAXPD      Y15, Y4, Y4   // relu: +0 unless the sum is > +0

gemv_store:
	VMOVUPD Y4, (DI)

	MOVQ R9, R8              // next quad's row0 follows row3
	ADDQ $32, DI
	ADDQ $32, R11
	SUBQ $4, R14
	JNE  gemv_quad
	VZEROUPPER
	RET
