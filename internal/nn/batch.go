package nn

import (
	"fmt"

	"repro/internal/mathx"
)

// BatchScratch holds the flat, row-major intermediate activations for a
// whole minibatch so batched forward and backward passes allocate nothing
// in steady state. Layout: sample s of a width-w tensor lives at
// [s*w : (s+1)*w], except the activations, whose rows are zero-padded to
// stride pad4(w) for the FMA GEMM. A BatchScratch is sized for a maximum
// batch at construction and can serve any smaller batch.
type BatchScratch struct {
	batch int
	// acts[0] is the input [B*pad4(Inputs)]; acts[i+1] is the post-ReLU
	// output of hidden layer i [B*pad4(hidden[i])].
	acts         [][]float64
	vOut         []float64 // dueling value head [B]
	aOut         []float64 // dueling advantage head [B*Outputs]
	q            []float64 // network output [B*Outputs]
	dA           []float64 // advantage-head gradient [B*Outputs]
	dV           []float64 // value-head gradient [B]
	dBufA, dBufB []float64 // ping-pong gradient buffers [B*maxWidth]
}

// NewBatchScratch allocates batched scratch space for up to batch samples.
func (n *Network) NewBatchScratch(batch int) *BatchScratch {
	if batch <= 0 {
		panic(fmt.Sprintf("nn: batch size must be positive, got %d", batch))
	}
	s := &BatchScratch{batch: batch}
	s.acts = append(s.acts, make([]float64, batch*pad4(n.cfg.Inputs)))
	maxw := n.cfg.Inputs
	for _, d := range n.hidden {
		s.acts = append(s.acts, make([]float64, batch*pad4(d.out)))
		maxw = max(maxw, d.out)
	}
	maxw = max(maxw, n.cfg.Outputs)
	s.vOut = make([]float64, batch)
	s.aOut = make([]float64, batch*n.cfg.Outputs)
	s.q = make([]float64, batch*n.cfg.Outputs)
	s.dA = make([]float64, batch*n.cfg.Outputs)
	s.dV = make([]float64, batch)
	s.dBufA = make([]float64, batch*maxw)
	s.dBufB = make([]float64, batch*maxw)
	return s
}

// ForwardBatchInto runs a batched forward pass over nb samples packed
// row-major in xs (len nb*Inputs) and returns the flat output [nb*Outputs]
// owned by s (valid until the next ForwardBatchInto on s): per layer one
// padded FMA GEMM with fused ReLU. Samples are independent, so a sample's
// outputs do not depend on the batch it runs in. They differ from
// ForwardInto's only in rounding.
//
//uerl:hotpath
func (n *Network) ForwardBatchInto(s *BatchScratch, xs []float64, nb int) []float64 {
	if nb <= 0 || nb > s.batch {
		panic(fmt.Sprintf("nn: batch %d out of range (scratch holds %d)", nb, s.batch))
	}
	if len(xs) != nb*n.cfg.Inputs {
		panic(fmt.Sprintf("nn: batched input size %d, want %d", len(xs), nb*n.cfg.Inputs))
	}
	fw := n.ensureFast()
	in, inP := n.cfg.Inputs, pad4(n.cfg.Inputs)
	if inP == in {
		copy(s.acts[0][:nb*in], xs)
	} else {
		for b := 0; b < nb; b++ {
			copy(s.acts[0][b*inP:b*inP+in], xs[b*in:(b+1)*in])
		}
	}
	cur := s.acts[0]
	for i := range fw.hidden {
		fl := &fw.hidden[i]
		fwdLayerFast(fl.w, n.hidden[i].b.W, cur, s.acts[i+1], nb, fl.inP, fl.out, fl.outP, true)
		cur = s.acts[i+1]
	}
	out := n.cfg.Outputs
	if n.cfg.Dueling {
		fwdLayerFast(fw.value.w, n.value.b.W, cur, s.vOut, nb, fw.value.inP, 1, 1, false)
		fwdLayerFast(fw.adv.w, n.adv.b.W, cur, s.aOut, nb, fw.adv.inP, out, out, false)
		for b := 0; b < nb; b++ {
			aRow := s.aOut[b*out : (b+1)*out]
			meanA := mathx.Mean(aRow)
			v := s.vOut[b]
			qRow := s.q[b*out : (b+1)*out]
			for i := range qRow {
				qRow[i] = v + aRow[i] - meanA
			}
		}
	} else {
		fwdLayerFast(fw.out.w, n.out.b.W, cur, s.q, nb, fw.out.inP, out, out, false)
	}
	return s.q[:nb*out]
}

// BackwardBatch accumulates parameter gradients for the most recent
// ForwardBatchInto on s, given dLoss/dOutput for every sample packed
// row-major in dOut (len nb*Outputs). The activations (and therefore ReLU
// masks) come from the padded buffers of that forward pass, while gradient
// buffers stay at real strides. The ReLU mask condition act <= 0 matches
// the forward pass's max(sum, +0) exactly (+0 masks, positives pass).
// Every weight accumulates its samples in ascending order, so one call
// over nb samples leaves the same gradients as nb one-sample calls.
//
//uerl:hotpath
func (n *Network) BackwardBatch(s *BatchScratch, dOut []float64, nb int) {
	if nb <= 0 || nb > s.batch {
		panic(fmt.Sprintf("nn: batch %d out of range (scratch holds %d)", nb, s.batch))
	}
	out := n.cfg.Outputs
	if len(dOut) != nb*out {
		panic(fmt.Sprintf("nn: batched dOut size %d, want %d", len(dOut), nb*out))
	}
	nh := len(n.hidden)
	width := n.cfg.Inputs
	if nh > 0 {
		width = n.hidden[nh-1].out
	}
	lastAct := s.acts[nh]
	lastP := pad4(width)
	dHidden := s.dBufA[:nb*width]
	if n.cfg.Dueling {
		for b := 0; b < nb; b++ {
			row := dOut[b*out : (b+1)*out]
			sum := 0.0
			for _, g := range row {
				sum += g
			}
			meanG := sum / float64(out)
			for i, g := range row {
				s.dA[b*out+i] = g - meanG
			}
			s.dV[b] = sum
		}
		backLayerFast(n.value, lastAct, lastP, s.dV[:nb], dHidden, nb)
		tmp := s.dBufB[:nb*width]
		backLayerFast(n.adv, lastAct, lastP, s.dA[:nb*out], tmp, nb)
		if n := len(dHidden); useAsm && n > 0 && n%4 == 0 {
			// y += 1*x multiplies by exactly 1.0 before the add, so the
			// vector kernel is bit-identical to the scalar merge loop.
			axpyAVX(1, &tmp[0], &dHidden[0], n)
		} else {
			for i := range dHidden {
				dHidden[i] += tmp[i]
			}
		}
	} else {
		backLayerFast(n.out, lastAct, lastP, dOut, dHidden, nb)
	}
	dy := dHidden
	spare := s.dBufB
	for i := nh - 1; i >= 0; i-- {
		h := n.hidden[i]
		hP := pad4(h.out)
		pact := s.acts[i+1]
		if useAsm && hP == h.out && nb > 0 {
			// Unpadded layer width: act and dy are stride-equal flat
			// arrays, so one branch-free compare-and-mask call covers the
			// whole batch (n = nb*h.out is a multiple of 4 since h.out is).
			reluMaskAVX(&dy[0], &pact[0], nb*h.out)
		} else {
			for b := 0; b < nb; b++ {
				actRow := pact[b*hP : b*hP+h.out]
				dyRow := dy[b*h.out : (b+1)*h.out]
				for j, a := range actRow {
					if a <= 0 {
						dyRow[j] = 0
					}
				}
			}
		}
		var dx []float64
		if i > 0 {
			dx = spare[:nb*h.in]
		}
		backLayerFast(h, s.acts[i], pad4(h.in), dy, dx, nb)
		if dx != nil {
			spare = dy[:cap(dy)]
			dy = dx
		}
	}
}

// backLayerFast is BackwardBatch for one layer: x rows live at padded
// stride inP (only the real in lanes are read),
// dy/dx at real strides, and accumulation uses single-rounded FMA kernels.
// Per-weight accumulation order is sample-ascending with every sample
// accumulated unconditionally — a zero upstream gradient contributes an
// exact ±0 FMA term, which leaves the accumulators (they start at +0 and a
// rounded sum is never -0) unchanged bit for bit while keeping both the
// assembly and fallback loops branch-free. Gradients are therefore
// chunk-layout-deterministic.
//
//uerl:hotpath
func backLayerFast(d *dense, x []float64, inP int, dy, dx []float64, nb int) {
	in, out := d.in, d.out
	if useAsm && in > 0 && out > 0 && nb > 0 {
		// Fused assembly path: bias gradients keep the scalar loop (same
		// sample order), weight and input gradients go to the register-
		// blocked kernels, which pin the identical per-element FMA sequence —
		// see the parity tests.
		for o := 0; o < out; o++ {
			gb := d.b.G[o]
			for s, di := 0, o; s < nb; s, di = s+1, di+out {
				gb += dy[di]
			}
			d.b.G[o] = gb
		}
		bgradFMAAVX(&d.w.G[0], &x[0], &dy[0], nb, in, inP, out)
		if dx != nil {
			// d.w.W rows are unpadded (stride in); only x rows carry the
			// inP padding, so the w-row stride here is in.
			dxFMAAVX(&dx[0], &d.w.W[0], &dy[0], nb, in, in, out)
		}
		return
	}
	for o := 0; o < out; o++ {
		grow := d.w.G[o*in : (o+1)*in]
		gb := d.b.G[o]
		di, xi := o, 0
		for s := 0; s < nb; s++ {
			g := dy[di]
			gb += g
			fmaAxpy(g, x[xi:xi+in], grow)
			di += out
			xi += inP
		}
		d.b.G[o] = gb
	}
	if dx != nil {
		xi := 0
		for s := 0; s < nb; s++ {
			dxs := dx[xi : xi+in]
			for i := range dxs {
				dxs[i] = 0
			}
			base := s * out
			var o int
			for o = 0; o+2 <= out; o += 2 {
				fmaAxpy2(dy[base+o], d.w.W[o*in:o*in+in], dy[base+o+1], d.w.W[o*in+in:o*in+2*in], dxs)
			}
			if o < out {
				fmaAxpy(dy[base+o], d.w.W[o*in:o*in+in], dxs)
			}
			xi += in
		}
	}
}
