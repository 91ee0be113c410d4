package nn

import (
	"fmt"

	"repro/internal/mathx"
)

// fastLayer is one layer's KernelFast weight image: rows zero-padded from
// in to inP (a multiple of 4) so the FMA GEMM has no scalar tail. outP is
// the row stride of the layer's output in the padded activation buffers.
type fastLayer struct {
	w                  []float64 // out rows of inP values, pads zero
	in, inP, out, outP int
}

// fastWeights is a network's padded weight image, rebuilt lazily whenever
// the weights mutate (Network.gen moves past built). Bias vectors are read
// directly from the dense layers — they need no padding.
type fastWeights struct {
	built      uint64
	hidden     []fastLayer
	out        fastLayer // non-dueling head
	value, adv fastLayer // dueling heads
}

func packLayer(fl *fastLayer, d *dense, outP int) {
	fl.in, fl.inP, fl.out, fl.outP = d.in, pad4(d.in), d.out, outP
	if fl.w == nil {
		// Pads are written exactly once (zero at allocation) and never
		// touched again: packing copies only the real lanes.
		fl.w = make([]float64, fl.out*fl.inP)
	}
	if fl.inP == fl.in {
		copy(fl.w, d.w.W)
		return
	}
	for o := 0; o < fl.out; o++ {
		copy(fl.w[o*fl.inP:o*fl.inP+fl.in], d.w.W[o*fl.in:(o+1)*fl.in])
	}
}

// ensureFast returns the up-to-date padded weight image, rebuilding it if
// the weights changed since the last build. Shadows resolve to their
// owner's image. Not safe against concurrent mutation: parallel readers
// must prewarm via EnsureFast before fanning out (the chunked trainer
// does), after which concurrent calls are read-only.
func (n *Network) ensureFast() *fastWeights {
	if n.shadowOf != nil {
		return n.shadowOf.ensureFast()
	}
	if n.fast == nil {
		n.fast = &fastWeights{hidden: make([]fastLayer, len(n.hidden))}
	}
	fw := n.fast
	if fw.built == n.gen {
		return fw
	}
	for i, d := range n.hidden {
		packLayer(&fw.hidden[i], d, pad4(d.out))
	}
	if n.cfg.Dueling {
		packLayer(&fw.value, n.value, 1)
		packLayer(&fw.adv, n.adv, n.cfg.Outputs)
	} else {
		packLayer(&fw.out, n.out, n.cfg.Outputs)
	}
	fw.built = n.gen
	return fw
}

// EnsureFast prewarms the KernelFast weight image so subsequent concurrent
// forward passes (the chunked trainer's workers) never rebuild it.
func (n *Network) EnsureFast() { n.ensureFast() }

// InvalidateFast marks the weights as mutated so the next KernelFast use
// rebuilds the padded image. Callers that mutate Param.W directly (the
// optimizer step) must call it; CopyFrom and UnmarshalJSON handle it
// themselves.
func (n *Network) InvalidateFast() {
	if n.shadowOf != nil {
		n.shadowOf.InvalidateFast()
		return
	}
	n.gen++
}

// GradShadow returns a network that shares n's weights (and padded weight
// image) but owns private gradient accumulators. The chunked trainer
// computes each minibatch chunk's gradients into a shadow and adds them
// into the master in chunk-index order. Shadows must not outlive weight
// shape changes on the owner, and BackwardBatch on a shadow accumulates
// into the shadow's own Params().
func (n *Network) GradShadow() *Network {
	base := n
	if n.shadowOf != nil {
		base = n.shadowOf
	}
	c := &Network{cfg: base.cfg, gen: 1, shadowOf: base}
	shadow := func(d *dense) *dense {
		return &dense{
			in: d.in, out: d.out,
			w: &Param{W: d.w.W, G: make([]float64, len(d.w.G))},
			b: &Param{W: d.b.W, G: make([]float64, len(d.b.G))},
		}
	}
	for _, d := range base.hidden {
		c.hidden = append(c.hidden, shadow(d))
	}
	if base.cfg.Dueling {
		c.value = shadow(base.value)
		c.adv = shadow(base.adv)
	} else {
		c.out = shadow(base.out)
	}
	for _, d := range c.hidden {
		c.params = append(c.params, d.w, d.b)
	}
	if base.cfg.Dueling {
		c.params = append(c.params, c.value.w, c.value.b, c.adv.w, c.adv.b)
	} else {
		c.params = append(c.params, c.out.w, c.out.b)
	}
	return c
}

// forwardBatchFast is the KernelFast batched forward pass: per layer one
// padded FMA GEMM with fused ReLU, dueling combine identical to the
// reference path. Callers hold the contract of ForwardBatchInto.
//
//uerl:hotpath
func (n *Network) forwardBatchFast(s *BatchScratch, xs []float64, nb int) []float64 {
	fw := n.ensureFast()
	in, inP := n.cfg.Inputs, pad4(n.cfg.Inputs)
	if inP == in {
		copy(s.pacts[0][:nb*in], xs)
	} else {
		for b := 0; b < nb; b++ {
			copy(s.pacts[0][b*inP:b*inP+in], xs[b*in:(b+1)*in])
		}
	}
	cur := s.pacts[0]
	for i := range fw.hidden {
		fl := &fw.hidden[i]
		fwdLayerFast(fl.w, n.hidden[i].b.W, cur, s.pacts[i+1], nb, fl.inP, fl.out, fl.outP, true)
		cur = s.pacts[i+1]
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

// backLayerFast is the KernelFast analogue of backwardBatch for one layer:
// x rows live at padded stride inP (only the real in lanes are read),
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

// backwardBatchFast mirrors BackwardBatch for the KernelFast stream: the
// activations (and therefore ReLU masks) come from the padded buffers of
// the preceding forwardBatchFast, while gradient buffers stay at real
// strides. The ReLU mask condition act <= 0 matches forward's max(sum, +0)
// exactly (+0 masks, positives pass).
//
//uerl:hotpath
func (n *Network) backwardBatchFast(s *BatchScratch, dOut []float64, nb int) {
	out := n.cfg.Outputs
	nh := len(n.hidden)
	width := n.cfg.Inputs
	if nh > 0 {
		width = n.hidden[nh-1].out
	}
	lastAct := s.pacts[nh]
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
		pact := s.pacts[i+1]
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
		backLayerFast(h, s.pacts[i], pad4(h.in), dy, dx, nb)
		if dx != nil {
			spare = dy[:cap(dy)]
			dy = dx
		}
	}
}

// Kernel reports the kernel version the scratch was built for.
func (s *BatchScratch) Kernel() int { return s.kernel }

// NewBatchScratchKernel allocates batched scratch space for up to batch
// samples under the given kernel version. KernelReference scratches drive
// the original dot2-blocked path; KernelFast scratches add the zero-padded
// activation buffers the FMA GEMM consumes.
func (n *Network) NewBatchScratchKernel(batch, kernel int) *BatchScratch {
	if !ValidKernel(kernel) {
		panic(fmt.Sprintf("nn: unknown kernel version %d", kernel))
	}
	s := n.NewBatchScratch(batch)
	s.kernel = kernel
	if kernel == KernelFast {
		s.pacts = append(s.pacts, make([]float64, batch*pad4(n.cfg.Inputs)))
		for _, d := range n.hidden {
			s.pacts = append(s.pacts, make([]float64, batch*pad4(d.out)))
		}
	}
	return s
}
