package nn

// fastLayer is one layer's padded weight image for the batched kernels: rows zero-padded from
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

// EnsureFast prewarms the padded weight image so subsequent concurrent
// forward passes (the chunked trainer's workers) never rebuild it.
func (n *Network) EnsureFast() { n.ensureFast() }

// InvalidateFast marks the weights as mutated so the next batched pass
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
