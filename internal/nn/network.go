// Package nn implements the small dense neural networks used by the deep
// Q-learning agent: fully connected layers with ReLU activations, an
// optional dueling head (Wang et al., ICML 2016), manual backpropagation,
// the Huber loss with per-sample importance weights, and the
// Adam optimizer. Everything is float64 and stdlib-only.
//
// The package is deliberately scoped to what the paper's agent needs
// (§3.3.2: an MLP with hidden layers 256-256-128-64 feeding a dueling
// value/advantage head), but the layers are generic.
//
// Arithmetic runs on two paths:
//
//   - Serving: the single-input forward pass (ForwardInto) runs dot in
//     plain Go, every multiply and add rounded separately, or gemvAVX on
//     AVX2 CPUs, which keeps dot's lane structure with VMULPD/VADDPD and
//     never VFMADD, so every serving decision has the same bits on every
//     machine (TestGemvMatchesDot pins this).
//   - Training: the KernelFast stream (batch.go, fast.go), the only one
//     the package trains under. A padded-weight FMA GEMM forward pass,
//     FMA gradient accumulation and the reciprocal Adam update. It is
//     deterministic, with identical bits between its AVX2 kernels and
//     their math.FMA fallbacks (the *AsmParity tests pin this). A scalar
//     per-sample reference step lives only in the tests, as the oracle the
//     stream is checked against.
//
//uerl:deterministic
package nn

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
)

// Config describes a feed-forward network.
type Config struct {
	// Inputs is the input dimension.
	Inputs int
	// Hidden lists the hidden layer widths, e.g. {256, 256, 128, 64}.
	Hidden []int
	// Outputs is the number of outputs (Q-values, one per action).
	Outputs int
	// Dueling selects the dueling architecture: the last hidden layer feeds
	// separate value and advantage streams recombined as
	// Q(s,a) = V(s) + A(s,a) - mean_a' A(s,a').
	Dueling bool
	// Seed seeds weight initialization.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Inputs <= 0 {
		return fmt.Errorf("nn: Inputs must be positive, got %d", c.Inputs)
	}
	if c.Outputs <= 0 {
		return fmt.Errorf("nn: Outputs must be positive, got %d", c.Outputs)
	}
	for i, h := range c.Hidden {
		if h <= 0 {
			return fmt.Errorf("nn: Hidden[%d] must be positive, got %d", i, h)
		}
	}
	return nil
}

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	W []float64 // values
	G []float64 // accumulated gradient
}

// dense is one fully connected layer: y = W x + b, with W stored row-major
// (out x in).
type dense struct {
	in, out int
	w, b    *Param
}

func newDense(in, out int, rng *mathx.RNG) *dense {
	d := &dense{
		in:  in,
		out: out,
		w:   &Param{W: make([]float64, in*out), G: make([]float64, in*out)},
		b:   &Param{W: make([]float64, out), G: make([]float64, out)},
	}
	// He initialization, appropriate for ReLU units.
	std := math.Sqrt(2.0 / float64(in))
	for i := range d.w.W {
		d.w.W[i] = rng.NormFloat64() * std
	}
	return d
}

// dot computes the inner product of a and b (len(b) >= len(a)) with a
// 4-lane unrolled accumulation. Every single-input forward pass funnels
// through this kernel (or through gemvAVX, which computes each row with
// the identical lane structure), so serving outputs are bit-identical on
// every machine. The float64(a*b) conversions keep multiply and add
// separately rounded on compilers that would otherwise fuse them (see
// kernel_noasm.go).
//
//uerl:hotpath
func dot(a, b []float64) float64 {
	b = b[:len(a)] // one bounds check up front
	var s0, s1, s2, s3 float64
	n4 := len(a) &^ 3
	for i := 0; i < n4; i += 4 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
	}
	for i := n4; i < len(a); i++ {
		s0 += float64(a[i] * b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// axpy accumulates y += alpha*x, multiply and add rounded separately: the
// in-order chunk-gradient reduction of AccumulateGrads.
//
//uerl:hotpath
func axpy(alpha float64, x, y []float64) {
	y = y[:len(x)] // one bounds check up front
	n4 := len(x) &^ 3
	if useAsm && n4 >= 8 {
		// Bit-identical to the scalar loop below (element-wise, unfused
		// multiply and add).
		axpyAVX(alpha, &x[0], &y[0], n4)
		for i := n4; i < len(x); i++ {
			y[i] += float64(alpha * x[i])
		}
		return
	}
	for i := 0; i < n4; i += 4 {
		y[i] += float64(alpha * x[i])
		y[i+1] += float64(alpha * x[i+1])
		y[i+2] += float64(alpha * x[i+2])
		y[i+3] += float64(alpha * x[i+3])
	}
	for i := n4; i < len(x); i++ {
		y[i] += float64(alpha * x[i])
	}
}

// forward computes y = W x + b for one input. With the assembly kernels
// on, gemvAVX computes the first out&^3 rows four at a time, bit-identical
// to dot; the remaining rows (and non-AVX2 builds) run dot directly.
//
//uerl:hotpath
func (d *dense) forward(x, y []float64) {
	x = x[:d.in]
	y = y[:d.out]
	o := 0
	if useAsm && d.out >= 4 {
		o = d.out &^ 3
		gemvAVX(&d.w.W[0], &x[0], &y[0], &d.b.W[0], d.in, o)
	}
	for ; o < d.out; o++ {
		row := d.w.W[o*d.in : (o+1)*d.in]
		y[o] = d.b.W[o] + dot(row, x)
	}
}

// Network is a dense feed-forward network with ReLU hidden activations and
// an optional dueling output head. Networks are not safe for concurrent
// mutation; training code must own the network. Forward is safe to call
// concurrently only on distinct Scratch values via ForwardInto.
type Network struct {
	cfg    Config
	hidden []*dense
	// Non-dueling output layer.
	out *dense
	// Dueling heads from the last hidden layer.
	value, adv *dense
	// params caches the stable parameter order so the per-train-step
	// Params calls (ZeroGrad, gradient clip, optimizer) allocate nothing.
	params []*Param
	// gen counts weight mutations; fast holds the KernelFast zero-padded
	// weight image, rebuilt lazily whenever gen moves past the generation
	// it was built at (see fast.go).
	gen  uint64
	fast *fastWeights
	// shadowOf is non-nil on gradient shadows (GradShadow): shadows share
	// the owner's weight slices and padded image but carry private
	// gradient accumulators.
	shadowOf *Network
}

// New builds a network from cfg, panicking on invalid configuration (the
// configuration is developer-supplied, never user data).
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := mathx.NewRNG(cfg.Seed)
	n := &Network{cfg: cfg, gen: 1}
	prev := cfg.Inputs
	for _, h := range cfg.Hidden {
		n.hidden = append(n.hidden, newDense(prev, h, rng))
		prev = h
	}
	if cfg.Dueling {
		n.value = newDense(prev, 1, rng)
		n.adv = newDense(prev, cfg.Outputs, rng)
	} else {
		n.out = newDense(prev, cfg.Outputs, rng)
	}
	for _, d := range n.hidden {
		n.params = append(n.params, d.w, d.b)
	}
	if cfg.Dueling {
		n.params = append(n.params, n.value.w, n.value.b, n.adv.w, n.adv.b)
	} else {
		n.params = append(n.params, n.out.w, n.out.b)
	}
	return n
}

// Config returns the configuration the network was built with.
func (n *Network) Config() Config { return n.cfg }

// Params returns all trainable parameters in a stable order. The slice is
// cached and owned by the network; callers must not append to or reorder
// it.
func (n *Network) Params() []*Param { return n.params }

// ZeroGrad clears all accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		for i := range p.G {
			p.G[i] = 0
		}
	}
}

// Scratch holds per-forward intermediate activations so that a forward
// pass allocates nothing in steady state.
type Scratch struct {
	// acts[0] is the input; acts[i+1] is the post-activation output of
	// hidden layer i.
	acts [][]float64
	vOut []float64
	aOut []float64
	q    []float64
}

// NewScratch allocates scratch space sized for n.
func (n *Network) NewScratch() *Scratch {
	s := &Scratch{}
	s.acts = append(s.acts, make([]float64, n.cfg.Inputs))
	for _, d := range n.hidden {
		s.acts = append(s.acts, make([]float64, d.out))
	}
	s.vOut = make([]float64, 1)
	s.aOut = make([]float64, n.cfg.Outputs)
	s.q = make([]float64, n.cfg.Outputs)
	return s
}

// Forward computes Q-values for input x, allocating a fresh output slice.
// For hot paths use ForwardInto with a reused Scratch.
func (n *Network) Forward(x []float64) []float64 {
	s := n.NewScratch()
	q := n.ForwardInto(s, x)
	out := make([]float64, len(q))
	copy(out, q)
	return out
}

// ForwardInto runs a forward pass using s for intermediates and returns the
// output slice owned by s (valid until the next ForwardInto on s).
//
//uerl:hotpath
func (n *Network) ForwardInto(s *Scratch, x []float64) []float64 {
	if len(x) != n.cfg.Inputs {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), n.cfg.Inputs))
	}
	copy(s.acts[0], x)
	cur := s.acts[0]
	for i, d := range n.hidden {
		d.forward(cur, s.acts[i+1])
		relu(s.acts[i+1])
		cur = s.acts[i+1]
	}
	if n.cfg.Dueling {
		n.value.forward(cur, s.vOut)
		n.adv.forward(cur, s.aOut)
		meanA := mathx.Mean(s.aOut)
		for i := range s.q {
			s.q[i] = s.vOut[0] + s.aOut[i] - meanA
		}
	} else {
		n.out.forward(cur, s.q)
	}
	return s.q
}

//uerl:hotpath
func relu(x []float64) {
	for i, v := range x {
		if !(v > 0) {
			x[i] = 0
		}
	}
}

// Clone returns a deep copy with identical weights and zeroed gradients.
func (n *Network) Clone() *Network {
	c := New(n.cfg)
	c.CopyFrom(n)
	return c
}

// CopyFrom copies src's weights into n (a hard target-network sync). The
// architectures must match.
func (n *Network) CopyFrom(src *Network) {
	dst := n.Params()
	from := src.Params()
	if len(dst) != len(from) {
		panic("nn: CopyFrom architecture mismatch")
	}
	for i, p := range dst {
		if len(p.W) != len(from[i].W) {
			panic("nn: CopyFrom parameter shape mismatch")
		}
		copy(p.W, from[i].W)
	}
	n.InvalidateFast()
}

// snapshot is the JSON serialization form.
type snapshot struct {
	Config Config      `json:"config"`
	Params [][]float64 `json:"params"`
}

// MarshalJSON serializes the architecture and weights.
func (n *Network) MarshalJSON() ([]byte, error) {
	snap := snapshot{Config: n.cfg}
	for _, p := range n.Params() {
		w := make([]float64, len(p.W))
		copy(w, p.W)
		snap.Params = append(snap.Params, w)
	}
	return json.Marshal(snap)
}

// UnmarshalJSON restores a network serialized by MarshalJSON.
func (n *Network) UnmarshalJSON(data []byte) error {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return err
	}
	if err := snap.Config.Validate(); err != nil {
		return err
	}
	restored := New(snap.Config)
	ps := restored.Params()
	if len(ps) != len(snap.Params) {
		return errors.New("nn: serialized parameter count mismatch")
	}
	for i, p := range ps {
		if len(p.W) != len(snap.Params[i]) {
			return fmt.Errorf("nn: serialized parameter %d has %d values, want %d",
				i, len(snap.Params[i]), len(p.W))
		}
		copy(p.W, snap.Params[i])
	}
	*n = *restored
	return nil
}

// NumParams returns the total number of trainable scalars.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.W)
	}
	return total
}
