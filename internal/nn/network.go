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
//   - Serving: the single-input forward pass (ForwardInto, and its
//     stack-resident form Inference) runs dot in plain Go, every multiply
//     and add rounded separately, or gemvAVX on AVX2 CPUs, which keeps
//     dot's lane structure with VMULPD/VADDPD and never VFMADD, so every
//     serving decision has the same bits on every machine
//     (TestGemvMatchesDot and TestInferenceMatchesForwardInto pin this).
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

// forward computes y = W x + b for one input, floored at +0 when relu is
// set (see gemv).
//
//uerl:hotpath
func (d *dense) forward(x, y []float64, relu bool) {
	gemv(d.w.W, x[:d.in], y[:d.out], d.b.W, relu)
}

// gemv computes y[o] = bias[o] + dot(w[o*in:(o+1)*in], x) for every row
// o < len(y), where in = len(x), and with relu replaces every row that is
// not greater than zero (-0 and NaN included) by +0. With the assembly
// kernels on, gemvAVX computes the first len(y)&^3 rows four at a time,
// ReLU fused into its epilogue, bit-identical to dot; the remaining rows
// (and non-AVX2 builds) run dot directly.
//
//uerl:hotpath
func gemv(w, x, y, bias []float64, relu bool) {
	in := len(x)
	o := 0
	if useAsm && len(y) >= 4 {
		o = len(y) &^ 3
		r := 0
		if relu {
			r = 1
		}
		gemvAVX(&w[0], &x[0], &y[0], &bias[0], in, o, r)
	}
	for ; o < len(y); o++ {
		v := bias[o] + dot(w[o*in:(o+1)*in], x)
		if relu && !(v > 0) {
			v = 0
		}
		y[o] = v
	}
}

// Network is a dense feed-forward network with ReLU hidden activations and
// an optional dueling output head. Networks are not safe for concurrent
// mutation; training code must own the network. ForwardInto is safe to
// call concurrently only on distinct Scratch values.
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
		d.forward(cur, s.acts[i+1], true)
		cur = s.acts[i+1]
	}
	if n.cfg.Dueling {
		n.value.forward(cur, s.vOut, false)
		n.adv.forward(cur, s.aOut, false)
		meanA := mathx.Mean(s.aOut)
		for i := range s.q {
			s.q[i] = s.vOut[0] + s.aOut[i] - meanA
		}
	} else {
		n.out.forward(cur, s.q, false)
	}
	return s.q
}

// stackWidth bounds the layer widths an Inference forward pass keeps on
// the stack: each of its two ping-pong activation halves holds one layer's
// output, sized for the paper's 256-wide hidden layers. A network no wider
// than narrowWidth, as the online learner's 32-16 one is, runs in a
// quarter-size array instead, so a call zeroes 1 KiB, not 4 KiB.
const (
	stackWidth  = 256
	narrowWidth = 64
)

// Inference is an immutable single-input inference view of a frozen
// network: the serving form of ForwardInto, with the same bits. Its output
// head is packed into one zero-padded block of rows (for a dueling network
// the value row followed by the advantage rows), so the head is one gemv
// call instead of one dot per row, and every row stays bit-identical to
// dot by gemv's contract. A forward pass keeps its activations in two
// ping-pong halves of a fixed-size stack array whenever every layer and
// the packed head fit stackWidth, so it needs no scratch and allocates
// nothing; a wider network runs the same pass in a per-call buffer. The
// view reads the network's hidden weights live and keeps its own copy of
// the head, so the network must not be trained after the view is built.
// Safe for concurrent use.
type Inference struct {
	net *Network
	// head holds the packed head's rows (a multiple of 4), each as wide
	// as the head's input, and bias their biases; pad rows are zero.
	head, bias []float64
	rows       int
	// width is the widest layer output, the packed head included: the
	// size of each activation half.
	width int
}

// NewInference builds the inference view of net, which nobody may train
// afterwards.
func NewInference(net *Network) *Inference {
	in := net.cfg.Inputs
	if len(net.hidden) > 0 {
		in = net.hidden[len(net.hidden)-1].out
	}
	heads := []*dense{net.out}
	if net.cfg.Dueling {
		heads = []*dense{net.value, net.adv}
	}
	f := &Inference{net: net}
	for _, d := range heads {
		f.rows += d.out
	}
	f.rows = pad4(f.rows)
	f.head = make([]float64, 0, f.rows*in)
	f.bias = make([]float64, 0, f.rows)
	for _, d := range heads {
		f.head = append(f.head, d.w.W...)
		f.bias = append(f.bias, d.b.W...)
	}
	f.head = f.head[:cap(f.head)]
	f.bias = f.bias[:cap(f.bias)]
	f.width = f.rows
	for _, d := range net.hidden {
		f.width = max(f.width, d.out)
	}
	return f
}

// QValuesInto writes the network's outputs for input x into dst (len >=
// the output count), bit-identical to ForwardInto.
//
//uerl:hotpath
func (f *Inference) QValuesInto(dst, x []float64) {
	f.run(dst, x)
}

// Action returns argmax_a of the network's outputs for input x (the first
// index on ties; a NaN output never wins).
//
//uerl:hotpath
func (f *Inference) Action(x []float64) int {
	return f.run(nil, x)
}

// run runs the forward pass for input x in the smallest stack array that
// fits the network. It copies the outputs into dst, or, with dst nil,
// returns their argmax.
//
//uerl:hotpath
func (f *Inference) run(dst, x []float64) int {
	var out []float64
	if f.width <= narrowWidth {
		var stack [2 * narrowWidth]float64
		out = f.forward(x, stack[:])
	} else {
		var stack [2 * stackWidth]float64
		out = f.forward(x, stack[:])
	}
	if dst == nil {
		return mathx.ArgMax(out)
	}
	copy(dst, out)
	return 0
}

// forward runs the forward pass in two ping-pong activation halves, of
// the caller's stack buffer when the network fits it, and returns the
// outputs, a slice of those halves: each hidden layer writes the half its
// input does not occupy, ReLU fused, then the packed head writes the free
// half and a dueling head recombines into the other one.
//
//uerl:hotpath
func (f *Inference) forward(x []float64, buf []float64) []float64 {
	n := f.net
	if len(x) != n.cfg.Inputs {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), n.cfg.Inputs))
	}
	if 2*f.width > len(buf) {
		buf = make([]float64, 2*f.width) //uerl:alloc-ok networks wider than stackWidth take a per-call buffer; no shipped or trained network is that wide
	}
	cur, free := buf[:len(buf)/2], buf[len(buf)/2:]
	for _, d := range n.hidden {
		d.forward(x, free, true)
		x = free[:d.out]
		cur, free = free, cur
	}
	h := free[:f.rows]
	gemv(f.head, x, h, f.bias, false)
	k := n.cfg.Outputs
	if !n.cfg.Dueling {
		return h[:k]
	}
	adv := h[1 : 1+k]
	meanA := mathx.Mean(adv)
	q := cur[:k]
	for i := range q {
		q[i] = h[0] + adv[i] - meanA
	}
	return q
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
