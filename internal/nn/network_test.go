package nn

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/mathx"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Inputs: 0, Outputs: 2},
		{Inputs: 3, Outputs: 0},
		{Inputs: 3, Outputs: 2, Hidden: []int{4, -1}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	good := Config{Inputs: 3, Outputs: 2, Hidden: []int{8}}
	if err := good.Validate(); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

// forward runs one pass on a fresh Scratch and returns a copy of the
// output.
func forward(n *Network, x []float64) []float64 {
	return append([]float64(nil), n.ForwardInto(n.NewScratch(), x)...)
}

func TestForwardShapes(t *testing.T) {
	n := New(Config{Inputs: 4, Hidden: []int{8, 6}, Outputs: 2, Seed: 1})
	q := forward(n, []float64{1, 2, 3, 4})
	if len(q) != 2 {
		t.Fatalf("output len %d", len(q))
	}
	d := New(Config{Inputs: 4, Hidden: []int{8}, Outputs: 3, Dueling: true, Seed: 1})
	q = forward(d, []float64{1, 0, -1, 2})
	if len(q) != 3 {
		t.Fatalf("dueling output len %d", len(q))
	}
}

func TestForwardDeterministic(t *testing.T) {
	a := New(Config{Inputs: 3, Hidden: []int{5}, Outputs: 2, Seed: 9})
	b := New(Config{Inputs: 3, Hidden: []int{5}, Outputs: 2, Seed: 9})
	x := []float64{0.5, -1, 2}
	qa, qb := forward(a, x), forward(b, x)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatal("same seed networks differ")
		}
	}
	c := New(Config{Inputs: 3, Hidden: []int{5}, Outputs: 2, Seed: 10})
	qc := forward(c, x)
	same := true
	for i := range qa {
		if qa[i] != qc[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical outputs")
	}
}

func TestDuelingMeanInvariant(t *testing.T) {
	// In a dueling head, Q(s,a) - V(s) must have zero mean over actions;
	// equivalently mean_a Q(s,a) == V(s). We can't read V directly, but a
	// network with zero advantage weights must output identical Q values.
	n := New(Config{Inputs: 2, Hidden: []int{4}, Outputs: 3, Dueling: true, Seed: 3})
	for i := range n.adv.w.W {
		n.adv.w.W[i] = 0
	}
	for i := range n.adv.b.W {
		n.adv.b.W[i] = 0
	}
	q := forward(n, []float64{1, -1})
	for i := 1; i < len(q); i++ {
		if math.Abs(q[i]-q[0]) > 1e-12 {
			t.Fatalf("zero-advantage dueling outputs differ: %v", q)
		}
	}
}

// numericalGrad estimates dLoss/dw for every parameter scalar by central
// differences, where loss = 0.5 * sum((q - target)^2).
func numericalGrad(n *Network, x, target []float64) [][]float64 {
	const h = 1e-6
	loss := func() float64 {
		q := forward(n, x)
		l := 0.0
		for i := range q {
			d := q[i] - target[i]
			l += 0.5 * d * d
		}
		return l
	}
	var grads [][]float64
	for _, p := range n.Params() {
		g := make([]float64, len(p.W))
		for i := range p.W {
			orig := p.W[i]
			p.W[i] = orig + h
			up := loss()
			p.W[i] = orig - h
			down := loss()
			p.W[i] = orig
			g[i] = (up - down) / (2 * h)
		}
		grads = append(grads, g)
	}
	return grads
}

func checkGradients(t *testing.T, cfg Config) {
	t.Helper()
	n := New(cfg)
	rng := mathx.NewRNG(99)
	x := make([]float64, cfg.Inputs)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	target := make([]float64, cfg.Outputs)
	for i := range target {
		target[i] = rng.NormFloat64()
	}
	s := n.NewBatchScratch(1)
	q := n.ForwardBatchInto(s, x, 1)
	dOut := make([]float64, len(q))
	for i := range q {
		dOut[i] = q[i] - target[i]
	}
	n.ZeroGrad()
	n.BackwardBatch(s, dOut, 1)
	want := numericalGrad(n, x, target)
	for pi, p := range n.Params() {
		for i := range p.G {
			diff := math.Abs(p.G[i] - want[pi][i])
			scale := math.Max(1, math.Abs(want[pi][i]))
			if diff/scale > 1e-4 {
				t.Fatalf("param %d index %d: analytic %v numeric %v",
					pi, i, p.G[i], want[pi][i])
			}
		}
	}
}

func TestGradientsPlain(t *testing.T) {
	checkGradients(t, Config{Inputs: 5, Hidden: []int{7, 6}, Outputs: 3, Seed: 2})
}

func TestGradientsDueling(t *testing.T) {
	checkGradients(t, Config{Inputs: 5, Hidden: []int{7, 6}, Outputs: 3, Dueling: true, Seed: 2})
}

func TestGradientsNoHidden(t *testing.T) {
	checkGradients(t, Config{Inputs: 4, Outputs: 2, Seed: 5})
}

func TestGradientsDeepPaperArch(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checkGradients(t, Config{Inputs: 14, Hidden: []int{16, 16, 8, 4}, Outputs: 2, Dueling: true, Seed: 7})
}

func TestTrainingReducesLoss(t *testing.T) {
	// Fit a tiny regression problem: Q(x) = [sum(x), -sum(x)].
	n := New(Config{Inputs: 3, Hidden: []int{16, 16}, Outputs: 2, Dueling: true, Seed: 4})
	opt := &Adam{LR: 0.01}
	rng := mathx.NewRNG(8)
	s := n.NewScratch()
	lossAt := func() float64 {
		total := 0.0
		probe := mathx.NewRNG(123)
		for k := 0; k < 50; k++ {
			x := []float64{probe.NormFloat64(), probe.NormFloat64(), probe.NormFloat64()}
			sum := x[0] + x[1] + x[2]
			q := n.ForwardInto(s, x)
			total += (q[0]-sum)*(q[0]-sum) + (q[1]+sum)*(q[1]+sum)
		}
		return total / 50
	}
	before := lossAt()
	bs := n.NewBatchScratch(1)
	dOut := make([]float64, 2)
	for step := 0; step < 2000; step++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		sum := x[0] + x[1] + x[2]
		q := n.ForwardBatchInto(bs, x, 1)
		dOut[0] = q[0] - sum
		dOut[1] = q[1] + sum
		n.ZeroGrad()
		n.BackwardBatch(bs, dOut, 1)
		opt.Step(n.Params())
		n.InvalidateFast()
	}
	after := lossAt()
	if after > before/10 {
		t.Fatalf("training did not reduce loss: before %v after %v", before, after)
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	a := New(Config{Inputs: 3, Hidden: []int{4}, Outputs: 2, Seed: 1})
	b := a.Clone()
	x := []float64{1, 2, 3}
	qa, qb := forward(a, x), forward(b, x)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatal("clone differs")
		}
	}
	// Mutating the clone must not touch the original.
	b.Params()[0].W[0] += 1
	qa2 := forward(a, x)
	for i := range qa {
		if qa[i] != qa2[i] {
			t.Fatal("clone shares storage with original")
		}
	}
	// CopyFrom restores equality.
	b.CopyFrom(a)
	qb = forward(b, x)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatal("CopyFrom did not sync")
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	a := New(Config{Inputs: 6, Hidden: []int{8, 4}, Outputs: 2, Dueling: true, Seed: 42})
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var b Network
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, -2, 3, 0, 0.5, -0.5}
	qa, qb := forward(a, x), forward(&b, x)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("round trip output mismatch: %v vs %v", qa, qb)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var n Network
	if err := json.Unmarshal([]byte(`{"config":{"Inputs":0}}`), &n); err == nil {
		t.Fatal("expected error for invalid config")
	}
	if err := json.Unmarshal([]byte(`not json`), &n); err == nil {
		t.Fatal("expected error for bad json")
	}
}

func TestForwardPanicsOnBadInput(t *testing.T) {
	n := New(Config{Inputs: 3, Outputs: 1, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input size")
		}
	}()
	forward(n, []float64{1})
}

// edgeInput fills an input vector for trial: normal draws on even
// trials, and on odd ones also a NaN, a ±Inf or -0s at random positions
// (one NaN or Inf at most, so the rest of the network still computes
// finite values that the comparison can tell apart).
func edgeInput(rng *mathx.RNG, n, trial int) []float64 {
	x := randSlice(rng, n)
	if trial%2 == 1 {
		switch rng.Intn(3) {
		case 0:
			x[rng.Intn(n)] = math.NaN()
		case 1:
			x[rng.Intn(n)] = math.Inf(rng.Intn(2)*2 - 1)
		}
		for i := range x {
			if rng.Intn(4) == 0 {
				x[i] = math.Copysign(0, -1)
			}
		}
	}
	return x
}

// roughen edits a network's weights so that some hidden pre-activations
// are exactly +0 (an all-zero row with a ±0 bias) or NaN (a NaN bias),
// which the fused ReLU must floor to +0 as the Go rule does.
func roughen(rng *mathx.RNG, n *Network) {
	for _, d := range n.hidden {
		for o := 0; o < d.out; o++ {
			switch rng.Intn(8) {
			case 0:
				d.b.W[o] = math.NaN()
			case 1:
				clear(d.w.W[o*d.in : (o+1)*d.in])
				d.b.W[o] = math.Copysign(0, float64(rng.Intn(2)*2-1))
			}
		}
	}
}

// TestInferenceMatchesForwardInto pins the serving forward pass: the
// stack forward (packed output head, ReLU fused into gemv) with the
// assembly kernels on must reproduce ForwardInto with them off, bit for
// bit (NaN payloads aside), and Action must be ArgMax of those outputs.
// It covers every input width 1–67, hidden widths that are not multiples
// of 4, dueling and plain heads with 1–5 outputs, a network wider than
// the stack bound (the per-call buffer), NaN, ±Inf and -0
// inputs, and hidden units whose pre-activations are exactly +0 or NaN.
// Hidden widths at and just past narrowWidth cover the switch between
// the two stack arrays.
func TestInferenceMatchesForwardInto(t *testing.T) {
	rng := mathx.NewRNG(27)
	hiddens := [][]int{nil, {5}, {7, 3}, {13, 6, 9}, {32, 16}, {narrowWidth, 7}, {narrowWidth + 1, 5}, {stackWidth + 1, 3}}
	check := func(cfg Config, trials int) {
		t.Helper()
		n := New(cfg)
		roughen(rng, n)
		f := NewInference(n)
		wide := len(cfg.Hidden) > 0 && cfg.Hidden[0] > stackWidth
		if (f.width > stackWidth) != wide {
			t.Fatalf("%+v: widest layer %d, stack bound %d", cfg, f.width, stackWidth)
		}
		s := n.NewScratch()
		for trial := 0; trial < trials; trial++ {
			x := edgeInput(rng, cfg.Inputs, trial)
			var want []float64
			withAsm(t, false, func() { want = append(want, n.ForwardInto(s, x)...) })
			for _, asm := range []bool{true, false} {
				got := make([]float64, cfg.Outputs)
				act := -1
				run := func() {
					f.QValuesInto(got, x)
					act = f.Action(x)
				}
				if asm && !haveAVX2FMA {
					continue
				}
				withAsm(t, asm, run)
				if !sameBits(want, got) {
					t.Fatalf("%+v asm=%v trial %d, x=%v: inference %v, ForwardInto %v", cfg, asm, trial, x, got, want)
				}
				if act != mathx.ArgMax(want) {
					t.Fatalf("%+v asm=%v trial %d: Action %d, ArgMax %d of %v", cfg, asm, trial, act, mathx.ArgMax(want), want)
				}
			}
		}
	}
	for in := 1; in <= 67; in++ {
		for _, h := range hiddens[:4] {
			for outs := 1; outs <= 5; outs++ {
				for _, dueling := range []bool{false, true} {
					check(Config{Inputs: in, Hidden: h, Outputs: outs, Dueling: dueling, Seed: int64(in)}, 4)
				}
			}
		}
	}
	for _, h := range hiddens[3:] {
		for outs := 1; outs <= 5; outs++ {
			for _, dueling := range []bool{false, true} {
				check(Config{Inputs: 15, Hidden: h, Outputs: outs, Dueling: dueling, Seed: int64(outs)}, 20)
			}
		}
	}
	check(Config{Inputs: 15, Hidden: []int{256, 256, 128, 64}, Outputs: 2, Dueling: true, Seed: 3}, 20)
}

// TestInferenceZeroAlloc pins the stack forward's allocation contract:
// a network that fits the stack bound allocates nothing per call.
func TestInferenceZeroAlloc(t *testing.T) {
	for _, hidden := range [][]int{{32, 16}, {256, 256, 128, 64}} {
		f := NewInference(New(Config{Inputs: 15, Hidden: hidden, Outputs: 2, Dueling: true, Seed: 1}))
		x := randSlice(mathx.NewRNG(1), 15)
		var q [2]float64
		if a := testing.AllocsPerRun(100, func() {
			f.QValuesInto(q[:], x)
			_ = f.Action(x)
		}); a != 0 {
			t.Fatalf("hidden %v: %v allocs per forward pair, want 0", hidden, a)
		}
	}
}
