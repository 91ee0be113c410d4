package rl

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/nn"
)

// This file holds the scalar reference DQN train step: the test oracle the
// chunked nn.KernelFast step is checked against. It recomputes one
// minibatch one transition at a time with plain Go arithmetic — a scalar
// forward and backward pass over the network's parameter tensors, the
// gradient clip, and the classic Adam update with per-element
// bias-correction divides (the nn.KernelReference stream's optimizer). It
// shares no kernel with the production step, so the two agree only to
// rounding.

// refLayer is one dense layer viewed through its parameter tensors: W is
// row-major out x in.
type refLayer struct {
	w, b    *nn.Param
	in, out int
}

// refLayers splits a network's Params in nn's order: the hidden layers'
// (W, b) pairs, then the value and advantage heads (dueling) or the output
// layer.
func refLayers(cfg nn.Config, ps []*nn.Param) []refLayer {
	var ls []refLayer
	in, i := cfg.Inputs, 0
	add := func(out int) {
		ls = append(ls, refLayer{w: ps[i], b: ps[i+1], in: in, out: out})
		i += 2
	}
	for _, h := range cfg.Hidden {
		add(h)
		in = h
	}
	if cfg.Dueling {
		add(1)
	}
	add(cfg.Outputs)
	return ls
}

func (l refLayer) forward(x []float64) []float64 {
	y := make([]float64, l.out)
	for o := range y {
		sum := 0.0
		for k, xk := range x {
			sum += l.w.W[o*l.in+k] * xk
		}
		y[o] = l.b.W[o] + sum
	}
	return y
}

// backward accumulates the layer's gradients for input x and output
// gradient dy and returns the input gradient.
func (l refLayer) backward(x, dy []float64) []float64 {
	dx := make([]float64, l.in)
	for o, g := range dy {
		l.b.G[o] += g
		for k, xk := range x {
			l.w.G[o*l.in+k] += g * xk
			dx[k] += g * l.w.W[o*l.in+k]
		}
	}
	return dx
}

// refForward returns the network's Q-values for x and its activations:
// acts[0] is x and acts[i+1] the post-ReLU output of hidden layer i.
func refForward(cfg nn.Config, ls []refLayer, x []float64) (acts [][]float64, q []float64) {
	acts = [][]float64{x}
	nh := len(cfg.Hidden)
	for _, l := range ls[:nh] {
		y := l.forward(acts[len(acts)-1])
		for i, v := range y {
			if !(v > 0) {
				y[i] = 0
			}
		}
		acts = append(acts, y)
	}
	h := acts[nh]
	if !cfg.Dueling {
		return acts, ls[nh].forward(h)
	}
	v := ls[nh].forward(h)[0]
	adv := ls[nh+1].forward(h)
	mean := 0.0
	for _, a := range adv {
		mean += a
	}
	mean /= float64(len(adv))
	q = make([]float64, len(adv))
	for i, a := range adv {
		q[i] = v + a - mean
	}
	return acts, q
}

// refBackward accumulates the parameter gradients of the forward pass that
// produced acts, given dLoss/dQ.
func refBackward(cfg nn.Config, ls []refLayer, acts [][]float64, dq []float64) {
	nh := len(cfg.Hidden)
	h := acts[nh]
	var dh []float64
	if cfg.Dueling {
		// Q_i = V + A_i - mean(A): dV = sum_i dQ_i; dA_j = dQ_j - mean(dQ).
		sum := 0.0
		for _, g := range dq {
			sum += g
		}
		dA := make([]float64, len(dq))
		for i, g := range dq {
			dA[i] = g - sum/float64(len(dq))
		}
		dh = ls[nh].backward(h, []float64{sum})
		for i, g := range ls[nh+1].backward(h, dA) {
			dh[i] += g
		}
	} else {
		dh = ls[nh].backward(h, dq)
	}
	for i := nh - 1; i >= 0; i-- {
		for j := range dh {
			if !(acts[i+1][j] > 0) {
				dh[j] = 0
			}
		}
		dh = ls[i].backward(acts[i], dh)
	}
}

// refAdam is the classic Adam update: w -= lr*(m/c1)/(sqrt(v/c2)+eps).
type refAdam struct {
	lr   float64
	t    int
	m, v [][]float64
}

func (o *refAdam) step(ps []*nn.Param) {
	const b1, b2, eps = 0.9, 0.999, 1e-8
	if o.m == nil {
		for _, p := range ps {
			o.m = append(o.m, make([]float64, len(p.W)))
			o.v = append(o.v, make([]float64, len(p.W)))
		}
	}
	o.t++
	c1 := 1 - math.Pow(b1, float64(o.t))
	c2 := 1 - math.Pow(b2, float64(o.t))
	for pi, p := range ps {
		m, v := o.m[pi], o.v[pi]
		for i, g := range p.G {
			m[i] = b1*m[i] + (1-b1)*g
			v[i] = b2*v[i] + (1-b2)*g*g
			p.W[i] -= o.lr * (m[i] / c1) / (math.Sqrt(v[i]/c2) + eps)
		}
	}
}

// referenceTrainStep takes one DQN train step on online for the minibatch
// trs with importance weights ws, bootstrapping from target, and returns
// the per-transition TD errors. It mirrors Agent.trainBatch's loss — the
// importance-weighted mean Huber loss, double DQN when configured — then
// clips the gradient norm and applies opt.
func referenceTrainStep(cfg AgentConfig, online, target *nn.Network, opt *refAdam, trs []Transition, ws []float64) []float64 {
	ncfg := online.Config()
	ls := refLayers(ncfg, online.Params())
	tls := refLayers(ncfg, target.Params())
	online.ZeroGrad()
	n := len(trs)
	tdErrs := make([]float64, n)
	for i, tr := range trs {
		y := tr.R
		if !tr.Done {
			_, qTgt := refForward(ncfg, tls, tr.NextS)
			best := mathx.ArgMax(qTgt)
			if cfg.DoubleDQN {
				_, qNext := refForward(ncfg, ls, tr.NextS)
				best = mathx.ArgMax(qNext)
			}
			y += cfg.Gamma * qTgt[best]
		}
		acts, q := refForward(ncfg, ls, tr.S)
		_, dPred := nn.HuberLoss(q[tr.A], y, cfg.HuberDelta)
		tdErrs[i] = q[tr.A] - y
		dq := make([]float64, len(q))
		dq[tr.A] = dPred * (ws[i] / float64(n))
		refBackward(ncfg, ls, acts, dq)
	}
	norm := 0.0
	for _, p := range online.Params() {
		for _, g := range p.G {
			norm += g * g
		}
	}
	norm = math.Sqrt(norm)
	if cfg.GradClip > 0 && norm > cfg.GradClip {
		for _, p := range online.Params() {
			for i := range p.G {
				p.G[i] *= cfg.GradClip / (norm + 1e-12)
			}
		}
	}
	opt.step(online.Params())
	return tdErrs
}

// assertClose fails unless got and want agree element-wise to rel relative
// error, with identical NaN and ±Inf positions.
func assertClose(t *testing.T, name string, got, want []float64, rel float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle has %d", name, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if math.IsNaN(g) != math.IsNaN(w) || math.IsInf(g, 1) != math.IsInf(w, 1) || math.IsInf(g, -1) != math.IsInf(w, -1) {
			t.Fatalf("%s[%d] = %v, oracle %v: NaN/Inf states differ", name, i, g, w)
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			continue
		}
		if d := math.Abs(g - w); d > rel*math.Max(math.Abs(g), math.Abs(w)) {
			t.Fatalf("%s[%d] = %v, oracle %v (relative error %.3g)", name, i, g, w, d/math.Abs(w))
		}
	}
}

// TestChunkedTrainStepMatchesOracle takes one chunked nn.KernelFast train
// step at the online learner's shape (15→32→16, dueling, batch 32, four
// chunks) and checks the TD errors, the clipped gradients and every
// updated weight against the scalar oracle's step on the same minibatch.
// The target network gets its own weights, so double DQN's selection by
// the online network and evaluation by the target are told apart, and the
// gradient clip (1, below the minibatch's gradient norm) is exercised.
func TestChunkedTrainStepMatchesOracle(t *testing.T) {
	for _, double := range []bool{true, false} {
		cfg := AgentConfig{
			StateLen: 15, NumActions: 2, Hidden: []int{32, 16},
			Dueling: true, DoubleDQN: double, Gamma: 0.99, LearningRate: 3e-3,
			BatchSize: 32, GradClip: 1, HuberDelta: 1, Seed: 7,
		}
		agent := NewAgent(cfg, NewPrioritizedReplay(PERConfig{Capacity: 1 << 10, Alpha: 0.6, Beta: 0.4}))
		agent.target.CopyFrom(nn.New(nn.Config{Inputs: 15, Hidden: []int{32, 16}, Outputs: 2, Dueling: true, Seed: 99}))
		rng := mathx.NewRNG(11)
		state := func() []float64 {
			s := make([]float64, cfg.StateLen)
			for i := range s {
				s[i] = rng.NormFloat64()
			}
			return s
		}
		for i := 0; i < 200; i++ {
			agent.AddExperience(Transition{
				S: state(), A: rng.Intn(cfg.NumActions), R: -3 * rng.Float64(),
				NextS: state(), Done: i%7 == 0,
			})
		}
		online, target := agent.Online().Clone(), agent.target.Clone()
		if _, ok := agent.TrainStep(); !ok {
			t.Fatal("train step did not run")
		}
		n := cfg.BatchSize
		tdErrs := referenceTrainStep(cfg, online, target, &refAdam{lr: cfg.LearningRate},
			agent.sampTrs[:n], agent.sampWs[:n])

		assertClose(t, "tdErr", agent.tdErrs[:n], tdErrs, 1e-9)
		got, want := agent.Online().Params(), online.Params()
		for pi := range want {
			assertClose(t, "grad", got[pi].G, want[pi].G, 1e-9)
			assertClose(t, "weight", got[pi].W, want[pi].W, 1e-9)
		}
	}
}
