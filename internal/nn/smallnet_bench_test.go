package nn

import "testing"

// benchSmallNet is the CI-preset agent shape (hyperCandidates PresetCI):
// 15 inputs, 32-16 hidden, dueling 2-action head — the hot configuration
// of the figure-suite benchmarks.
func benchSmallNet() *Network {
	return New(Config{Inputs: 15, Hidden: []int{32, 16}, Outputs: 2, Dueling: true, Seed: 1})
}

// BenchmarkNNTrainStepBatchedSmall measures one batched train step at the
// CI agent shape (the dominant cost of BenchmarkFig3CostBenefit's RL
// training loop).
func BenchmarkNNTrainStepBatchedSmall(b *testing.B) {
	const batch = 32
	net := benchSmallNet()
	bs := net.NewBatchScratch(batch)
	opt := &Adam{LR: 1e-3}
	xs := make([]float64, batch*15)
	for i := range xs {
		xs[i] = float64(i%15) * 0.1
	}
	dOut := make([]float64, batch*2)
	for i := range dOut {
		if i%2 == 0 {
			dOut[i] = 0.1
		} else {
			dOut[i] = -0.1
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatchInto(bs, xs, batch)
		net.ZeroGrad()
		net.BackwardBatch(bs, dOut, batch)
		opt.Step(net.Params())
		net.InvalidateFast()
	}
}

// BenchmarkNNForwardBatchSmall is the forward-only slice of the above.
func BenchmarkNNForwardBatchSmall(b *testing.B) {
	const batch = 32
	net := benchSmallNet()
	bs := net.NewBatchScratch(batch)
	xs := make([]float64, batch*15)
	for i := range xs {
		xs[i] = float64(i%15) * 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatchInto(bs, xs, batch)
	}
}

// BenchmarkNNForwardSmall measures one single-input ForwardInto at the
// learner shape: the per-decision network cost of RL serving.
func BenchmarkNNForwardSmall(b *testing.B) {
	net := benchSmallNet()
	s := net.NewScratch()
	x := make([]float64, 15)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardInto(s, x)
	}
}
