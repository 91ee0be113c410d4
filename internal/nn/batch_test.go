package nn

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

// batchInputs builds nb deterministic pseudo-random input vectors.
func batchInputs(rng *mathx.RNG, nb, dim int) []float64 {
	xs := make([]float64, nb*dim)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

// oneByOne runs ForwardBatchInto (and, with dOut non-nil, BackwardBatch)
// one sample at a time on net, returning the concatenated outputs.
func oneByOne(net *Network, xs, dOut []float64, nb int) []float64 {
	cfg := net.Config()
	bs := net.NewBatchScratch(1)
	var q []float64
	for s := 0; s < nb; s++ {
		q = append(q, net.ForwardBatchInto(bs, xs[s*cfg.Inputs:(s+1)*cfg.Inputs], 1)...)
		if dOut != nil {
			net.BackwardBatch(bs, dOut[s*cfg.Outputs:(s+1)*cfg.Outputs], 1)
		}
	}
	return q
}

// TestForwardBatchMatchesSingle: samples are independent in
// ForwardBatchInto, so a batch's outputs are bit-identical to the same
// samples run one at a time, and within 1e-12 of the single-input
// ForwardInto path that serves decisions.
func TestForwardBatchMatchesSingle(t *testing.T) {
	for _, cfg := range []Config{
		{Inputs: 15, Hidden: []int{32, 16}, Outputs: 2, Dueling: true, Seed: 3},
		{Inputs: 15, Hidden: []int{64, 32}, Outputs: 2, Dueling: false, Seed: 4},
		{Inputs: 7, Hidden: nil, Outputs: 3, Dueling: true, Seed: 5},
		{Inputs: 9, Hidden: []int{8}, Outputs: 4, Dueling: false, Seed: 6},
	} {
		net := New(cfg)
		const nb = 13
		rng := mathx.NewRNG(99)
		xs := batchInputs(rng, nb, cfg.Inputs)

		got := net.ForwardBatchInto(net.NewBatchScratch(nb), xs, nb)
		if single := oneByOne(net, xs, nil, nb); !bitsEqual(got, single) {
			t.Fatalf("cfg %+v: batched outputs differ from one-sample batches", cfg)
		}
		scr := net.NewScratch()
		for s := 0; s < nb; s++ {
			want := net.ForwardInto(scr, xs[s*cfg.Inputs:(s+1)*cfg.Inputs])
			for o, w := range want {
				if d := math.Abs(got[s*cfg.Outputs+o] - w); d > 1e-12 {
					t.Fatalf("cfg %+v sample %d output %d: batch %v vs single %v (|Δ|=%g)",
						cfg, s, o, got[s*cfg.Outputs+o], w, d)
				}
			}
		}
	}
}

// TestBackwardBatchMatchesSerial: one BackwardBatch over a minibatch must
// leave gradients identical (bit for bit) to the per-sample
// forward+backward accumulation loop, because every weight accumulates its
// samples in ascending order either way.
func TestBackwardBatchMatchesSerial(t *testing.T) {
	for _, cfg := range []Config{
		{Inputs: 15, Hidden: []int{32, 16}, Outputs: 2, Dueling: true, Seed: 7},
		{Inputs: 15, Hidden: []int{24, 12}, Outputs: 2, Dueling: false, Seed: 8},
		{Inputs: 6, Hidden: nil, Outputs: 3, Dueling: true, Seed: 9},
	} {
		const nb = 11
		rng := mathx.NewRNG(123)
		xs := batchInputs(rng, nb, cfg.Inputs)
		dOut := batchInputs(rng, nb, cfg.Outputs)

		serial := New(cfg)
		batched := New(cfg)

		serial.ZeroGrad()
		oneByOne(serial, xs, dOut, nb)

		bs := batched.NewBatchScratch(nb)
		batched.ZeroGrad()
		batched.ForwardBatchInto(bs, xs, nb)
		batched.BackwardBatch(bs, dOut, nb)

		sp, bp := serial.Params(), batched.Params()
		for pi := range sp {
			if !bitsEqual(sp[pi].G, bp[pi].G) {
				t.Fatalf("cfg %+v param %d: batched gradients differ from serial", cfg, pi)
			}
		}
	}
}

// TestForwardBatchPartial: a scratch sized for B serves any smaller batch.
func TestForwardBatchPartial(t *testing.T) {
	cfg := Config{Inputs: 5, Hidden: []int{8}, Outputs: 2, Dueling: true, Seed: 2}
	net := New(cfg)
	rng := mathx.NewRNG(5)
	xs := batchInputs(rng, 3, cfg.Inputs)
	got := net.ForwardBatchInto(net.NewBatchScratch(32), xs, 3)
	if len(got) != 3*cfg.Outputs {
		t.Fatalf("partial batch output len %d, want %d", len(got), 3*cfg.Outputs)
	}
	if want := net.ForwardBatchInto(net.NewBatchScratch(3), xs, 3); !bitsEqual(got, want) {
		t.Fatalf("partial batch outputs %v, exact-size batch %v", got, want)
	}
}

// TestForwardBatchZeroAlloc: steady-state batched forward+backward must not
// allocate.
func TestForwardBatchZeroAlloc(t *testing.T) {
	cfg := Config{Inputs: 15, Hidden: []int{32, 16}, Outputs: 2, Dueling: true, Seed: 1}
	net := New(cfg)
	const nb = 8
	bs := net.NewBatchScratch(nb)
	rng := mathx.NewRNG(7)
	xs := batchInputs(rng, nb, cfg.Inputs)
	dOut := batchInputs(rng, nb, cfg.Outputs)
	allocs := testing.AllocsPerRun(50, func() {
		net.ForwardBatchInto(bs, xs, nb)
		net.BackwardBatch(bs, dOut, nb)
	})
	if allocs != 0 {
		t.Fatalf("batched forward+backward allocates %v times per run, want 0", allocs)
	}
}
