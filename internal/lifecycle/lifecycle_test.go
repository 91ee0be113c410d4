package lifecycle

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/features"
	"repro/internal/mathx"
	"repro/internal/rl"
)

func TestStreamFIFOAndBounds(t *testing.T) {
	s := NewStream(4)
	for i := 0; i < 6; i++ {
		s.Push(rl.Transition{A: i})
	}
	if s.ring.Len() != 4 || s.ring.Cap() != 4 {
		t.Fatalf("len=%d cap=%d, want 4/4", s.ring.Len(), s.ring.Cap())
	}
	if s.Pushed() != 6 || s.Dropped() != 2 {
		t.Fatalf("pushed=%d dropped=%d, want 6/2", s.Pushed(), s.Dropped())
	}
	var got []int
	n := s.Drain(func(tr rl.Transition) { got = append(got, tr.A) })
	if n != 4 {
		t.Fatalf("Drain returned %d, want 4", n)
	}
	for i, a := range got {
		if a != i+2 { // oldest two (0, 1) were evicted
			t.Fatalf("drained[%d] = %d, want %d", i, a, i+2)
		}
	}
	if s.ring.Len() != 0 {
		t.Fatalf("stream not empty after drain: %d", s.ring.Len())
	}
	// Wrap-around after drain still preserves order.
	for i := 10; i < 13; i++ {
		s.Push(rl.Transition{A: i})
	}
	got = got[:0]
	s.Drain(func(tr rl.Transition) { got = append(got, tr.A) })
	if len(got) != 3 || got[0] != 10 || got[2] != 12 {
		t.Fatalf("post-drain order wrong: %v", got)
	}
}

// testTrainerConfig is a tiny deterministic trainer configuration.
func testTrainerConfig(seed int64) TrainerConfig {
	return TrainerConfig{
		Agent: rl.AgentConfig{
			StateLen:     4,
			NumActions:   2,
			Hidden:       []int{8},
			Dueling:      true,
			DoubleDQN:    true,
			Gamma:        0.95,
			LearningRate: 1e-3,
			BatchSize:    8,
			Seed:         seed,
		},
		StreamCapacity: 256,
		StepsPerEpoch:  12,
	}
}

// ingestSynthetic pushes n deterministic transitions.
func ingestSynthetic(t *OnlineTrainer, seed int64, n int) {
	rng := mathx.NewRNG(seed)
	for i := 0; i < n; i++ {
		s := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		ns := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		t.Ingest(rl.Transition{S: s, A: i % 2, R: rng.Float64() - 0.5, NextS: ns})
	}
}

func netJSON(t *testing.T, tr *OnlineTrainer) string {
	t.Helper()
	data, err := json.Marshal(tr.Network())
	if err != nil {
		t.Fatalf("marshal network: %v", err)
	}
	return string(data)
}

func TestOnlineTrainerDeterministicEpochs(t *testing.T) {
	run := func() (string, EpochResult, EpochResult) {
		tr := NewOnlineTrainer(testTrainerConfig(7))
		ingestSynthetic(tr, 11, 100)
		e1 := tr.Epoch()
		ingestSynthetic(tr, 12, 50)
		e2 := tr.Epoch()
		return netJSON(t, tr), e1, e2
	}
	w1, a1, a2 := run()
	w2, b1, b2 := run()
	if w1 != w2 {
		t.Fatal("identical ingestion + epochs produced different weights")
	}
	if a1 != b1 || a2 != b2 {
		t.Fatalf("epoch results differ across runs: %+v/%+v vs %+v/%+v", a1, a2, b1, b2)
	}
	if a1.Drained != 100 || a2.Drained != 50 {
		t.Fatalf("drained %d/%d, want 100/50", a1.Drained, a2.Drained)
	}
	if a1.Steps != 12 {
		t.Fatalf("epoch 1 took %d steps, want 12", a1.Steps)
	}
	if a2.Epoch != 2 {
		t.Fatalf("epoch index = %d, want 2", a2.Epoch)
	}
}

func TestOnlineTrainerSeedChangesWeights(t *testing.T) {
	mk := func(seed int64) string {
		tr := NewOnlineTrainer(testTrainerConfig(seed))
		ingestSynthetic(tr, 11, 64)
		tr.Epoch()
		return netJSON(t, tr)
	}
	if mk(1) == mk(2) {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestOnlineTrainerBelowBatchNoSteps(t *testing.T) {
	tr := NewOnlineTrainer(testTrainerConfig(3))
	ingestSynthetic(tr, 5, 4) // below BatchSize=8
	res := tr.Epoch()
	if res.Steps != 0 || res.MeanLoss != 0 {
		t.Fatalf("undertrained epoch ran %d steps (loss %v), want 0", res.Steps, res.MeanLoss)
	}
	if res.Drained != 4 {
		t.Fatalf("drained %d, want 4", res.Drained)
	}
}

func TestOnlineTrainerWarmStartArchMismatchPanics(t *testing.T) {
	tr := NewOnlineTrainer(testTrainerConfig(3))
	other := NewOnlineTrainer(TrainerConfig{Agent: rl.AgentConfig{
		StateLen: 7, NumActions: 2, Hidden: []int{4},
		Gamma: 0.9, LearningRate: 1e-3, BatchSize: 4, Seed: 1,
	}})
	defer func() {
		if recover() == nil {
			t.Fatal("warm start with mismatched architecture did not panic")
		}
	}()
	tr.WarmStart(other.Network())
}

// driftVec builds a feature vector with the given CE total.
func driftVec(ces float64) features.Vector {
	var v features.Vector
	v[features.CEsTotal] = ces
	v[features.UECost] = 10
	return v
}

func TestDriftDetectorStableThenShifted(t *testing.T) {
	d := NewDriftDetector(DriftConfig{Threshold: 6, WindowSamples: 64})
	rng := mathx.NewRNG(1)

	sample := func(mean float64) features.Vector {
		return driftVec(mean + 2*rng.Float64())
	}

	// Reference window + three stable windows: no drift.
	checks := 0
	for i := 0; i < 4*64; i++ {
		if res, ok := d.Observe(sample(100)); ok {
			checks++
			if res.Drifted {
				t.Fatalf("stable window %d flagged drift (score %v)", res.Windows, res.Score)
			}
		}
	}
	if checks != 3 {
		t.Fatalf("completed %d comparisons, want 3", checks)
	}

	// A strongly shifted window must trip.
	var last Drift
	seen := false
	for i := 0; i < 64; i++ {
		if res, ok := d.Observe(sample(200)); ok {
			last, seen = res, true
		}
	}
	if !seen || !last.Drifted {
		t.Fatalf("shifted window not flagged: %+v (seen=%v)", last, seen)
	}
	if last.Dim != features.CEsTotal {
		t.Fatalf("drift attributed to dim %d, want CEsTotal (%d)", last.Dim, features.CEsTotal)
	}

	// Rebase: the shifted distribution becomes the new reference.
	d.Rebase()
	for i := 0; i < 64; i++ {
		d.Observe(sample(200)) // new reference window
	}
	for i := 0; i < 64; i++ {
		if res, ok := d.Observe(sample(200)); ok && res.Drifted {
			t.Fatalf("post-rebase stable window flagged drift (score %v)", res.Score)
		}
	}
}

func TestDriftDetectorDegenerateZeroVariance(t *testing.T) {
	d := NewDriftDetector(DriftConfig{Threshold: 6, WindowSamples: 8})
	for i := 0; i < 8; i++ {
		d.Observe(driftVec(5)) // constant reference
	}
	var res Drift
	ok := false
	for i := 0; i < 8; i++ {
		res, ok = d.Observe(driftVec(9)) // constant, different mean
	}
	if !ok || !res.Drifted || !math.IsInf(res.Score, 1) {
		t.Fatalf("zero-variance shift not detected: ok=%v res=%+v", ok, res)
	}
}

func TestDriftDetectorDimMask(t *testing.T) {
	// Monitoring only UECost must ignore an enormous CEsTotal shift.
	d := NewDriftDetector(DriftConfig{Threshold: 6, WindowSamples: 8, Dims: []int{features.UECost}})
	for i := 0; i < 8; i++ {
		d.Observe(driftVec(5))
	}
	for i := 0; i < 8; i++ {
		if res, ok := d.Observe(driftVec(1e9)); ok && res.Drifted {
			t.Fatalf("masked dimension tripped drift: %+v", res)
		}
	}
}

func TestStationaryDriftDimsExcludeCumulative(t *testing.T) {
	for _, dim := range StationaryDriftDims {
		switch dim {
		case features.CEsTotal, features.RanksWithCEs, features.BanksWithCEs,
			features.RowsWithCEs, features.ColsWithCEs, features.DIMMsWithCEs,
			features.UEWarnings, features.Boots, features.HoursSinceBoot:
			t.Fatalf("stationary set contains cumulative dimension %d", dim)
		}
	}
}

func TestDriftDetectorDefaults(t *testing.T) {
	d := NewDriftDetector(DriftConfig{})
	if d.cfg.Threshold != 6 || d.cfg.WindowSamples != 512 {
		t.Fatalf("defaults = %+v", d.cfg)
	}
	if d.hasRef {
		t.Fatal("fresh detector claims a reference window")
	}
}
