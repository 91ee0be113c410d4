package evalx

import (
	"testing"
	"time"

	"repro/internal/errlog"
	"repro/internal/features"
	"repro/internal/jobs"
	"repro/internal/policies"
	"repro/internal/rf"
)

func TestBuildRFDatasetLabels(t *testing.T) {
	ticks := [][]errlog.Tick{{
		mkTick(1, 0, errlog.CE),             // 10h before UE -> positive
		mkTick(1, 9*time.Hour, errlog.CE),   // 1h before UE -> positive
		mkTick(1, 10*time.Hour, errlog.UE),  // UE itself: not a sample
		mkTick(1, 100*time.Hour, errlog.CE), // long after -> negative
	}}
	ds := BuildRFDataset(ticks, time.Time{}, time.Time{})
	if len(ds.X) != 3 {
		t.Fatalf("samples = %d, want 3", len(ds.X))
	}
	if !ds.Y[0] || !ds.Y[1] || ds.Y[2] {
		t.Fatalf("labels = %v", ds.Y)
	}
	if ds.Positives() != 2 {
		t.Fatalf("positives = %d", ds.Positives())
	}
	if len(ds.X[0]) != features.PredictorDim {
		t.Fatalf("feature dim = %d", len(ds.X[0]))
	}
}

func TestBuildRFDatasetWindow(t *testing.T) {
	ticks := [][]errlog.Tick{{
		mkTick(1, 0, errlog.CE),
		mkTick(1, 9*time.Hour, errlog.CE),
	}}
	ds := BuildRFDataset(ticks, t0.Add(5*time.Hour), time.Time{})
	if len(ds.X) != 1 {
		t.Fatalf("windowed samples = %d, want 1", len(ds.X))
	}
	// The warm-up tick still influenced the tracker: CEsTotal is 2.
	if ds.X[0][features.CEsTotal] != 2 {
		t.Fatalf("warm-up lost: CEsTotal = %v", ds.X[0][features.CEsTotal])
	}
}

func TestBuildRFDatasetLabelOutsideWindowUE(t *testing.T) {
	// A UE 30h after the sample is outside the 24h prediction window.
	ticks := [][]errlog.Tick{{
		mkTick(1, 0, errlog.CE),
		mkTick(1, 30*time.Hour, errlog.UE),
	}}
	ds := BuildRFDataset(ticks, time.Time{}, time.Time{})
	if len(ds.X) != 1 || ds.Y[0] {
		t.Fatalf("label should be negative: %v", ds.Y)
	}
}

func TestOptimalThresholdPrefersCatchingUE(t *testing.T) {
	// Train a forest where high CEsTotal predicts the UE; the optimal
	// threshold must be low enough to fire before the UE, because firing
	// costs 2 node-minutes but missing costs 50 node-hours.
	ticks := ueScenario()
	ds := BuildRFDataset(ticks, time.Time{}, time.Time{})
	forest := rf.TrainForest(ds.X, ds.Y, rf.ForestConfig{Trees: 10, MaxDepth: 3, Seed: 1})
	sampler := fixedSampler(5, 1000)
	thr, cost := OptimalThreshold(forest, nil, ticks, sampler, replayCfg())
	// With every sample positive, the forest scores everything 1, so any
	// threshold < 1 fires. The search must not pick one with higher cost
	// than Always achieves.
	always := ReplayAll([]policies.Decider{policies.Always{}}, ticks, sampler, replayCfg())[0]
	if cost > always.TotalCost()+1e-9 {
		t.Fatalf("optimal threshold %v cost %v worse than Always %v", thr, cost, always.TotalCost())
	}
}

func TestPerturbThreshold(t *testing.T) {
	if got := PerturbThreshold(0.5, 0.02); got != 0.48 {
		t.Fatalf("perturbed = %v", got)
	}
	if got := PerturbThreshold(0.005, 0.05); got != 0.005 {
		t.Fatalf("clamped = %v", got)
	}
	if got := PerturbThreshold(2, 0.0); got != 0.995 {
		t.Fatalf("upper clamp = %v", got)
	}
}

var _ = jobs.Job{} // keep import balanced if helpers move
