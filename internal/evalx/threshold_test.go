package evalx

import (
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/errlog"
	"repro/internal/features"
	"repro/internal/jobs"
	"repro/internal/policies"
	"repro/internal/rf"
)

// thresholdWorld builds a tiny deterministic replay world: a forest that
// has learned "many CEs → UE", one node whose CE count escalates into a
// UE, and one quiet node with a few background CEs.
func thresholdWorld(t *testing.T) (*rf.Forest, [][]errlog.Tick, *jobs.Sampler, ReplayConfig) {
	t.Helper()

	// Training set: high cumulative CE count predicts a UE.
	var xs [][]float64
	var ys []bool
	for i := 0; i < 40; i++ {
		row := make([]float64, features.PredictorDim)
		if i%2 == 0 {
			row[features.CEsTotal] = 400 + float64(i)
			row[features.CEsSinceLastEvent] = 20
			ys = append(ys, true)
		} else {
			row[features.CEsTotal] = float64(i)
			ys = append(ys, false)
		}
		xs = append(xs, row)
	}
	forest := rf.TrainForest(xs, ys, rf.DefaultForestConfig())

	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	ce := func(node, count int, at time.Time) errlog.Tick {
		return errlog.Tick{Time: at, Node: node, Events: []errlog.Event{{
			Time: at, Node: node, DIMM: 0, Type: errlog.CE, Count: count,
			Rank: 0, Bank: 0, Row: 1, Col: 1,
		}}}
	}
	ue := func(node int, at time.Time) errlog.Tick {
		return errlog.Tick{Time: at, Node: node, Events: []errlog.Event{{
			Time: at, Node: node, DIMM: 0, Type: errlog.UE, Count: 1,
			Rank: -1, Bank: -1, Row: -1, Col: -1,
		}}}
	}

	var failing, quiet []errlog.Tick
	for i := 0; i < 30; i++ {
		failing = append(failing, ce(0, 30, start.Add(time.Duration(i)*time.Hour)))
	}
	failing = append(failing, ue(0, start.Add(31*time.Hour)))
	for i := 0; i < 5; i++ {
		quiet = append(quiet, ce(1, 1, start.Add(time.Duration(i*7)*time.Hour)))
	}

	trace := []jobs.Job{{ID: 1, Nodes: 64, Duration: 12 * time.Hour}}
	cfg := ReplayConfig{Env: env.DefaultConfig(), JobSeed: 1}
	return forest, [][]errlog.Tick{failing, quiet}, jobs.NewSampler(trace), cfg
}

func TestOptimalThresholdPicksArgmin(t *testing.T) {
	forest, byNode, sampler, cfg := thresholdWorld(t)
	grid := []float64{0.05, 0.3, 0.6, 0.95}

	best, bestCost := OptimalThreshold(forest, grid, byNode, sampler, cfg)

	// The returned pair must be the exact argmin of independent replays
	// over the same grid (first minimum wins on ties).
	wantThr, wantCost, first := 0.0, 0.0, true
	for _, thr := range grid {
		res := referenceReplay(&policies.RFThreshold{Forest: forest, Threshold: thr}, byNode, sampler, cfg)
		if first || res.TotalCost() < wantCost {
			wantThr, wantCost, first = thr, res.TotalCost(), false
		}
	}
	if best != wantThr || bestCost != wantCost {
		t.Fatalf("OptimalThreshold = (%v, %v), want argmin (%v, %v)", best, bestCost, wantThr, wantCost)
	}

	// With an escalating-CE node failing after a clear signal, some grid
	// threshold must beat the most conservative one: the search must not
	// degenerate to "never fire" when the signal is learnable.
	never := ReplayAll([]policies.Decider{policies.Never{}}, byNode, sampler, cfg)[0]
	if bestCost > never.TotalCost() {
		t.Fatalf("optimal threshold cost %v worse than never-mitigate %v", bestCost, never.TotalCost())
	}
}

func TestOptimalThresholdEmptyGridUsesDefault(t *testing.T) {
	forest, byNode, sampler, cfg := thresholdWorld(t)
	best, _ := OptimalThreshold(forest, nil, byNode, sampler, cfg)
	found := false
	for _, thr := range DefaultThresholdGrid {
		if best == thr {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("threshold %v not in DefaultThresholdGrid", best)
	}
}

func TestPerturbThresholdTable(t *testing.T) {
	cases := []struct {
		optimal, offset, want float64
	}{
		{0.5, 0.02, 0.48},            // ordinary downward shift
		{0.5, 0.05, 0.45},            // paper's 5% variant
		{0.01, 0.05, 0.005},          // clamped at the floor
		{1.2, 0.0, 0.995},            // clamped at the ceiling
		{0.005, 0.0, 0.005},          // already at the floor
		{0.02, 0.02, 0.005},          // exact zero clamps up
		{0.9999, -0.0049, 0.995 + 0}, // negative offset still ceiling-clamped
	}
	for _, c := range cases {
		if got := PerturbThreshold(c.optimal, c.offset); got != c.want {
			t.Errorf("PerturbThreshold(%v, %v) = %v, want %v", c.optimal, c.offset, got, c.want)
		}
	}
}
