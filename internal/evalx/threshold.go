package evalx

import (
	"repro/internal/errlog"
	"repro/internal/jobs"
	"repro/internal/policies"
	"repro/internal/rf"
)

// DefaultThresholdGrid is the candidate set scanned by the optimal-
// threshold protocol. The paper gives SC20-RF "maximum advantage by using
// the optimal threshold parameter" (§4.2); the grid spans the useful range
// of forest scores.
var DefaultThresholdGrid = []float64{
	0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
	0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95,
}

// OptimalThreshold scores every candidate threshold and returns the one
// minimizing total cost on the given (training) window. The cost of this
// search is the "hidden cost" §5.1 notes is not charged to SC20-RF.
//
// The whole grid is scored from one pass over the tick stream: the
// single-pass engine evaluates the forest once per decision point and the
// N threshold policies merely compare that shared score (see
// policies.Context.RFProb), collapsing the legacy O(grid × ticks) search to
// O(ticks). Per-threshold results are bit-identical to replaying each
// candidate separately, so the selected threshold is unchanged.
func OptimalThreshold(forest *rf.Forest, grid []float64, ticksByNode [][]errlog.Tick, sampler *jobs.Sampler, cfg ReplayConfig) (best float64, bestCost float64) {
	if len(grid) == 0 {
		grid = DefaultThresholdGrid
	}
	ds := make([]policies.Decider, len(grid))
	for i, thr := range grid {
		ds[i] = &policies.RFThreshold{Forest: forest, Threshold: thr}
	}
	results := ReplayAll(ds, ticksByNode, sampler, cfg)
	best = grid[0]
	first := true
	for i, res := range results {
		if first || res.TotalCost() < bestCost {
			best, bestCost, first = grid[i], res.TotalCost(), false
		}
	}
	return best, bestCost
}

// PerturbThreshold returns the §4.2 suboptimal variants: the optimal
// threshold shifted by the given absolute offset (2% and 5% in the paper),
// clamped to (0, 1). The shift is applied downward, increasing the number
// of mitigations, which is the direction that degrades SC20-RF through
// mitigation cost as in Fig. 3.
func PerturbThreshold(optimal, offset float64) float64 {
	t := optimal - offset
	if t < 0.005 {
		t = 0.005
	}
	if t > 0.995 {
		t = 0.995
	}
	return t
}
