package experiments

import (
	"fmt"
	"io"

	"repro/internal/evalx"
	"repro/internal/mathx"
	"repro/internal/policies"
)

// Table2Result reproduces Table 2: TPs, FNs, FPs, TNs, mitigation counts,
// recall and precision for every approach under the MN4 job distribution,
// plus the RL policy evaluated under three uniform UE-cost ranges (<100,
// 100–1000 and ≥1000 node–hours) showing its adaptivity.
type Table2Result struct {
	// Base holds the cross-validation totals for all approaches.
	Base evalx.CVResult
	// CostRanges labels the synthetic RL rows.
	CostRanges []string
	// RangeResults holds the RL metrics per cost range.
	RangeResults []evalx.Result
}

// RunTable2 regenerates Table 2.
func RunTable2(w *World) Table2Result {
	cfg := w.CVConfig(2)
	res := Table2Result{Base: evalx.RunCV(w.Log, w.Trace, cfg)}

	// The cost-range rows evaluate one trained agent under uniform UE-cost
	// draws replacing the workload model (§5.5).
	split := evalx.TrainSingleSplit(w.Log, w.Trace, cfg, 0.6)
	ranges := []struct {
		label  string
		lo, hi float64
	}{
		{"RL, UE cost < 100 nh", 1, 100},
		{"RL, 100 <= UE cost < 1000 nh", 100, 1000},
		{"RL, UE cost >= 1000 nh", 1000, 32000},
	}
	for _, rg := range ranges {
		lo, hi := rg.lo, rg.hi
		cfgR := evalx.ReplayConfig{
			Env: cfg.Env, JobSeed: cfg.Seed + 31, From: split.TrainTo,
			CostOverride: func(rng *mathx.RNG) float64 {
				return lo + rng.Float64()*(hi-lo)
			},
		}
		d := &policies.RL{Policy: split.Policy, Label: rg.label}
		res.CostRanges = append(res.CostRanges, rg.label)
		// Each range has its own CostOverride, so each is its own replay.
		res.RangeResults = append(res.RangeResults, evalx.ReplayAll([]policies.Decider{d}, split.ByNode, split.Sampler, cfgR)[0])
	}
	return res
}

// Render writes the table in the paper's layout.
func (r Table2Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 2: prediction results and classical machine learning metrics")
	header := []string{"approach", "TPs", "FNs", "FPs", "TNs", "mitigations", "recall", "precision"}
	var rows [][]string
	row := func(res evalx.Result) []string {
		m := res.Metrics
		prec := "n/a"
		if m.TPs+m.FPs > 0 {
			prec = fmt.Sprintf("%.4f%%", 100*m.Precision())
		}
		frac := 0.0
		if m.Mitigations+m.NonMitigations > 0 {
			frac = float64(m.Mitigations) / float64(m.Mitigations+m.NonMitigations)
		}
		return []string{
			res.Policy,
			fmt.Sprintf("%d", m.TPs), fmt.Sprintf("%d", m.FNs),
			fmt.Sprintf("%d", m.FPs), fmt.Sprintf("%d", m.TNs),
			fmt.Sprintf("%d (%.0f%%)", m.Mitigations, 100*frac),
			fmt.Sprintf("%.0f%%", 100*m.Recall()),
			prec,
		}
	}
	for _, res := range r.Base.Totals {
		rows = append(rows, row(res))
	}
	for _, res := range r.RangeResults {
		rows = append(rows, row(res))
	}
	writeTable(w, header, rows)
}
