package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/env"
	"repro/internal/evalx"
	"repro/internal/features"
	"repro/internal/mathx"
	"repro/internal/policies"
)

// Fig6Result reproduces Figure 6: the fraction of decision points at which
// the trained RL agent triggers a mitigation, binned by potential UE cost
// (log-scale x axis, decades from 1 to 10^6 node–hours) and by the SC20-RF
// predicted probability (y axis, 0–100%). The RF score is not an agent
// input — as in the paper it serves as an external proxy for UE risk.
type Fig6Result struct {
	// CostDecades labels the x bins (lower bound of each decade).
	CostDecades []float64
	// ProbBins is the number of y bins over [0, 1].
	ProbBins int
	// Mitigate[y][x] counts mitigation decisions per bin; Total[y][x]
	// counts all decisions. Fraction = Mitigate/Total.
	Mitigate [][]int
	Total    [][]int
}

const (
	fig6Decades  = 7  // 10^0 .. 10^6
	fig6ProbBins = 10 // 0-10%, ..., 90-100%
)

// RunFig6 regenerates Figure 6 by training a single split and sweeping the
// agent over the held-out decision points. To populate the sparse
// high-cost bins, each decision point is additionally probed at synthetic
// cost levels spanning the full x axis (the paper likewise probes the
// agent's generalization to costs beyond the training maximum).
func RunFig6(w *World) Fig6Result {
	cfg := w.CVConfig(2)
	split := evalx.TrainSingleSplit(w.Log, w.Trace, cfg, 0.75)

	res := Fig6Result{ProbBins: fig6ProbBins}
	for d := 0; d < fig6Decades; d++ {
		res.CostDecades = append(res.CostDecades, math.Pow(10, float64(d)))
	}
	res.Mitigate = make([][]int, fig6ProbBins)
	res.Total = make([][]int, fig6ProbBins)
	for y := range res.Mitigate {
		res.Mitigate[y] = make([]int, fig6Decades)
		res.Total[y] = make([]int, fig6Decades)
	}

	rlDecider := &policies.RL{Policy: split.Policy}
	probe := func(v features.Vector, cost float64) {
		v[features.UECost] = cost
		prob := split.Forest.PredictProb(v.Predictor())
		x := mathLogBin(cost)
		y := int(prob * float64(fig6ProbBins))
		if y >= fig6ProbBins {
			y = fig6ProbBins - 1
		}
		if x < 0 || x >= fig6Decades {
			return
		}
		res.Total[y][x]++
		if rlDecider.Decide(&policies.Context{Features: v}) {
			res.Mitigate[y][x]++
		}
	}

	// Replay the held-out ticks through a feature tracker, probing each
	// decision point at its real cost and at synthetic decade costs.
	rng := mathx.NewRNG(w.Scale.Seed + 77)
	for _, ticks := range split.ByNode {
		tracker := features.NewTracker()
		tl := env.NewTimeline(split.Sampler, rng.Fork(), split.Env.Restartable, ticks[0].Time)
		for _, tick := range ticks {
			tl.AdvanceTo(tick.Time)
			if tick.HasUE() {
				tracker.Observe(tick, 0, nil)
				tl.OnUE(tick.Time)
				continue
			}
			cost := tl.CostAt(tick.Time)
			var v features.Vector
			tracker.Observe(tick, cost, &v)
			if tick.Time.Before(split.TrainTo) {
				continue
			}
			probe(v, math.Max(cost, 1))
			for _, c := range []float64{3, 30, 300, 3000, 30000, 300000} {
				probe(v, c)
			}
		}
	}
	return res
}

func mathLogBin(cost float64) int {
	if cost < 1 {
		return 0
	}
	b := int(math.Log10(cost))
	if b >= fig6Decades {
		b = fig6Decades - 1
	}
	return b
}

// Render draws the heat map as a text grid: rows are RF probability bins
// (top = high), columns are cost decades, cells are mitigation fractions.
func (r Fig6Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 6: fraction of events where the RL agent mitigates,")
	fmt.Fprintln(w, "by potential UE cost (columns, node-hours, log scale) and RF-predicted probability (rows)")
	header := []string{"RF prob \\ cost"}
	for _, c := range r.CostDecades {
		header = append(header, fmt.Sprintf(">=%.0e", c))
	}
	var rows [][]string
	for y := r.ProbBins - 1; y >= 0; y-- {
		row := []string{fmt.Sprintf("%3d-%3d%%", y*100/r.ProbBins, (y+1)*100/r.ProbBins)}
		for x := range r.CostDecades {
			if r.Total[y][x] == 0 {
				row = append(row, "   .  ")
			} else {
				row = append(row, fmt.Sprintf("%6.2f", float64(r.Mitigate[y][x])/float64(r.Total[y][x])))
			}
		}
		rows = append(rows, row)
	}
	writeTable(w, header, rows)
}
