package experiments

import (
	"fmt"
	"io"

	"repro/internal/evalx"
	"repro/internal/parx"
)

// Fig3Result reproduces Figure 3: total cost (UE + mitigation) for every
// §4.2 approach at mitigation costs of 2, 5 and 10 node–minutes, summed
// over all cross-validation splits.
type Fig3Result struct {
	// MitigationCosts lists the evaluated costs in node–minutes.
	MitigationCosts []float64
	// Runs holds the cross-validation totals per mitigation cost.
	Runs []evalx.CVResult
}

// RunFig3 regenerates Figure 3. The cost points are independent fits, so
// they run side by side and land by cost index; the world's cache computes
// their shared tick pipeline and per-split forests once.
func RunFig3(w *World) Fig3Result {
	res := Fig3Result{MitigationCosts: []float64{2, 5, 10}}
	res.Runs = make([]evalx.CVResult, len(res.MitigationCosts))
	parx.For(len(res.MitigationCosts), 0, func(i int) {
		res.Runs[i] = evalx.RunCV(w.Log, w.Trace, w.CVConfig(res.MitigationCosts[i]))
	})
	return res
}

// Render writes the figure's data as a table: one row per approach, one
// column group per mitigation cost.
func (r Fig3Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 3: total cost (node-hours) = UE cost + mitigation cost, per mitigation cost")
	if len(r.Runs) == 0 {
		return
	}
	header := []string{"approach"}
	for _, mc := range r.MitigationCosts {
		header = append(header,
			fmt.Sprintf("total@%gnm", mc),
			fmt.Sprintf("ue@%gnm", mc),
			fmt.Sprintf("mitig@%gnm", mc))
	}
	var rows [][]string
	for i, total := range r.Runs[0].Totals {
		row := []string{total.Policy}
		for _, cv := range r.Runs {
			res := cv.Totals[i]
			row = append(row, nh(res.TotalCost()), nh(res.UECost), nh(res.MitigationCost+res.TrainingCost))
		}
		rows = append(rows, row)
	}
	writeTable(w, header, rows)
}
