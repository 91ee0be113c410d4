package experiments

import (
	"fmt"
	"io"

	"repro/internal/evalx"
)

// Fig4Result reproduces Figure 4: the per-split time series of total cost
// for each approach at a 2 node–minute mitigation cost.
type Fig4Result struct {
	CV evalx.CVResult
}

// RunFig4 regenerates Figure 4.
func RunFig4(w *World) Fig4Result {
	return Fig4Result{CV: evalx.RunCV(w.Log, w.Trace, w.CVConfig(2))}
}

// Render writes one row per approach with a column per test period.
func (r Fig4Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 4: total cost (node-hours) per cross-validation test period, 2 node-minute mitigation")
	if len(r.CV.Splits) == 0 {
		return
	}
	header := []string{"approach"}
	for _, s := range r.CV.Splits {
		header = append(header, fmt.Sprintf("%s..%s",
			s.From.Format("2006-01"), s.To.Format("2006-01")))
	}
	header = append(header, "sum")
	var rows [][]string
	for i, total := range r.CV.Totals {
		row := []string{total.Policy}
		for _, s := range r.CV.Splits {
			row = append(row, nh(s.Results[i].TotalCost()))
		}
		row = append(row, nh(total.TotalCost()))
		rows = append(rows, row)
	}
	writeTable(w, header, rows)
}
