package experiments

import (
	"fmt"
	"io"

	"repro/internal/evalx"
	"repro/internal/jobs"
	"repro/internal/parx"
)

// Fig7Result reproduces Figure 7: the job-size sensitivity analysis. For
// each scaling factor a separate model is trained (the normal use case of
// training for the particular production system) and every approach's
// total cost (7a) and mitigation cost (7b) is reported at a 2 node–minute
// mitigation cost.
type Fig7Result struct {
	Factors []float64
	Runs    []evalx.CVResult
}

// DefaultFig7Factors are the paper's scaling factors.
var DefaultFig7Factors = []float64{0.1, 0.3, 1, 3, 10}

// RunFig7 regenerates Figure 7 over the given factors (nil selects the
// paper's sweep). The factor runs fan out over the shared world cache —
// the log (and therefore forests, which are trace-invariant) is the same
// for every factor, while samplers, thresholds and RL artifacts key on the
// per-factor trace — and merge by factor index, so the figure is
// deterministic for any worker count.
func RunFig7(w *World, factors []float64) Fig7Result {
	if factors == nil {
		factors = DefaultFig7Factors
	}
	res := Fig7Result{Factors: factors}
	traces := make([][]jobs.Job, len(factors))
	for i, f := range factors {
		traces[i] = jobs.Generate(w.JCfg.WithScale(f))
	}
	res.Runs = make([]evalx.CVResult, len(factors))
	parx.For(len(factors), 0, func(i int) {
		res.Runs[i] = evalx.RunCV(w.Log, traces[i], w.CVConfig(2))
	})
	return res
}

// Render writes 7a (total cost) and 7b (mitigation cost) tables.
func (r Fig7Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 7a: total cost (node-hours) vs job size scaling factor, 2 node-minute mitigation")
	r.renderOne(w, func(res evalx.Result) float64 { return res.TotalCost() })
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 7b: mitigation cost (node-hours) vs job size scaling factor")
	r.renderOne(w, func(res evalx.Result) float64 { return res.MitigationCost })
}

func (r Fig7Result) renderOne(w io.Writer, get func(evalx.Result) float64) {
	if len(r.Runs) == 0 || len(r.Runs[0].Totals) == 0 {
		return
	}
	header := []string{"approach"}
	for _, f := range r.Factors {
		header = append(header, fmt.Sprintf("x%g", f))
	}
	var rows [][]string
	for i, total := range r.Runs[0].Totals {
		row := []string{total.Policy}
		for _, cv := range r.Runs {
			row = append(row, nh(get(cv.Totals[i])))
		}
		rows = append(rows, row)
	}
	writeTable(w, header, rows)
}
