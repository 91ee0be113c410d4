package experiments

import (
	"fmt"
	"io"

	"repro/internal/errlog"
	"repro/internal/evalx"
	"repro/internal/parx"
)

// Fig5Result reproduces Figure 5: total cost per DRAM manufacturer
// partition at a 2 node–minute mitigation cost. MN/All trains and evaluates
// one model on the whole system; MN/A, MN/B and MN/C train and evaluate
// separately per manufacturer; MN/ABC is the sum of the three.
type Fig5Result struct {
	Labels []string
	Runs   []evalx.CVResult // parallel to Labels; MN/ABC holds summed totals
}

// RunFig5 regenerates Figure 5. The per-manufacturer runs are independent
// — separate logs, separate artifact caches — so they fan out across
// workers and merge by manufacturer index, which keeps the figure
// deterministic for any worker count.
func RunFig5(w *World) Fig5Result {
	res := Fig5Result{}
	cfg := w.CVConfig(2)

	all := evalx.RunCV(w.Log, w.Trace, cfg)
	res.Labels = append(res.Labels, "MN/All")
	res.Runs = append(res.Runs, all)

	runs := make([]evalx.CVResult, errlog.NumManufacturers)
	parx.For(int(errlog.NumManufacturers), 0, func(i int) {
		m := errlog.Manufacturer(i)
		pcfg := cfg
		pcfg.Cache = w.PartitionCache(m)
		runs[i] = evalx.RunCV(w.Partition(m), w.Trace, pcfg)
	})

	var abc evalx.CVResult
	for m := errlog.Manufacturer(0); m < errlog.NumManufacturers; m++ {
		cv := runs[m]
		res.Labels = append(res.Labels, "MN/"+m.String())
		res.Runs = append(res.Runs, cv)
		if len(abc.Totals) == 0 {
			abc.Totals = make([]evalx.Result, len(cv.Totals))
			for i := range abc.Totals {
				abc.Totals[i].Policy = cv.Totals[i].Policy
			}
		}
		for i := range cv.Totals {
			if i < len(abc.Totals) {
				abc.Totals[i].Add(cv.Totals[i])
			}
		}
	}
	res.Labels = append(res.Labels, "MN/ABC")
	res.Runs = append(res.Runs, abc)
	return res
}

// Render writes one row per approach and one column per partition.
func (r Fig5Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: total cost (node-hours) per DRAM manufacturer partition, 2 node-minute mitigation")
	if len(r.Runs) == 0 || len(r.Runs[0].Totals) == 0 {
		return
	}
	header := append([]string{"approach"}, r.Labels...)
	var rows [][]string
	for i, total := range r.Runs[0].Totals {
		row := []string{total.Policy}
		for _, cv := range r.Runs {
			if i < len(cv.Totals) {
				row = append(row, nh(cv.Totals[i].TotalCost()))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	writeTable(w, header, rows)
}
