package evalx

import (
	"time"

	"repro/internal/errlog"
	"repro/internal/features"
)

// RFDataset is a random-forest training set: one sample per decision tick,
// labelled positive when a UE follows on the same node within the
// prediction window (the SC'20 formulation).
type RFDataset struct {
	X [][]float64
	Y []bool
}

// Positives counts positive labels.
func (d RFDataset) Positives() int {
	n := 0
	for _, y := range d.Y {
		if y {
			n++
		}
	}
	return n
}

// BuildRFDataset constructs the SC20-RF training set from per-node tick
// sequences: features are the Table 1 vector without the workload cost
// (features.Vector.Predictor), the label is "UE within the next
// PredictionWindow on this node". Only ticks inside [from, to) become
// samples; the tracker still warms up on earlier ticks.
func BuildRFDataset(ticksByNode [][]errlog.Tick, from, to time.Time) RFDataset {
	var ds RFDataset
	for _, ticks := range ticksByNode {
		// Collect UE times for labelling.
		var ueTimes []time.Time
		for _, tick := range ticks {
			if tick.HasUE() {
				ueTimes = append(ueTimes, ueEventTime(tick))
			}
		}
		tracker := features.NewTracker()
		ueIdx := 0
		for _, tick := range ticks {
			if tick.HasUE() {
				tracker.Observe(tick, 0, nil)
				continue
			}
			var v features.Vector
			tracker.Observe(tick, 0, &v)
			if !from.IsZero() && tick.Time.Before(from) {
				continue
			}
			if !to.IsZero() && !tick.Time.Before(to) {
				continue
			}
			for ueIdx < len(ueTimes) && ueTimes[ueIdx].Before(tick.Time) {
				ueIdx++
			}
			label := ueIdx < len(ueTimes) && ueTimes[ueIdx].Sub(tick.Time) <= PredictionWindow
			x := make([]float64, features.PredictorDim)
			copy(x, v.Predictor())
			ds.X = append(ds.X, x)
			ds.Y = append(ds.Y, label)
		}
	}
	return ds
}
