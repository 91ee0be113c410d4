package policies

import (
	"fmt"

	"repro/internal/features"
)

// CEThreshold is an mcelog-style static trigger, included as an extension
// beyond the paper's §4.2 set: production mcelog triggers page offlining or
// operator actions when a component accumulates more than a fixed number of
// corrected errors in a 24-hour window. Re-cast as a mitigation trigger, it
// mitigates whenever the node's cumulative corrected-error count has grown
// by more than Threshold within the trailing day — the static heuristic the
// paper's adaptive method is designed to supersede.
//
// The trailing-day growth is approximated from the Table 1 features: the
// CE-count variation ratio over one hour (Eq. 2) and the current totals.
// Like mcelog, it is completely workload-blind.
//
//uerl:serial-only Decide mutates the shared per-node lastTriggerTotal map, so parallel replay must (and does) fall back to the serial path
type CEThreshold struct {
	// Threshold is the corrected-error count that triggers action
	// (mcelog's default page-offline trigger is in the tens).
	Threshold float64
	// state tracks the last trigger total per node so one storm produces
	// one action, as mcelog offlines a page once.
	lastTriggerTotal map[int]float64
}

// NewCEThreshold builds the trigger with the given CE-count threshold.
func NewCEThreshold(threshold float64) *CEThreshold {
	return &CEThreshold{Threshold: threshold, lastTriggerTotal: map[int]float64{}}
}

// Name implements Decider.
func (p *CEThreshold) Name() string {
	return fmt.Sprintf("mcelog-CE>%g", p.Threshold)
}

// Decide implements Decider.
func (p *CEThreshold) Decide(ctx *Context) bool {
	total := ctx.Features[features.CEsTotal]
	since := total - p.lastTriggerTotal[ctx.Node]
	if since > p.Threshold {
		p.lastTriggerTotal[ctx.Node] = total
		return true
	}
	return false
}
