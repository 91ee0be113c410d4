// Package evalx implements the paper's evaluation methodology (§4): policy
// replay over error-log ticks with full cost–benefit accounting in
// node–hours (§4.3), the classical machine-learning metrics with a one-day
// prediction window (§4.4), the SC20-RF optimal-threshold protocol, RF
// training-set construction, and the time-series nested cross-validation
// driver (§4.1).
//
//uerl:deterministic
package evalx

import (
	"fmt"
	"time"

	"repro/internal/env"
	"repro/internal/errlog"
	"repro/internal/mathx"
	"repro/internal/policies"
)

// PredictionWindow is the §4.4 window: a UE counts as mitigated if a
// mitigation completed within the preceding 24 hours.
const PredictionWindow = 24 * time.Hour

// MLMetrics are the §4.4 classification counts and derived metrics.
type MLMetrics struct {
	TPs, FNs, FPs, TNs int
	// Mitigations = TPs + FPs; NonMitigations = TNs + FNs.
	Mitigations, NonMitigations int
}

// Recall returns TPs/(TPs+FNs), or 0 when undefined.
func (m MLMetrics) Recall() float64 {
	d := m.TPs + m.FNs
	if d == 0 {
		return 0
	}
	return float64(m.TPs) / float64(d)
}

// Precision returns TPs/(TPs+FPs), or 0 when undefined (reported as "n/a"
// by the tooling, as for Never-mitigate in Table 2).
func (m MLMetrics) Precision() float64 {
	d := m.TPs + m.FPs
	if d == 0 {
		return 0
	}
	return float64(m.TPs) / float64(d)
}

// Result is one policy's evaluation outcome over an accounting window.
type Result struct {
	Policy string
	// UECost is the total realized UE cost in node–hours.
	UECost float64
	// MitigationCost is the total cost of mitigation actions in
	// node–hours (plus any training cost added by the caller, §4.3).
	MitigationCost float64
	// TrainingCost is the model training/validation cost charged (§4.3).
	TrainingCost float64
	// Decisions is the number of policy invocations accounted.
	Decisions int
	// UEs is the number of uncorrected errors accounted.
	UEs int
	// Metrics are the §4.4 classification metrics.
	Metrics MLMetrics
}

// TotalCost is the §4.3 figure of merit: UE cost plus mitigation cost plus
// training cost, in node–hours.
func (r Result) TotalCost() float64 { return r.UECost + r.MitigationCost + r.TrainingCost }

// Add accumulates another result (e.g. across cross-validation splits).
func (r *Result) Add(o Result) {
	r.UECost += o.UECost
	r.MitigationCost += o.MitigationCost
	r.TrainingCost += o.TrainingCost
	r.Decisions += o.Decisions
	r.UEs += o.UEs
	r.Metrics.TPs += o.Metrics.TPs
	r.Metrics.FNs += o.Metrics.FNs
	r.Metrics.FPs += o.Metrics.FPs
	r.Metrics.TNs += o.Metrics.TNs
	r.Metrics.Mitigations += o.Metrics.Mitigations
	r.Metrics.NonMitigations += o.Metrics.NonMitigations
}

// ReplayConfig parameterizes a replay.
type ReplayConfig struct {
	// Env carries the mitigation cost and restartability.
	Env env.Config
	// JobSeed seeds the per-node job sequences. The same seed gives every
	// policy an identical workload, making costs directly comparable.
	JobSeed int64
	// Window restricts accounting to [From, To); zero values disable the
	// bound. Decisions are still made outside the window (warm-up), they
	// are just not accounted.
	From, To time.Time
	// CostOverride, when non-nil, replaces the potential-UE-cost feature
	// (and the accounted UE cost) with a synthetic draw — used for the
	// Table 2 uniform cost-range rows. It is invoked once per decision.
	CostOverride func(rng *mathx.RNG) float64
	// Parallelism bounds the per-node replay worker pool: 0 selects
	// GOMAXPROCS, 1 forces serial replay. Results are bit-identical for
	// every value — each node replays against its own pre-forked RNG and
	// per-node results reduce in node order — so parallelism is purely a
	// wall-clock knob. Deciders that do not declare themselves
	// concurrency-safe (policies.ConcurrentDecider) replay serially
	// regardless.
	Parallelism int
}

// inWindow reports whether t falls inside the accounting window.
func (c ReplayConfig) inWindow(t time.Time) bool {
	if !c.From.IsZero() && t.Before(c.From) {
		return false
	}
	if !c.To.IsZero() && !t.Before(c.To) {
		return false
	}
	return true
}

// ueEventTime returns the first UE timestamp in the tick.
func ueEventTime(t errlog.Tick) time.Time {
	for _, ev := range t.Events {
		if ev.Type == errlog.UE {
			return ev.Time
		}
	}
	return t.Time
}

// OracleOverhead is the mitigation completion overhead assumed when
// building the Oracle set (2 node–minutes, §3.2.5): a mitigation closer to
// the UE than this cannot complete in time, so the Oracle skips it.
const OracleOverhead = 2 * time.Minute

// OraclePoints computes the §4.2 Oracle mitigation set: for each UE inside
// [from, to) (zero times disable the bound), the last decision tick on the
// same node that precedes it by at least the mitigation overhead and at
// most the prediction window. UEs with no such tick are unreachable — the
// Oracle skips them, which is why Table 2 reports 42 mitigations, zero
// false positives and the 63% recall ceiling.
func OraclePoints(ticksByNode [][]errlog.Tick, from, to time.Time) map[policies.OracleKey]bool {
	points := map[policies.OracleKey]bool{}
	for _, ticks := range ticksByNode {
		lastDecision := time.Time{}
		haveDecision := false
		for _, tick := range ticks {
			if tick.HasUE() {
				ut := ueEventTime(tick)
				inWin := (from.IsZero() || !ut.Before(from)) && (to.IsZero() || ut.Before(to))
				gap := ut.Sub(lastDecision)
				if haveDecision && inWin && gap >= OracleOverhead && gap <= PredictionWindow {
					points[policies.OracleKey{Node: tick.Node, Time: lastDecision}] = true
				}
				continue
			}
			lastDecision = tick.Time
			haveDecision = true
		}
	}
	return points
}

// String renders a result as a compact report row.
func (r Result) String() string {
	return fmt.Sprintf("%-16s total=%10.1f nh (UE %10.1f + mitig %8.1f + train %6.1f)  mitigations=%d recall=%.2f precision=%.5f",
		r.Policy, r.TotalCost(), r.UECost, r.MitigationCost, r.TrainingCost,
		r.Metrics.Mitigations, r.Metrics.Recall(), r.Metrics.Precision())
}
