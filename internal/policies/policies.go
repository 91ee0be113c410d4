// Package policies implements the eight mitigation approaches compared in
// §4.2 of the paper: Never-mitigate, Always-mitigate, SC20-RF with optimal
// and perturbed thresholds, Myopic-RF, the RL agent, and the Oracle.
// Every approach is expressed as a Decider invoked once per merged event
// tick with the node, time and Table 1 feature vector.
package policies

import (
	"fmt"
	"time"

	"repro/internal/features"
	"repro/internal/rf"
	"repro/internal/rl"
)

// Context is the information available to a policy at a decision point.
// Replay and serving both build one per decision point and pass it to
// Decider.Decide by pointer.
type Context struct {
	// Node is the node id of the tick.
	Node int
	// Time is the tick time.
	Time time.Time
	// Features is the Table 1 feature vector (including potential UE cost).
	Features features.Vector

	// forest and prob memoize RFProb for this decision point.
	forest *rf.Forest
	prob   float64
	// norm is RL's normalization scratch: a buffer the Context owns, so
	// the normalized input passed through the rl.Policy interface call
	// points into memory the caller already holds by pointer.
	norm [features.Dim]float64
}

// RFProb returns f's positive-class score at this decision point,
// computing it on first use and memoizing it, so N threshold variants of
// the same forest (and the Myopic policy) cost one ensemble evaluation per
// tick instead of N. The memo is valid for one decision point only: it
// reads the workload-independent predictor prefix of Features
// (features.Vector.Predictor), which must not change while the Context is
// reused, and a new decision point needs a new Context (a composite
// literal clears the memo).
func (c *Context) RFProb(f *rf.Forest) float64 {
	if c.forest != f {
		c.forest, c.prob = f, f.PredictProb(c.Features.Predictor())
	}
	return c.prob
}

// Decider decides, per event tick, whether to trigger a mitigation.
type Decider interface {
	// Name identifies the approach in reports.
	Name() string
	// Decide returns true to mitigate at this tick. It must not modify
	// ctx (RFProb's memo and RL's normalization scratch aside): the
	// replay engine hands one Context to every decider at a decision
	// point and writes only each decider's own potential UE cost
	// (Features[features.UECost]) into it between calls.
	Decide(ctx *Context) bool
}

// ConcurrentDecider is an optional Decider extension marking it safe for
// concurrent Decide calls. The parallel replay engine (evalx.ReplayAll) fans
// decisions out across per-node workers only for deciders that report
// true; everything else replays serially, which is always correct.
type ConcurrentDecider interface {
	Decider
	ConcurrentSafe() bool
}

// IsConcurrentSafe reports whether d declares itself safe for concurrent
// Decide calls.
func IsConcurrentSafe(d Decider) bool {
	cd, ok := d.(ConcurrentDecider)
	return ok && cd.ConcurrentSafe()
}

// Never never mitigates: maximum UE cost, zero mitigation cost.
type Never struct{}

// Name implements Decider.
func (Never) Name() string { return "Never-mitigate" }

// Decide implements Decider.
func (Never) Decide(*Context) bool { return false }

// ConcurrentSafe implements ConcurrentDecider.
func (Never) ConcurrentSafe() bool { return true }

// Always mitigates on every event in the error log: minimum UE cost among
// event-triggered policies, maximum mitigation cost.
type Always struct{}

// Name implements Decider.
func (Always) Name() string { return "Always-mitigate" }

// Decide implements Decider.
func (Always) Decide(*Context) bool { return true }

// ConcurrentSafe implements ConcurrentDecider.
func (Always) ConcurrentSafe() bool { return true }

// RFThreshold is the SC20-RF policy: mitigate when the random-forest score
// exceeds an externally supplied threshold.
type RFThreshold struct {
	Forest    *rf.Forest
	Threshold float64
	// Label distinguishes optimal from perturbed variants in reports.
	Label string
}

// Name implements Decider.
func (p *RFThreshold) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "SC20-RF"
}

// Decide implements Decider. The forest score is memoized on ctx, so a
// whole threshold grid costs one ensemble evaluation per tick.
func (p *RFThreshold) Decide(ctx *Context) bool {
	return ctx.RFProb(p.Forest) > p.Threshold
}

// Score reports the RF probability margin over the threshold: positive
// exactly when Decide mitigates, with magnitude the margin from the
// decision boundary. Serving layers surface it as decision confidence.
func (p *RFThreshold) Score(ctx *Context) float64 {
	return ctx.RFProb(p.Forest) - p.Threshold
}

// ConcurrentSafe implements ConcurrentDecider: forest prediction is a pure
// read of the trained trees.
func (p *RFThreshold) ConcurrentSafe() bool { return true }

// MyopicRF extends SC20-RF with cost-awareness (§4.2): mitigate when the
// expected UE cost — RF score times current potential UE cost — exceeds
// the mitigation cost. As the paper shows, the RF score is not a reliable
// probability, which is exactly why this seemingly reasonable policy
// underperforms.
type MyopicRF struct {
	Forest *rf.Forest
	// MitigationCostNodeHours is the per-action cost.
	MitigationCostNodeHours float64
}

// Name implements Decider.
func (*MyopicRF) Name() string { return "Myopic-RF" }

// Decide implements Decider. The RF score ignores the cost feature, so
// the memoized evaluation on ctx is shared with every other forest policy;
// only the comparison uses ctx's potential UE cost.
func (p *MyopicRF) Decide(ctx *Context) bool {
	return ctx.RFProb(p.Forest)*ctx.Features[features.UECost] > p.MitigationCostNodeHours
}

// Score reports expected UE cost minus mitigation cost, in node–hours:
// positive exactly when Decide mitigates.
func (p *MyopicRF) Score(ctx *Context) float64 {
	return ctx.RFProb(p.Forest)*ctx.Features[features.UECost] - p.MitigationCostNodeHours
}

// ConcurrentSafe implements ConcurrentDecider.
func (p *MyopicRF) ConcurrentSafe() bool { return true }

// RL wraps a trained (frozen) agent policy. Decide normalizes into
// scratch owned by its *Context, so the replay hot path allocates
// nothing: a stack buffer would escape through the rl.Policy interface
// call, and the Context is already held by pointer. Ties go to the first
// action (rl.SharedQPolicy.Action), the serving rlPolicy's rule too.
type RL struct {
	Policy rl.Policy
	// Label optionally overrides the report name.
	Label string
}

// Name implements Decider.
func (p *RL) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "RL"
}

// Decide implements Decider.
func (p *RL) Decide(ctx *Context) bool {
	return p.Policy.Action(ctx.Features.NormalizedInto(ctx.norm[:])) == 1
}

// ConcurrentSafe implements ConcurrentDecider: true when the wrapped
// policy declares itself concurrency-safe (e.g. rl.SharedQPolicy).
func (p *RL) ConcurrentSafe() bool {
	if cs, ok := p.Policy.(interface{ ConcurrentSafe() bool }); ok {
		return cs.ConcurrentSafe()
	}
	return false
}

// OracleKey identifies a decision point.
type OracleKey struct {
	Node int
	Time time.Time
}

// Oracle mitigates exactly on the last event before each UE (§4.2): the
// minimum number of mitigations that catches every catchable UE. It is
// built from the evaluation log with future knowledge and is not a
// realizable policy.
type Oracle struct {
	points map[OracleKey]bool
}

// NewOracle builds an Oracle from the set of (node, time) decision points
// that immediately precede a UE.
func NewOracle(points map[OracleKey]bool) *Oracle {
	return &Oracle{points: points}
}

// Name implements Decider.
func (*Oracle) Name() string { return "Oracle" }

// Decide implements Decider.
func (o *Oracle) Decide(ctx *Context) bool {
	return o.points[OracleKey{Node: ctx.Node, Time: ctx.Time}]
}

// Len reports the number of oracle mitigation points.
func (o *Oracle) Len() int { return len(o.points) }

// ConcurrentSafe implements ConcurrentDecider: the point set is read-only.
func (o *Oracle) ConcurrentSafe() bool { return true }

// FixedProb is a trivial decider mitigating when a fixed feature exceeds a
// bound; used in tests and examples as a stand-in policy.
type FixedProb struct {
	Feature int
	Bound   float64
}

// Name implements Decider.
func (p *FixedProb) Name() string { return fmt.Sprintf("Fixed[%d>%g]", p.Feature, p.Bound) }

// Decide implements Decider.
func (p *FixedProb) Decide(ctx *Context) bool { return ctx.Features[p.Feature] > p.Bound }

// ConcurrentSafe implements ConcurrentDecider.
func (p *FixedProb) ConcurrentSafe() bool { return true }
