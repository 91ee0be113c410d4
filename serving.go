package uerl

import "time"

// Serving is the surface the online-learning lifecycle drives: ingest
// telemetry, answer mitigation queries, report and deploy the serving
// policy. A single-process *Controller implements it directly; the
// internal/fleet Coordinator implements it across N worker processes
// behind a transport boundary. The OnlineLearner is written against this
// interface, so the same drift → retrain → shadow → deploy loop runs
// unchanged over either deployment shape.
//
// Implementations must keep the Controller's contracts: Recommend is
// side-effect-free w.r.t. node state, never blocks indefinitely and never
// errors (distributed implementations degrade to a conservative
// ActionNone Decision flagged Degraded instead — see Decision.Degraded),
// and DeployPolicy never disturbs concurrent Recommend traffic.
//
// A layer may also implement Ticker, the optional fused decision step;
// the learner then serves each decision tick through it in one call.
type Serving interface {
	// ObserveEvent ingests one telemetry event. Events must arrive in
	// non-decreasing time order per node.
	ObserveEvent(e Event)
	// Recommend answers a mitigation query from the node's current
	// feature state (see Controller.Recommend).
	Recommend(node int, at time.Time, potentialCostNodeHours float64) Decision
	// Policy returns the currently served (committed) policy.
	Policy() Policy
	// DeployPolicy rolls out a new serving policy, returning the policy
	// it replaced. A non-nil error means the rollout was rejected (e.g.
	// a worker quorum refused the artifact) and the previous policy is
	// still serving.
	DeployPolicy(p Policy) (Policy, error)
}

// A Ticker is a Serving layer with a fused decision step. TickInto
// ingests e, answers a mitigation query for e.Node at e.Time in d, and
// accounts the served decision with the guard that enforced it —
// ObserveEvent, Recommend and the decision accountant's ObserveDecision
// in one call, with the same results. When the built-in RL policy served
// the decision, TickInto also leaves the policy's network input in norm,
// features.Vector(d.Features).NormalizedInto bit for bit, and reports
// normed; otherwise it reports false and norm holds nothing of use. Both
// shipped layers implement it: a *Controller serves the tick in one hold
// of the node's shard lock and charges its attached guard, and the fleet
// Coordinator needs one transport round trip per tick, which brings the
// worker's normalized input back with the decision. The OnlineLearner
// resolves it once, when it is built: a layer that implements it has
// each decision tick served through TickInto, and the learner trains on
// norm instead of normalizing again; any other layer is served through
// the three calls. Recommend stays the separate, side-effect-free read
// for pollers.
type Ticker interface {
	TickInto(d *Decision, e Event, potentialCostNodeHours float64, norm *[FeatureDim]float64) (normed bool)
}

// decisionAccountant is the served-decision accounting surface: budget
// charging runs off the stream of decisions the fleet actually acted on.
// *Guard implements it for single-process serving; the fleet Coordinator
// implements it by routing each call to the guard of the worker owning
// the node. The OnlineLearner feeds whichever one the deployment provides.
type decisionAccountant interface {
	ObserveDecision(d Decision)
}
