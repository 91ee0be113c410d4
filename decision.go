package uerl

import (
	"time"

	"repro/internal/features"
)

// FeatureDim is the length of the Table 1 feature vector exchanged across
// the serving API (raw, un-normalized, in the internal/features layout:
// CE counts and spatial spread, UE warnings, boot state, the Eq. 2
// variation ratios, and the Eq. 3 potential UE cost as the last element).
const FeatureDim = features.Dim

// Action is a mitigation decision.
type Action int

const (
	// ActionNone leaves the node alone.
	ActionNone Action = iota
	// ActionMitigate triggers the configured mitigation (checkpoint, live
	// migration or node clone — the agent is mitigation-method agnostic).
	ActionMitigate
)

// String returns "none" or "mitigate".
func (a Action) String() string {
	if a == ActionMitigate {
		return "mitigate"
	}
	return "none"
}

// Snapshot is the per-node state handed to a Policy at a decision point:
// the node, the decision time, and the raw Table 1 feature vector
// (potential UE cost included). Features is an inline array, so snapshots
// have pure value semantics: building one allocates nothing and a Policy
// may retain its copy freely.
type Snapshot struct {
	Node     int
	Time     time.Time
	Features [FeatureDim]float64
}

// vector converts the snapshot features back to the internal layout.
func (s Snapshot) vector() features.Vector {
	return features.Vector(s.Features)
}

// Decision is a full serving answer: the action plus everything an
// operator needs to audit it — the policy's confidence score, the raw
// Q-values when the policy is a Q-network, the feature snapshot the
// decision was made on, and the version of the model that made it.
//
// Decisions are plain values: the feature snapshot and Q-values are inline
// arrays, so the Recommend hot path returns a fully populated Decision
// without a single heap allocation, and callers can retain or compare
// decisions (==) freely.
type Decision struct {
	// Node and Time identify the decision point.
	Node int
	Time time.Time
	// Action is the recommended action.
	Action Action
	// Score is a policy-specific confidence signal; larger means a
	// stronger preference to mitigate, and zero crossing is the decision
	// boundary (Q-value gap for RL, probability margin over the threshold
	// for the forest policies, expected-cost margin for Myopic-RF).
	Score float64
	// QValues holds the Q-network outputs [Q(none), Q(mitigate)] when the
	// serving policy is the RL agent (HasQ true); zero otherwise.
	QValues [2]float64
	// HasQ reports whether QValues carries real Q-network outputs.
	HasQ bool
	// Features is the raw Table 1 feature snapshot the decision used.
	Features [FeatureDim]float64
	// Policy is the serving policy's report name.
	Policy string
	// ModelVersion identifies the model artifact (see Policy.Version).
	ModelVersion string
	// Vetoed reports that the serving policy recommended mitigation but
	// an attached Guard suppressed it against a tripped budget: Action is
	// ActionNone while Score/QValues still carry the policy's judgment,
	// so audits can see both what the model wanted and what the guard
	// allowed. VetoReason names the tripped budget.
	Vetoed bool
	// VetoReason names the budget that suppressed the mitigation (see
	// the guard package's Reason constants); empty when Vetoed is false.
	VetoReason string
	// Degraded reports that distributed serving could not reach the
	// worker owning this node (dead, hung, or backing off between
	// retries) and answered conservatively instead of blocking or
	// erroring: Action is ActionNone and the feature snapshot is empty.
	// The contract mirrors Vetoed — serving stays live, the caller can
	// see exactly why the answer is weaker than usual.
	Degraded bool
	// DegradeReason names the fault behind a degraded answer (see the
	// fleet package's Degrade* constants); empty when Degraded is false.
	DegradeReason string
	// StaleEvents bounds how stale the node state behind this decision
	// is under distributed serving: the number of this node's journaled
	// events not yet applied to the answering worker (replay pending)
	// plus any events that aged out of the bounded journal before a
	// failover could replay them (lost to rebuild). Zero in
	// single-process serving and whenever the owning worker is fully
	// caught up.
	StaleEvents int
}

// Mitigate reports whether the decision is to mitigate. The receiver is
// a copy of the whole Decision even when inlined, so the serving hot
// paths compare Action directly.
func (d Decision) Mitigate() bool { return d.Action == ActionMitigate }
