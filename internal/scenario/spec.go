// Package scenario is the declarative stress harness for the serving
// stack: a JSON Spec describes a fleet, a telemetry-generator overlay, a
// drift schedule, a fault-injection schedule, a workload cost regime and
// the lifecycle/guard configuration; Compile turns it into one
// deterministic telemetry event stream; Run drives the full live stack —
// Controller + OnlineLearner + Guard — through that stream and scores
// survival (lost node-hours, recall under attack, veto/rollback/swap
// churn, dropped experience), asserting the graceful-degradation
// contract throughout: serving never blocks or panics, tripped budgets
// degrade mitigations to ActionNone, and regressions roll back along the
// model lineage chain.
//
// Everything composes deterministically from Spec.Seed: the same spec
// produces byte-identical Summary encodings across runs, GOMAXPROCS
// settings and the race detector, which is what lets the named scenarios
// under scenarios/ carry golden summary artifacts as regression tests
// over the whole drift→retrain→guard→promote loop.
//
//uerl:deterministic
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/errlog"
)

// Fault kinds accepted by FaultSpec.Kind: the deterministic injection
// primitives a scenario composes its adversarial error process from.
const (
	// FaultBurst injects RowHammer-style uncorrected-error burst trains:
	// Trains repetitions of UEs uncorrected errors striking round-robin
	// across a node range, optionally preceded by a CE storm prefix that
	// shapes the predictor's features the way an attacker would.
	FaultBurst = "burst"
	// FaultRamp scales the corrected-error counts carried by CE records
	// in a window linearly from 1× at StartDay to RateMult× at EndDay —
	// the workload-dependent error-rate swing of Mukhanov et al.
	FaultRamp = "ramp"
	// FaultBlackout drops every telemetry event from a node range in a
	// window: the nodes go dark (rack power loss, collector outage).
	FaultBlackout = "blackout"
	// FaultDelay delivers a node range's events late by DelayMinutes
	// within a window (collector backlog); delivered timestamps shift.
	FaultDelay = "delay"
	// FaultDuplicate re-delivers a fraction of a node range's events in
	// a window one second late (at-least-once transport).
	FaultDuplicate = "duplicate"
)

// Worker-fault kinds accepted by WorkerFaultSpec.Kind: the serving-layer
// faults a scenario schedules against the distributed fleet (requires a
// Serving section).
const (
	// WorkerKill crashes the worker: its in-memory tracker state is gone
	// and a later rejoin comes back empty, forcing the coordinator to
	// rebuild the worker's nodes from the event journal.
	WorkerKill = "kill"
	// WorkerHang makes the worker unresponsive while retaining state:
	// deliveries fail fast with a deterministic timeout until it rejoins.
	WorkerHang = "hang"
	// WorkerRejoin brings a killed or hung worker back; the coordinator
	// discovers it on its next probe (Reconcile at stream end probes
	// unconditionally).
	WorkerRejoin = "rejoin"
)

// Spec is the declarative description of one scenario. The zero value is
// not runnable: Nodes and DurationDays are required, everything else
// defaults via Validate/ApplyDefaults. Specs are plain data — encode one
// with Encode, load one with Decode, and keep named specs under
// scenarios/ next to their golden summaries.
type Spec struct {
	// Name identifies the scenario in summaries and reports.
	Name string `json:"name"`
	// Description says what the scenario stresses.
	Description string `json:"description,omitempty"`
	// Seed drives every random choice in the scenario — telemetry
	// generation, fault injection and the learner — so a spec replays
	// bit-identically.
	Seed int64 `json:"seed"`
	// DurationDays is the scenario length.
	DurationDays float64 `json:"duration_days"`
	// Fleet shapes the simulated node population.
	Fleet FleetSpec `json:"fleet"`
	// Telemetry multiplies the baseline generator rates (aging, storm
	// frequency, UE pressure) relative to the calibrated defaults.
	Telemetry OverlaySpec `json:"telemetry,omitempty"`
	// Drift is the schedule of fault-behaviour shifts: at each phase's
	// AtDay the generator re-parameterizes (relative to the phase-0
	// configuration, not cumulatively).
	Drift []DriftPhase `json:"drift,omitempty"`
	// Faults is the fault-injection schedule applied on top of the
	// generated stream, in order.
	Faults []FaultSpec `json:"faults,omitempty"`
	// Workload sets the cost regime: the potential-UE cost schedule and
	// the per-mitigation checkpoint cost.
	Workload WorkloadSpec `json:"workload,omitempty"`
	// Lifecycle configures the learner and (optionally) the guard.
	Lifecycle LifecycleSpec `json:"lifecycle,omitempty"`
	// Serving, when set, runs the scenario on the distributed fleet
	// serving layer instead of a single in-process Controller, with its
	// own worker-fault schedule; the summary gains a Fleet section.
	Serving *ServingSpec `json:"serving,omitempty"`
}

// FleetSpec shapes the simulated population.
type FleetSpec struct {
	// Nodes is the fleet size (required).
	Nodes int `json:"nodes"`
	// DIMMsPerNode defaults to the MareNostrum 3 value (8).
	DIMMsPerNode int `json:"dimms_per_node,omitempty"`
	// ManufacturerShares overrides the per-manufacturer node shares
	// (defaults to the paper's mix).
	ManufacturerShares *[errlog.NumManufacturers]float64 `json:"manufacturer_shares,omitempty"`
	// FaultMultiplier overrides the per-manufacturer fault incidence
	// multipliers.
	FaultMultiplier *[errlog.NumManufacturers]float64 `json:"fault_multiplier,omitempty"`
}

// OverlaySpec multiplies baseline telemetry-generator rates. Zero fields
// mean "unchanged" (multiplier 1).
type OverlaySpec struct {
	// CERateMult scales the per-faulty-DIMM CE record rate.
	CERateMult float64 `json:"ce_rate_mult,omitempty"`
	// CEBurstMult scales the mean corrected-error count per CE record.
	CEBurstMult float64 `json:"ce_burst_mult,omitempty"`
	// FaultyFractionMult scales the fraction of DIMMs that develop
	// faults — the DIMM aging knob.
	FaultyFractionMult float64 `json:"faulty_fraction_mult,omitempty"`
	// StormMult scales the non-fatal CE-storm frequency.
	StormMult float64 `json:"storm_mult,omitempty"`
	// UEMult scales the signaled and sudden UE counts.
	UEMult float64 `json:"ue_mult,omitempty"`
}

// DriftPhase re-parameterizes the generator from AtDay on. Multipliers
// and overrides are relative to the scenario's phase-0 configuration
// (base + Telemetry overlay), so an aging curve lists increasing
// multipliers phase by phase.
type DriftPhase struct {
	// AtDay is the phase boundary; phases must be strictly increasing
	// and inside (0, DurationDays).
	AtDay float64 `json:"at_day"`
	// Overlay scales the phase-0 rates for this phase.
	Overlay OverlaySpec `json:"overlay,omitempty"`
	// ManufacturerShares shifts the node-population manufacturer mix for
	// this phase (a procurement wave replacing hardware).
	ManufacturerShares *[errlog.NumManufacturers]float64 `json:"manufacturer_shares,omitempty"`
	// FaultMultiplier shifts the per-manufacturer fault incidence.
	FaultMultiplier *[errlog.NumManufacturers]float64 `json:"fault_multiplier,omitempty"`
}

// FaultSpec is one entry of the injection schedule. Kind selects the
// primitive; the other fields parameterize it (see the Fault* constants
// for which apply).
type FaultSpec struct {
	Kind string `json:"kind"`
	// StartDay anchors the fault; for FaultBurst it is the first train's
	// strike time.
	StartDay float64 `json:"start_day"`
	// EndDay closes the window for the windowed kinds (ramp, blackout,
	// delay, duplicate); ignored by burst.
	EndDay float64 `json:"end_day,omitempty"`
	// FirstNode and Nodes select the node range [FirstNode,
	// FirstNode+Nodes); Nodes 0 means the whole fleet.
	FirstNode int `json:"first_node,omitempty"`
	Nodes     int `json:"nodes,omitempty"`

	// UEs per train (burst).
	UEs int `json:"ues,omitempty"`
	// SpacingSeconds between a train's UEs (burst; default 15).
	SpacingSeconds float64 `json:"spacing_seconds,omitempty"`
	// Trains repeats the burst (burst; default 1).
	Trains int `json:"trains,omitempty"`
	// TrainGapHours separates train starts (burst; default 6).
	TrainGapHours float64 `json:"train_gap_hours,omitempty"`
	// CEPrefix injects this many corrected-error records in the minutes
	// before each train, one second apart (burst attack shaping).
	CEPrefix int `json:"ce_prefix,omitempty"`

	// RateMult is the ramp's terminal count multiplier (ramp).
	RateMult float64 `json:"rate_mult,omitempty"`
	// DelayMinutes shifts delivery (delay).
	DelayMinutes float64 `json:"delay_minutes,omitempty"`
	// Fraction of events re-delivered (duplicate).
	Fraction float64 `json:"fraction,omitempty"`
}

// windowed reports whether the kind uses the [StartDay, EndDay) window.
func (f FaultSpec) windowed() bool {
	switch f.Kind {
	case FaultRamp, FaultBlackout, FaultDelay, FaultDuplicate:
		return true
	}
	return false
}

// WorkloadSpec is the cost regime: what a UE costs and what a mitigation
// (checkpoint) costs. A slow-parallel-FS regime raises the mitigation
// cost; the phase schedule models workload-dependent potential loss.
type WorkloadSpec struct {
	// CostNodeHours is the potential/realized UE cost (default 100).
	CostNodeHours float64 `json:"cost_node_hours,omitempty"`
	// MitigationCostNodeMinutes is the per-checkpoint cost (default 2;
	// a slow parallel filesystem pushes it up an order of magnitude).
	MitigationCostNodeMinutes float64 `json:"mitigation_cost_node_minutes,omitempty"`
	// Restartable selects whether a mitigation establishes a restart
	// point (default true).
	Restartable *bool `json:"restartable,omitempty"`
	// Phases overrides CostNodeHours piecewise from each AtDay on —
	// day/night or campaign-dependent job value swings.
	Phases []CostPhase `json:"phases,omitempty"`
}

// CostPhase sets the potential-UE cost from AtDay on.
type CostPhase struct {
	AtDay         float64 `json:"at_day"`
	CostNodeHours float64 `json:"cost_node_hours"`
}

// LifecycleSpec configures the OnlineLearner driving the scenario and,
// when Guard is set, the production guardrails around it.
type LifecycleSpec struct {
	// InitialPolicy is "always" or "never" (default "always").
	InitialPolicy string `json:"initial_policy,omitempty"`
	// DriftThreshold and DriftWindow parameterize drift detection
	// (defaults 8 and 256).
	DriftThreshold float64 `json:"drift_threshold,omitempty"`
	DriftWindow    int     `json:"drift_window,omitempty"`
	// RetrainMin is the minimum new transitions between retrains
	// (default 256); EpochSteps the gradient steps per epoch (default 64).
	RetrainMin int `json:"retrain_min,omitempty"`
	EpochSteps int `json:"epoch_steps,omitempty"`
	// ShadowDecisions and ShadowUEs gate promotion judgement (defaults
	// 128 and 1). ShadowUEs may be 0 — the configuration the guard
	// exists to protect, where a do-nothing candidate can win a quiet
	// window on spend alone.
	ShadowDecisions int  `json:"shadow_decisions,omitempty"`
	ShadowUEs       *int `json:"shadow_ues,omitempty"`
	// ExperienceCapacity bounds the experience stream (0 = learner
	// default); overflow drops oldest and is counted in the summary.
	ExperienceCapacity int `json:"experience_capacity,omitempty"`
	// Guard, when set, runs the scenario behind the guardrails.
	Guard *GuardSpec `json:"guard,omitempty"`
}

// GuardSpec configures the production guardrails.
type GuardSpec struct {
	// NodeBudgetNodeHours caps per-node checkpoint spend per sliding
	// NodeWindowHours (default window 24h); 0 disables.
	NodeBudgetNodeHours float64 `json:"node_budget_node_hours,omitempty"`
	NodeWindowHours     float64 `json:"node_window_hours,omitempty"`
	// FleetMitigations caps fleet-wide mitigations per sliding
	// FleetWindowHours (default window 1h); 0 disables.
	FleetMitigations int     `json:"fleet_mitigations,omitempty"`
	FleetWindowHours float64 `json:"fleet_window_hours,omitempty"`
	// PromotionsPerDay caps promotions per sliding 24h; 0 disables.
	PromotionsPerDay int `json:"promotions_per_day,omitempty"`
	// Approve is "auto" (default) or "deny" (promotion freeze).
	Approve string `json:"approve,omitempty"`
	// ProbationDecisions is the post-promotion probation window (0 means
	// the default 4096; a negative window disables rollback);
	// ProbationToleranceNH the regression tolerance (default 5).
	ProbationDecisions   int      `json:"probation_decisions,omitempty"`
	ProbationToleranceNH *float64 `json:"probation_tolerance_nh,omitempty"`
}

// ServingSpec runs the scenario on the distributed serving layer: a
// fleet coordinator shards the node population across Workers in-process
// workers over the deterministic channel transport, and the lifecycle
// learner drives the coordinator exactly as it would a single
// Controller. The Faults schedule kills, hangs and rejoins workers
// mid-stream, exercising failover replay and graceful degradation.
//
// With a Serving section the scenario's GuardSpec lowers to per-worker
// budget enforcement (each worker wraps its Controller in a Guard);
// the promotion/approval/probation knobs are lifecycle-level features a
// worker guard cannot arbitrate and are rejected by Validate.
type ServingSpec struct {
	// Workers is the fleet width (required, positive).
	Workers int `json:"workers"`
	// JournalCapacity bounds the per-node failover-replay journal
	// (default 512 events per node); events trimmed before a rebuild
	// needed them surface as Decision.StaleEvents.
	JournalCapacity int `json:"journal_capacity,omitempty"`
	// DedupWindowSeconds drops journal re-appends of a payload-identical
	// event within the window — the at-least-once-transport defense
	// (0 disables).
	DedupWindowSeconds float64 `json:"dedup_window_seconds,omitempty"`
	// FailureThreshold is the consecutive-failure count declaring a
	// worker dead (default 3).
	FailureThreshold int `json:"failure_threshold,omitempty"`
	// RetryBackoffSeconds is the base telemetry-time retry backoff for
	// suspect/down workers (default 30s), doubling with ±50%
	// deterministic jitter.
	RetryBackoffSeconds float64 `json:"retry_backoff_seconds,omitempty"`
	// Faults is the worker-fault schedule in non-decreasing at_day
	// order; each fault applies just before the first event at or after
	// its time.
	Faults []WorkerFaultSpec `json:"faults,omitempty"`
}

// WorkerFaultSpec schedules one serving-layer fault.
type WorkerFaultSpec struct {
	// Worker indexes the target in [0, Workers).
	Worker int `json:"worker"`
	// Kind is "kill", "hang" or "rejoin" (see the Worker* constants).
	Kind string `json:"kind"`
	// AtDay is when the fault strikes, inside (0, DurationDays).
	AtDay float64 `json:"at_day"`
}

// Decode parses a Spec from JSON. Unknown fields are rejected — a typo'd
// knob must not silently run the default scenario.
func Decode(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	// Trailing garbage after the JSON document is a malformed spec too.
	if dec.More() {
		return Spec{}, fmt.Errorf("scenario: trailing data after spec document")
	}
	return s, nil
}

// Encode renders the spec canonically: two-space indented JSON with a
// trailing newline, fields in declaration order, defaults left implicit.
// Encode∘Decode is a fixed point for any valid spec.
func Encode(s Spec) ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding spec: %w", err)
	}
	return append(data, '\n'), nil
}

// Validate reports the first specification error. A valid spec is
// runnable as-is: every schedule is inside the scenario window, no
// numeric field is NaN/Inf or negative where a magnitude is required,
// and same-kind fault windows never overlap on overlapping node ranges
// (an overlap would make the injection order significant, breaking the
// declarative reading of the schedule).
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if err := finite("duration_days", s.DurationDays); err != nil {
		return err
	}
	if s.DurationDays <= 0 {
		return fmt.Errorf("scenario: duration_days must be positive, got %v", s.DurationDays)
	}
	if s.Fleet.Nodes <= 0 {
		return fmt.Errorf("scenario: fleet.nodes must be positive, got %d", s.Fleet.Nodes)
	}
	if s.Fleet.DIMMsPerNode < 0 {
		return fmt.Errorf("scenario: fleet.dimms_per_node must be non-negative, got %d", s.Fleet.DIMMsPerNode)
	}
	if err := validShares("fleet.manufacturer_shares", s.Fleet.ManufacturerShares); err != nil {
		return err
	}
	if err := validShares("fleet.fault_multiplier", s.Fleet.FaultMultiplier); err != nil {
		return err
	}
	if err := s.Telemetry.validate("telemetry"); err != nil {
		return err
	}
	prev := 0.0
	for i, d := range s.Drift {
		if err := finite(fmt.Sprintf("drift[%d].at_day", i), d.AtDay); err != nil {
			return err
		}
		if d.AtDay <= prev || d.AtDay >= s.DurationDays {
			return fmt.Errorf("scenario: drift[%d].at_day %v overlaps the previous phase or leaves the scenario window (phases must be strictly increasing inside (0, %v))",
				i, d.AtDay, s.DurationDays)
		}
		prev = d.AtDay
		if err := d.Overlay.validate(fmt.Sprintf("drift[%d].overlay", i)); err != nil {
			return err
		}
		if err := validShares(fmt.Sprintf("drift[%d].manufacturer_shares", i), d.ManufacturerShares); err != nil {
			return err
		}
		if err := validShares(fmt.Sprintf("drift[%d].fault_multiplier", i), d.FaultMultiplier); err != nil {
			return err
		}
	}
	for i, f := range s.Faults {
		if err := s.validateFault(i, f); err != nil {
			return err
		}
	}
	// Same-kind windowed faults must not overlap in time on overlapping
	// node ranges: the schedule reads as a set, not a pipeline.
	for i, a := range s.Faults {
		if !a.windowed() {
			continue
		}
		for j := i + 1; j < len(s.Faults); j++ {
			b := s.Faults[j]
			if b.Kind != a.Kind || !b.windowed() {
				continue
			}
			if a.StartDay < b.EndDay && b.StartDay < a.EndDay && nodeRangesOverlap(a, b, s.Fleet.Nodes) {
				return fmt.Errorf("scenario: faults[%d] and faults[%d] are overlapping %q schedules on overlapping node ranges", i, j, a.Kind)
			}
		}
	}
	if err := s.Workload.validate(s.DurationDays); err != nil {
		return err
	}
	if err := s.Lifecycle.validate(); err != nil {
		return err
	}
	return s.Serving.validate(s.DurationDays, s.Lifecycle)
}

// validateFault checks one injection entry.
func (s Spec) validateFault(i int, f FaultSpec) error {
	name := func(field string) string { return fmt.Sprintf("faults[%d].%s", i, field) }
	if err := finite(name("start_day"), f.StartDay); err != nil {
		return err
	}
	if f.StartDay < 0 || f.StartDay >= s.DurationDays {
		return fmt.Errorf("scenario: %s %v outside [0, %v)", name("start_day"), f.StartDay, s.DurationDays)
	}
	if f.FirstNode < 0 || f.Nodes < 0 || f.FirstNode >= s.Fleet.Nodes {
		return fmt.Errorf("scenario: %s node range [%d,+%d) invalid for a %d-node fleet", name("nodes"), f.FirstNode, f.Nodes, s.Fleet.Nodes)
	}
	if f.windowed() {
		if err := finite(name("end_day"), f.EndDay); err != nil {
			return err
		}
		if f.EndDay <= f.StartDay {
			return fmt.Errorf("scenario: %s window has non-positive duration (%v..%v)", name("end_day"), f.StartDay, f.EndDay)
		}
		if f.EndDay > s.DurationDays {
			return fmt.Errorf("scenario: %s %v beyond the %v-day scenario", name("end_day"), f.EndDay, s.DurationDays)
		}
	}
	switch f.Kind {
	case FaultBurst:
		if f.UEs <= 0 {
			return fmt.Errorf("scenario: %s must be positive for a burst", name("ues"))
		}
		if f.Trains < 0 || f.CEPrefix < 0 {
			return fmt.Errorf("scenario: %s trains/ce_prefix must be non-negative", name("trains"))
		}
		if err := finite(name("spacing_seconds"), f.SpacingSeconds); err != nil {
			return err
		}
		if err := finite(name("train_gap_hours"), f.TrainGapHours); err != nil {
			return err
		}
		if f.SpacingSeconds < 0 || f.TrainGapHours < 0 {
			return fmt.Errorf("scenario: %s spacing/train gap must be non-negative durations", name("spacing_seconds"))
		}
	case FaultRamp:
		if err := finite(name("rate_mult"), f.RateMult); err != nil {
			return err
		}
		if f.RateMult <= 0 {
			return fmt.Errorf("scenario: %s must be positive, got %v", name("rate_mult"), f.RateMult)
		}
	case FaultBlackout:
		// Window checks above suffice.
	case FaultDelay:
		if err := finite(name("delay_minutes"), f.DelayMinutes); err != nil {
			return err
		}
		if f.DelayMinutes <= 0 {
			return fmt.Errorf("scenario: %s must be a positive duration, got %v", name("delay_minutes"), f.DelayMinutes)
		}
	case FaultDuplicate:
		if err := finite(name("fraction"), f.Fraction); err != nil {
			return err
		}
		if f.Fraction <= 0 || f.Fraction > 1 {
			return fmt.Errorf("scenario: %s must be in (0, 1], got %v", name("fraction"), f.Fraction)
		}
	default:
		return fmt.Errorf("scenario: faults[%d] has unknown kind %q", i, f.Kind)
	}
	return nil
}

// validate checks an overlay's multipliers.
func (o OverlaySpec) validate(name string) error {
	for _, m := range []struct {
		field string
		v     float64
	}{
		{"ce_rate_mult", o.CERateMult},
		{"ce_burst_mult", o.CEBurstMult},
		{"faulty_fraction_mult", o.FaultyFractionMult},
		{"storm_mult", o.StormMult},
		{"ue_mult", o.UEMult},
	} {
		if err := finite(name+"."+m.field, m.v); err != nil {
			return err
		}
		if m.v < 0 {
			return fmt.Errorf("scenario: %s.%s must be non-negative, got %v", name, m.field, m.v)
		}
	}
	return nil
}

func (w WorkloadSpec) validate(durationDays float64) error {
	if err := finite("workload.cost_node_hours", w.CostNodeHours); err != nil {
		return err
	}
	if err := finite("workload.mitigation_cost_node_minutes", w.MitigationCostNodeMinutes); err != nil {
		return err
	}
	if w.CostNodeHours < 0 || w.MitigationCostNodeMinutes < 0 {
		return fmt.Errorf("scenario: workload costs must be non-negative")
	}
	prev := -1.0
	for i, p := range w.Phases {
		if err := finite(fmt.Sprintf("workload.phases[%d].at_day", i), p.AtDay); err != nil {
			return err
		}
		if err := finite(fmt.Sprintf("workload.phases[%d].cost_node_hours", i), p.CostNodeHours); err != nil {
			return err
		}
		if p.AtDay <= prev || p.AtDay >= durationDays {
			return fmt.Errorf("scenario: workload.phases[%d].at_day %v overlaps the previous phase or leaves the scenario window", i, p.AtDay)
		}
		if p.CostNodeHours < 0 {
			return fmt.Errorf("scenario: workload.phases[%d].cost_node_hours must be non-negative", i)
		}
		prev = p.AtDay
	}
	return nil
}

func (l LifecycleSpec) validate() error {
	switch l.InitialPolicy {
	case "", "always", "never":
	default:
		return fmt.Errorf("scenario: lifecycle.initial_policy %q unknown (want always or never)", l.InitialPolicy)
	}
	if err := finite("lifecycle.drift_threshold", l.DriftThreshold); err != nil {
		return err
	}
	if l.DriftThreshold < 0 || l.DriftWindow < 0 || l.RetrainMin < 0 || l.EpochSteps < 0 ||
		l.ShadowDecisions < 0 || l.ExperienceCapacity < 0 {
		return fmt.Errorf("scenario: lifecycle knobs must be non-negative")
	}
	if l.ShadowUEs != nil && *l.ShadowUEs < 0 {
		return fmt.Errorf("scenario: lifecycle.shadow_ues must be non-negative")
	}
	g := l.Guard
	if g == nil {
		return nil
	}
	for _, m := range []struct {
		field string
		v     float64
	}{
		{"node_budget_node_hours", g.NodeBudgetNodeHours},
		{"node_window_hours", g.NodeWindowHours},
		{"fleet_window_hours", g.FleetWindowHours},
	} {
		if err := finite("lifecycle.guard."+m.field, m.v); err != nil {
			return err
		}
		if m.v < 0 {
			return fmt.Errorf("scenario: lifecycle.guard.%s must be a non-negative duration/amount, got %v", m.field, m.v)
		}
	}
	if g.ProbationToleranceNH != nil {
		if err := finite("lifecycle.guard.probation_tolerance_nh", *g.ProbationToleranceNH); err != nil {
			return err
		}
		if *g.ProbationToleranceNH < 0 {
			return fmt.Errorf("scenario: lifecycle.guard.probation_tolerance_nh must be non-negative")
		}
	}
	if g.FleetMitigations < 0 || g.PromotionsPerDay < 0 {
		return fmt.Errorf("scenario: lifecycle.guard counts must be non-negative")
	}
	switch g.Approve {
	case "", "auto", "deny":
	default:
		return fmt.Errorf("scenario: lifecycle.guard.approve %q unknown (want auto or deny)", g.Approve)
	}
	return nil
}

// validate checks the serving section: fleet shape, knob sanity, guard
// compatibility, and a worker-fault schedule that reads as a legal state
// machine (kill/hang strike an up worker, rejoin revives a downed one).
func (sv *ServingSpec) validate(durationDays float64, l LifecycleSpec) error {
	if sv == nil {
		return nil
	}
	if sv.Workers <= 0 {
		return fmt.Errorf("scenario: serving.workers must be positive, got %d", sv.Workers)
	}
	if sv.JournalCapacity < 0 || sv.FailureThreshold < 0 {
		return fmt.Errorf("scenario: serving counts must be non-negative")
	}
	for _, m := range []struct {
		field string
		v     float64
	}{
		{"dedup_window_seconds", sv.DedupWindowSeconds},
		{"retry_backoff_seconds", sv.RetryBackoffSeconds},
	} {
		if err := finite("serving."+m.field, m.v); err != nil {
			return err
		}
		if m.v < 0 {
			return fmt.Errorf("scenario: serving.%s must be a non-negative duration, got %v", m.field, m.v)
		}
	}
	if g := l.Guard; g != nil {
		if g.PromotionsPerDay != 0 || g.Approve != "" || g.ProbationDecisions != 0 || g.ProbationToleranceNH != nil {
			return fmt.Errorf("scenario: serving lowers lifecycle.guard to per-worker budget enforcement; promotion/approval/probation knobs are not available with serving.workers set")
		}
	}
	up := make([]bool, sv.Workers)
	for i := range up {
		up[i] = true
	}
	prev := 0.0
	for i, f := range sv.Faults {
		name := func(field string) string { return fmt.Sprintf("serving.faults[%d].%s", i, field) }
		if err := finite(name("at_day"), f.AtDay); err != nil {
			return err
		}
		if f.AtDay <= 0 || f.AtDay >= durationDays {
			return fmt.Errorf("scenario: %s %v outside (0, %v)", name("at_day"), f.AtDay, durationDays)
		}
		if f.AtDay < prev {
			return fmt.Errorf("scenario: %s %v breaks the non-decreasing schedule order", name("at_day"), f.AtDay)
		}
		prev = f.AtDay
		if f.Worker < 0 || f.Worker >= sv.Workers {
			return fmt.Errorf("scenario: %s %d outside the %d-worker fleet", name("worker"), f.Worker, sv.Workers)
		}
		switch f.Kind {
		case WorkerKill, WorkerHang:
			if !up[f.Worker] {
				return fmt.Errorf("scenario: serving.faults[%d] %ss worker %d, which is already down", i, f.Kind, f.Worker)
			}
			up[f.Worker] = false
		case WorkerRejoin:
			if up[f.Worker] {
				return fmt.Errorf("scenario: serving.faults[%d] rejoins worker %d, which is not down", i, f.Worker)
			}
			up[f.Worker] = true
		default:
			return fmt.Errorf("scenario: serving.faults[%d] has unknown kind %q", i, f.Kind)
		}
	}
	return nil
}

// finite rejects NaN and ±Inf: a spec carrying one is malformed, never
// "approximately valid".
func finite(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("scenario: %s must be finite, got %v", field, v)
	}
	return nil
}

// validShares checks a per-manufacturer array: finite, non-negative, and
// not all zero.
func validShares(field string, a *[errlog.NumManufacturers]float64) error {
	if a == nil {
		return nil
	}
	total := 0.0
	for i, v := range a {
		if err := finite(fmt.Sprintf("%s[%d]", field, i), v); err != nil {
			return err
		}
		if v < 0 {
			return fmt.Errorf("scenario: %s[%d] must be non-negative, got %v", field, i, v)
		}
		total += v
	}
	if total <= 0 {
		return fmt.Errorf("scenario: %s sums to zero", field)
	}
	return nil
}

// nodeRangesOverlap reports whether two faults' node ranges intersect
// (Nodes 0 meaning the whole fleet).
func nodeRangesOverlap(a, b FaultSpec, fleet int) bool {
	aLo, aHi := nodeRange(a, fleet)
	bLo, bHi := nodeRange(b, fleet)
	return aLo < bHi && bLo < aHi
}

func nodeRange(f FaultSpec, fleet int) (lo, hi int) {
	if f.Nodes <= 0 {
		return 0, fleet
	}
	hi = f.FirstNode + f.Nodes
	if hi > fleet {
		hi = fleet
	}
	return f.FirstNode, hi
}

// day converts a day offset to a duration.
func day(d float64) time.Duration {
	return time.Duration(d * 24 * float64(time.Hour))
}
