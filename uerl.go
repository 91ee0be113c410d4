// Package uerl is a from-scratch Go implementation of "Reinforcement
// Learning-based Adaptive Mitigation of Uncorrected DRAM Errors in the
// Field" (Boixaderas et al., HPDC 2024): a dueling double deep Q-network
// with prioritized experience replay that decides, event by event, whether
// to trigger an uncorrected-error mitigation action (checkpoint, live
// migration, node clone) based on the node's error history and the running
// job's potential loss.
//
// The package offers two entry points.
//
// # The research harness
//
// NewSystem builds a synthetic MareNostrum-style world (error log + job
// trace) from functional options, and Evaluate reproduces the paper's
// cost–benefit comparison of Never/Always/SC20-RF/Myopic-RF/RL/Oracle
// under time-series nested cross-validation:
//
//	sys := uerl.NewSystem(uerl.WithSeed(42), uerl.WithBudgetCI())
//	sys.Evaluate().Render(os.Stdout)
//
// # The serving layer
//
// Every §4.2 approach implements the Policy interface. TrainPolicy fits
// one (the trained kinds share a cached fit), SaveModel/LoadModel persist
// it as a versioned artifact, and a Controller serves it against a live
// stream of node telemetry — the monitoring-and-decision daemon of the
// paper's Fig. 1:
//
//	policy, _ := sys.TrainPolicy(uerl.PolicyRL)
//	_ = uerl.SaveModelFile("model.json", policy)
//
//	ctl := uerl.NewController(policy)
//	ctl.ObserveBatch(ctx, events)               // concurrent ingestion
//	d := ctl.Recommend(node, now, potentialNH)  // side-effect-free query
//	// d.Action, d.Score, d.QValues, d.Features, d.ModelVersion
//
// The controller is sharded and safe for concurrent use: ingestion locks
// only the queried node's shard, and Recommend is a read-only path, so
// polling never perturbs feature state. EvaluatePolicy scores any Policy —
// including custom ones — under the paper's cost model.
//
// # Continual learning
//
// An OnlineLearner feeds the controller, retrains on drift and promotes a
// candidate that beats the incumbent on shadow traffic; a Guard adds
// budgets, promotion approval and post-promotion probation. Both verdicts
// are one evalx.Duel under the paper's two user parameters (mitigation
// cost, restartability), which the learner and its guard must share, and
// both record into one audit log (OnlineLearner.Events, Guard.Events).
//
// Everything underneath (neural networks, RL, the telemetry and job
// simulators, the random-forest baseline, the evaluation pipeline) is
// implemented in this repository's internal packages using only the Go
// standard library.
package uerl

import (
	"fmt"
	"io"
	"math"

	"repro/internal/errlog"
	"repro/internal/evalx"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// Budget selects the compute budget of training and evaluation protocols.
type Budget int

const (
	// BudgetCI runs in seconds (tiny population, fixed hyperparameters).
	BudgetCI Budget = iota
	// BudgetDefault runs in minutes (reduced population, small search).
	BudgetDefault
	// BudgetPaper reproduces the full §4.1 protocol (hours to days).
	BudgetPaper
)

func (b Budget) preset() evalx.Preset {
	switch b {
	case BudgetPaper:
		return evalx.PresetPaper
	case BudgetDefault:
		return evalx.PresetDefault
	default:
		return evalx.PresetCI
	}
}

// String returns the budget's CLI name ("ci", "default" or "paper").
func (b Budget) String() string {
	switch b {
	case BudgetPaper:
		return "paper"
	case BudgetDefault:
		return "default"
	default:
		return "ci"
	}
}

// ParseBudget converts a CLI string to a Budget.
func ParseBudget(s string) (Budget, error) {
	switch s {
	case "ci":
		return BudgetCI, nil
	case "default":
		return BudgetDefault, nil
	case "paper":
		return BudgetPaper, nil
	}
	return 0, fmt.Errorf("uerl: unknown budget %q (want ci, default or paper)", s)
}

// Config parameterizes a synthetic world and the evaluation protocol. The
// zero value is not usable; start from DefaultConfig.
type Config struct {
	// Seed makes the whole pipeline reproducible.
	Seed int64
	// Scale multiplies the MareNostrum 3 population (1 = 3056 nodes,
	// ~25k DIMMs). The Budget's default is used when 0.
	Scale float64
	// MitigationCostNodeMinutes is the per-action mitigation cost
	// (default 2, the paper's main configuration).
	MitigationCostNodeMinutes float64
	// Restartable selects whether mitigation establishes a restart point
	// (checkpoint-like); the paper's second and last user parameter.
	Restartable bool
	// Budget selects protocol scale.
	Budget Budget
}

// DefaultConfig returns the paper's configuration at the given budget.
func DefaultConfig(b Budget) Config {
	return Config{
		Seed:                      1,
		MitigationCostNodeMinutes: 2,
		Restartable:               true,
		Budget:                    b,
	}
}

// System is a thin view over a generated experiments.World plus the
// paper's two user parameters (mitigation cost, restartability). Every
// artifact it evaluates or serves — tick pipeline, forests, thresholds,
// RL agents — is read through the world's artifact cache, so Evaluate,
// TrainPolicy, EvaluatePolicy and RunExperiment share one fit per
// configuration. A System is safe for concurrent use.
type System struct {
	cfg   Config
	world *experiments.World
}

// NewSystem generates a synthetic world from functional options, applied
// on top of the paper's configuration at BudgetCI:
//
//	uerl.NewSystem(uerl.WithSeed(1), uerl.WithBudget(uerl.BudgetPaper))
func NewSystem(opts ...SystemOption) *System {
	cfg := DefaultConfig(BudgetCI)
	for _, opt := range opts {
		opt(&cfg)
	}
	scale := experiments.ScaleFor(cfg.Budget.preset())
	scale.Seed = cfg.Seed
	if cfg.Scale > 0 {
		scale.TelemetryScale = cfg.Scale
	}
	if cfg.MitigationCostNodeMinutes == 0 {
		cfg.MitigationCostNodeMinutes = 2
	}
	return &System{cfg: cfg, world: experiments.BuildWorld(scale)}
}

// trainedSplit returns the single-split fit (first 75% of the log, §4.1):
// the RF forest with its optimal threshold and the RL agent, trained once
// per configuration through the world's cache.
func (s *System) trainedSplit() evalx.SingleSplit {
	return evalx.TrainSingleSplit(s.world.Log, s.world.Trace, s.cvConfig(), trainFrac)
}

// trainFrac is the single-split train/test boundary (§4.1).
const trainFrac = 0.75

// LogStats summarizes the synthetic error log against the paper's §2.1
// aggregate counts.
func (s *System) LogStats() telemetry.Stats {
	return telemetry.Summarize(s.world.Log)
}

// PolicyCost is one approach's outcome in the cost–benefit analysis.
// The JSON tags are the stable machine-readable shape emitted by the
// CLIs' -json modes.
type PolicyCost struct {
	Policy         string  `json:"policy"`
	TotalNodeHours float64 `json:"total_node_hours"`
	UENodeHours    float64 `json:"ue_node_hours"`
	MitigationNH   float64 `json:"mitigation_node_hours"`
	Mitigations    int     `json:"mitigations"`
	Recall         float64 `json:"recall"`
	Precision      float64 `json:"precision"`
}

// Report is the §5.1 cost–benefit comparison.
type Report struct {
	Costs []PolicyCost
}

// Find returns the row for the named policy.
func (r Report) Find(name string) (PolicyCost, bool) {
	for _, c := range r.Costs {
		if c.Policy == name {
			return c, true
		}
	}
	return PolicyCost{}, false
}

// Render writes the report as an aligned table.
func (r Report) Render(w io.Writer) {
	fmt.Fprintln(w, "Cost-benefit analysis (node-hours, summed over cross-validation splits)")
	for _, c := range r.Costs {
		fmt.Fprintf(w, "  %-16s total=%9.1f  ue=%9.1f  mitigation=%8.1f  mitigations=%6d  recall=%3.0f%%\n",
			c.Policy, c.TotalNodeHours, c.UENodeHours, c.MitigationNH, c.Mitigations, 100*c.Recall)
	}
}

func reportFrom(cv evalx.CVResult) Report {
	var rep Report
	for _, t := range cv.Totals {
		rep.Costs = append(rep.Costs, costOf(t))
	}
	return rep
}

// costOf converts one replayed result to its report row.
func costOf(r evalx.Result) PolicyCost {
	return PolicyCost{
		Policy:         r.Policy,
		TotalNodeHours: r.TotalCost(),
		UENodeHours:    r.UECost,
		MitigationNH:   r.MitigationCost + r.TrainingCost,
		Mitigations:    r.Metrics.Mitigations,
		Recall:         r.Metrics.Recall(),
		Precision:      r.Metrics.Precision(),
	}
}

// cvConfig is the world's evaluation config under this system's two user
// parameters.
func (s *System) cvConfig() evalx.CVConfig {
	cfg := s.world.CVConfig(s.cfg.MitigationCostNodeMinutes)
	cfg.Env.Restartable = s.cfg.Restartable
	return cfg
}

// Evaluate runs the paper's full evaluation (§4.1 protocol, §4.2 policies)
// on this system and returns the cost–benefit report.
func (s *System) Evaluate() Report {
	return reportFrom(evalx.RunCV(s.world.Log, s.world.Trace, s.cvConfig()))
}

// EvaluateManufacturer evaluates only the nodes of one anonymized DRAM
// manufacturer ("A", "B" or "C"), the §4.5 per-manufacturer protocol.
func (s *System) EvaluateManufacturer(name string) (Report, error) {
	m, err := errlog.ParseManufacturer(name)
	if err != nil {
		return Report{}, fmt.Errorf("uerl: %w", err)
	}
	part := s.world.Partition(m)
	if len(part.Events) == 0 {
		return Report{}, fmt.Errorf("uerl: manufacturer %s has no events", name)
	}
	cfg := s.cvConfig()
	cfg.Cache = s.world.PartitionCache(m)
	return reportFrom(evalx.RunCV(part, s.world.Trace, cfg)), nil
}

// EvaluateJobScale re-evaluates with job sizes scaled by factor, training a
// fresh model for the scaled system (§5.6).
func (s *System) EvaluateJobScale(factor float64) (Report, error) {
	if !(factor > 0) || math.IsInf(factor, 1) {
		return Report{}, fmt.Errorf("uerl: job scale factor must be positive and finite, got %v", factor)
	}
	trace := jobs.Generate(s.world.JCfg.WithScale(factor))
	return reportFrom(evalx.RunCV(s.world.Log, trace, s.cvConfig())), nil
}

// ExperimentNames lists the runnable paper experiments.
func ExperimentNames() []string {
	return []string{"calibration", "fig3", "fig4", "fig5", "fig6", "table2", "fig7", "ablation"}
}

// RunExperiment regenerates one paper figure/table (see ExperimentNames)
// and renders it to w.
func (s *System) RunExperiment(name string, w io.Writer) error {
	switch name {
	case "calibration":
		experiments.RunCalibration(s.world).Render(w)
	case "fig3":
		experiments.RunFig3(s.world).Render(w)
	case "fig4":
		experiments.RunFig4(s.world).Render(w)
	case "fig5":
		experiments.RunFig5(s.world).Render(w)
	case "fig6":
		experiments.RunFig6(s.world).Render(w)
	case "table2":
		experiments.RunTable2(s.world).Render(w)
	case "fig7":
		experiments.RunFig7(s.world, nil).Render(w)
	case "ablation":
		experiments.RunAblation(s.world).Render(w)
	default:
		return fmt.Errorf("uerl: unknown experiment %q (want one of %v)", name, ExperimentNames())
	}
	return nil
}
