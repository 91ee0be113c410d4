package uerl

import (
	"time"

	"repro/internal/guard"
)

// SystemOption configures NewSystem. Options apply on top of the paper's
// default configuration at BudgetCI (see DefaultConfig).
type SystemOption func(*Config)

// WithSeed sets the world/training seed.
func WithSeed(seed int64) SystemOption {
	return func(c *Config) { c.Seed = seed }
}

// WithBudget selects the compute budget of training and evaluation.
func WithBudget(b Budget) SystemOption {
	return func(c *Config) { c.Budget = b }
}

// WithBudgetCI selects the seconds-scale CI budget.
func WithBudgetCI() SystemOption { return WithBudget(BudgetCI) }

// WithScale multiplies the MareNostrum 3 population (1 = 3056 nodes).
func WithScale(scale float64) SystemOption {
	return func(c *Config) { c.Scale = scale }
}

// WithMitigationCost sets the per-action mitigation cost in node-minutes
// (the paper's main configuration uses 2).
func WithMitigationCost(nodeMinutes float64) SystemOption {
	return func(c *Config) { c.MitigationCostNodeMinutes = nodeMinutes }
}

// WithRestartable selects whether mitigation establishes a restart point.
func WithRestartable(restartable bool) SystemOption {
	return func(c *Config) { c.Restartable = restartable }
}

// learnerConfig collects NewServingLearner options.
type learnerConfig struct {
	seed                      int64
	cost                      CostFunc
	mitigationCostNodeMinutes float64
	restartable               bool
	rewardScale               float64

	driftThreshold float64
	driftWindow    int

	minExperience  int
	epochSteps     int
	streamCapacity int

	shadowMinDecisions int
	shadowMinUEs       int

	guard *Guard
	// candidateHook, when set, intercepts every candidate retrain stages
	// (fault-injection seam for guard tests: substitute a deliberately
	// regressive candidate without depending on training outcomes).
	candidateHook func(Policy) Policy

	decisionObserver func(Decision)
	ueObserver       func(node int, at time.Time, realizedNodeHours float64)
}

// LearnerOption configures NewServingLearner.
type LearnerOption func(*learnerConfig)

// WithLearnerSeed seeds the continual trainer (weight init and replay
// sampling); the whole lifecycle is bit-reproducible for a fixed seed and
// event stream.
func WithLearnerSeed(seed int64) LearnerOption {
	return func(c *learnerConfig) { c.seed = seed }
}

// WithCostSource sets the potential-UE-cost source (default: a constant
// 100 node–hours).
func WithCostSource(f CostFunc) LearnerOption {
	return func(c *learnerConfig) {
		if f != nil {
			c.cost = f
		}
	}
}

// WithLearnerMitigationCost sets the per-action mitigation cost in
// node-minutes (default 2, the paper's main configuration).
func WithLearnerMitigationCost(nodeMinutes float64) LearnerOption {
	return func(c *learnerConfig) { c.mitigationCostNodeMinutes = nodeMinutes }
}

// WithLearnerRestartable selects whether mitigation establishes a restart
// point (default true), which decides whether caught UEs are charged in
// shadow accounting.
func WithLearnerRestartable(restartable bool) LearnerOption {
	return func(c *learnerConfig) { c.restartable = restartable }
}

// WithDriftDetection sets the drift threshold (standardized mean-shift
// score, default 6) and the tumbling-window sample count (default 512).
func WithDriftDetection(threshold float64, windowSamples int) LearnerOption {
	return func(c *learnerConfig) {
		c.driftThreshold = threshold
		c.driftWindow = windowSamples
	}
}

// WithRetraining sets the minimum ingested transitions between retrains
// (default 512) and the gradient steps per retraining epoch (default 64).
func WithRetraining(minExperience, epochSteps int) LearnerOption {
	return func(c *learnerConfig) {
		c.minExperience = minExperience
		c.epochSteps = epochSteps
	}
}

// WithExperienceCapacity bounds the experience stream (default 16384);
// overflow drops the oldest transitions and is counted in LearnerStats.
func WithExperienceCapacity(n int) LearnerOption {
	return func(c *learnerConfig) { c.streamCapacity = n }
}

// WithShadowGate sets how much shadow traffic a candidate must score
// before promotion is judged: a minimum decision count (default 256) and
// a minimum realized-UE count (default 1). The UE minimum matters: on a
// UE-free window the cost comparison degenerates to mitigation spend
// alone, which systematically favors candidates that mitigate less —
// requiring a realized outcome keeps a do-nothing candidate from winning
// without evidence about the failures it exists to prevent. Setting
// minUEs to 0 trades that safety for faster adaptation (a candidate can
// otherwise sit in shadow until the next UE). Larger gates judge on more
// evidence but leave drifted models serving longer.
func WithShadowGate(minDecisions, minUEs int) LearnerOption {
	return func(c *learnerConfig) {
		c.shadowMinDecisions = minDecisions
		c.shadowMinUEs = minUEs
	}
}

// WithGuard attaches a Guard to the learner: the controller's fused Tick
// charges it with every served decision, the learner submits every
// shadow-winning candidate to its promotion budget and then its approval
// hook, runs the rollout stage under its probation settings (probation
// scoring and lineage rollback through Serving.DeployPolicy, owned by
// the learner), and adopts its audit log, so learner and guard record
// into one trail. The guard must wrap the same
// controller the learner serves and charge the same mitigation cost and
// restartability (NewServingLearner panics otherwise). WithGuard is a
// single-process option: under a distributed serving layer
// (NewServingLearner over a fleet coordinator) guards attach per worker
// and the coordinator routes decision accounting to them, so passing
// WithGuard there panics too.
func WithGuard(g *Guard) LearnerOption {
	return func(c *learnerConfig) { c.guard = g }
}

// WithDecisionObserver taps the served decision stream: f is called for
// every decision the learner processes, after budget accounting, with the
// decision exactly as the fleet saw it (vetoes included). Scenario
// harnesses and metrics layers use it to score survival without a second
// Recommend pass; f runs under the learner lock and must not call back
// into the learner or controller.
func WithDecisionObserver(f func(Decision)) LearnerOption {
	return func(c *learnerConfig) { c.decisionObserver = f }
}

// WithUEObserver taps the realized-outcome stream: f is called for every
// UncorrectedError event the learner processes, with the realized cost
// the configured CostSource charged. The same restrictions as
// WithDecisionObserver apply.
func WithUEObserver(f func(node int, at time.Time, realizedNodeHours float64)) LearnerOption {
	return func(c *learnerConfig) { c.ueObserver = f }
}

// withCandidateHook intercepts staged candidates (test seam; see
// learnerConfig.candidateHook).
func withCandidateHook(hook func(Policy) Policy) LearnerOption {
	return func(c *learnerConfig) { c.candidateHook = hook }
}

// defaultLearnerConfig seeds the learner option struct.
func defaultLearnerConfig() learnerConfig {
	return learnerConfig{
		seed:                      1,
		cost:                      ConstantCost(100),
		mitigationCostNodeMinutes: 2,
		restartable:               true,
		rewardScale:               0.05,
		driftThreshold:            6,
		driftWindow:               512,
		minExperience:             512,
		epochSteps:                64,
		streamCapacity:            1 << 14,
		shadowMinDecisions:        256,
		shadowMinUEs:              1,
	}
}

// guardConfig collects NewGuard options.
type guardConfig struct {
	mitigationCostNodeMinutes float64
	restartable               bool
	// budgets is lowered verbatim into the guard's budget windows;
	// guard.NewBudgets fills the window defaults.
	budgets guard.Config

	hook                 ApprovalHook
	probationDecisions   int
	probationToleranceNH float64
}

// GuardOption configures NewGuard.
type GuardOption func(*guardConfig)

// WithNodeCheckpointBudget caps the checkpoint node-hours any single
// node may spend on mitigation within a sliding window (default window
// 24h). Beyond the cap, that node's mitigations are suppressed (served
// as ActionNone with Decision.Vetoed set) until spend slides back under.
// nodeHours <= 0 disables the budget (the default).
func WithNodeCheckpointBudget(nodeHours float64, window time.Duration) GuardOption {
	return func(c *guardConfig) {
		c.budgets.NodeCheckpointNodeHours = nodeHours
		c.budgets.NodeWindow = window
	}
}

// WithFleetMitigationBudget caps the fleet-wide mitigation count within
// a sliding window (default window 1h) — the blast-radius limit against
// a policy gone mitigation-happy. max <= 0 disables (the default).
func WithFleetMitigationBudget(max int, window time.Duration) GuardOption {
	return func(c *guardConfig) {
		c.budgets.FleetMaxMitigations = max
		c.budgets.FleetWindow = window
	}
}

// WithPromotionBudget caps promotions per sliding 24h window; further
// shadow-winning candidates are frozen (discarded with a budget-trip
// audit event) until the window slides. The guard keeps the window; the
// learner that adopts it consults and charges it at each promotion.
// perDay <= 0 disables (the default).
func WithPromotionBudget(perDay int) GuardOption {
	return func(c *guardConfig) { c.budgets.MaxPromotions = perDay }
}

// WithApprovalHook sets the promotion approval hook (default
// AutoApprove) that a learner adopting the guard calls, after the
// promotion budget, for every shadow-winning candidate. See ApprovalHook,
// DenyPromotions, ApprovalCallback.
func WithApprovalHook(h ApprovalHook) GuardOption {
	return func(c *guardConfig) {
		if h != nil {
			c.hook = h
		}
	}
}

// WithProbation sets the post-promotion probation window (default 256
// decisions, 5 node-hours tolerance) that a learner adopting the guard
// runs: the replaced incumbent keeps scoring as a counterfactual, and a
// promoted model that regresses past the tolerance before surviving the
// window is rolled back via its lineage chain. decisions <= 0 disables
// probation.
func WithProbation(decisions int, toleranceNodeHours float64) GuardOption {
	return func(c *guardConfig) {
		c.probationDecisions = decisions
		c.probationToleranceNH = toleranceNodeHours
	}
}

// WithGuardMitigationCost sets the checkpoint cost per mitigation in
// node-minutes (default 2) that budget accounting and probation scoring
// charge. It must equal the learner's WithLearnerMitigationCost:
// NewServingLearner panics on a mismatch under WithGuard.
func WithGuardMitigationCost(nodeMinutes float64) GuardOption {
	return func(c *guardConfig) { c.mitigationCostNodeMinutes = nodeMinutes }
}

// WithGuardRestartable records whether mitigation establishes a restart
// point (default true). The guard itself never reads it; it only has to
// equal the learner's WithLearnerRestartable, which NewServingLearner
// checks under WithGuard (a mismatch panics).
func WithGuardRestartable(restartable bool) GuardOption {
	return func(c *guardConfig) { c.restartable = restartable }
}

// defaultGuardConfig seeds the guard option struct: all budgets
// disabled, auto-approval, probation on at 256 decisions with 5
// node-hours tolerance.
func defaultGuardConfig() guardConfig {
	return guardConfig{
		mitigationCostNodeMinutes: 2,
		restartable:               true,
		hook:                      AutoApprove(),
		probationDecisions:        256,
		probationToleranceNH:      5,
	}
}
