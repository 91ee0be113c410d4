package uerl

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/guard"
)

// ApprovalVerdict is an approval hook's answer to a promotion request.
type ApprovalVerdict int

const (
	// ApprovalApproved lets the promotion proceed.
	ApprovalApproved ApprovalVerdict = iota
	// ApprovalDenied blocks the promotion; the candidate is discarded.
	ApprovalDenied
)

// PromotionRequest is everything an approval hook sees about a promotion
// the lifecycle wants to execute.
type PromotionRequest struct {
	// Candidate is the content-addressed version of the model to promote.
	Candidate string `json:"candidate"`
	// Incumbent is the version currently serving (the candidate's lineage
	// parent).
	Incumbent string `json:"incumbent"`
	// Generation is the model generation before the promotion.
	Generation int `json:"generation"`
	// Time is the telemetry time of the promotion decision.
	Time time.Time `json:"time"`
	// ShadowAdvantage is the shadow-eval cost advantage (incumbent −
	// candidate, node-hours) the candidate won with.
	ShadowAdvantage float64 `json:"shadow_advantage"`
	// ShadowDecisions and ShadowUEs size the evidence behind it.
	ShadowDecisions int `json:"shadow_decisions"`
	ShadowUEs       int `json:"shadow_ues"`
}

// ApprovalHook gates every promotion the lifecycle attempts. Review is
// called once per shadow-winning candidate, after the promotion budget
// check; it may block (e.g. waiting for a human), during which serving
// traffic proceeds untouched — only the learning loop waits. The
// returned reason is recorded in the audit log either way.
type ApprovalHook interface {
	Review(req PromotionRequest) (ApprovalVerdict, string)
}

// approvalFunc adapts a function to ApprovalHook.
type approvalFunc func(req PromotionRequest) (ApprovalVerdict, string)

func (f approvalFunc) Review(req PromotionRequest) (ApprovalVerdict, string) { return f(req) }

// AutoApprove approves every promotion (the default hook): promotions
// are gated by the shadow eval and the promotion budget alone.
func AutoApprove() ApprovalHook {
	return approvalFunc(func(PromotionRequest) (ApprovalVerdict, string) {
		return ApprovalApproved, "auto-approved"
	})
}

// DenyPromotions denies every promotion — a promotion freeze (e.g.
// change-window lockdown). The reason lands in every audit event.
func DenyPromotions(reason string) ApprovalHook {
	if reason == "" {
		reason = "promotions frozen"
	}
	return approvalFunc(func(PromotionRequest) (ApprovalVerdict, string) {
		return ApprovalDenied, reason
	})
}

// ApprovalCallback runs f asynchronously for each promotion request and
// waits up to timeout for its answer; a timeout or error is a deny (the
// safe default for an unreachable approver). f runs on its own
// goroutine, so it may do I/O (page an operator, post to a change
// system); if it answers after the timeout the late answer is discarded.
func ApprovalCallback(timeout time.Duration, f func(req PromotionRequest) (bool, error)) ApprovalHook {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return approvalFunc(func(req PromotionRequest) (ApprovalVerdict, string) {
		type answer struct {
			ok  bool
			err error
		}
		ch := make(chan answer, 1)
		go func() {
			ok, err := f(req)
			ch <- answer{ok, err}
		}()
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case a := <-ch:
			if a.err != nil {
				return ApprovalDenied, "approval callback failed: " + a.err.Error() + " (default deny)"
			}
			if !a.ok {
				return ApprovalDenied, "denied by approval callback"
			}
			return ApprovalApproved, "approved by approval callback"
		case <-timer.C:
			return ApprovalDenied, fmt.Sprintf("approval timed out after %v (default deny)", timeout)
		}
	})
}

// GuardStats summarizes a guarded lifecycle's enforcement activity.
// Guard.Stats reports the budget counters; OnlineLearner.Stats fills in
// the rollout counters too (DeniedPromotions, Rollbacks, ProbationActive
// and ProbationPasses), which a Guard alone reports as zero.
type GuardStats struct {
	// SuppressedMitigations counts mitigation recommendations degraded to
	// ActionNone by a tripped budget.
	SuppressedMitigations uint64 `json:"suppressed_mitigations"`
	// BudgetTrips counts budget limit crossings (each recorded once in
	// the audit log per trip, not per suppressed decision).
	BudgetTrips int `json:"budget_trips"`
	// Promotions counts promotions charged to the promotion budget.
	Promotions int `json:"promotions"`
	// DeniedPromotions counts promotions blocked by the promotion budget
	// or the approval hook.
	DeniedPromotions int `json:"denied_promotions"`
	// Rollbacks counts probation regressions rolled back.
	Rollbacks int `json:"rollbacks"`
	// ProbationActive reports whether a promoted model is currently on
	// probation.
	ProbationActive bool `json:"probation_active"`
	// BudgetRecoveries counts tripped mitigation budgets recovering (a
	// mitigation served again after a trip), the closing transitions
	// paired with BudgetTrips in the audit log.
	BudgetRecoveries int `json:"budget_recoveries"`
	// ProbationPasses counts promoted models that survived their
	// post-promotion probation window.
	ProbationPasses int `json:"probation_passes"`
	// VetoesByReason breaks SuppressedMitigations down by the tripped
	// budget (see the guard package's Reason constants).
	VetoesByReason map[string]uint64 `json:"vetoes_by_reason,omitempty"`
}

// Guard is the production guardrail layer on a Controller: enforceable
// budgets, independent of the learner's own judgment. It keeps three
// sliding-window budgets over the served Decision stream — per-node
// checkpoint node-hours, fleet-wide mitigation rate, and promotions per
// window:
//
//   - A tripped mitigation budget degrades Recommend gracefully (the
//     decision becomes ActionNone with Decision.Vetoed set — serving never
//     blocks or errors).
//   - A tripped promotion budget freezes promotions.
//
// The guard also carries the rollout settings (WithApprovalHook,
// WithProbation) for the OnlineLearner that adopts it, which owns the
// rollout: it submits every shadow-winning candidate to the promotion
// budget and then the ApprovalHook, deploys it, keeps the replaced
// incumbent scoring as a counterfactual on probation, and rolls a
// regressing model back along its ModelHeader.Parent lineage chain
// through Serving.DeployPolicy.
//
// Every budget trip and recovery is recorded as a LifecycleEvent the
// moment it happens. A learner created with WithGuard adopts the guard's
// audit log, so the learner's drift, retrain, verdict and rollout events
// and the guard's budget events form one trail in the order they
// happened. Construct with NewGuard, then pass to NewServingLearner via
// WithGuard:
//
//	ctl := uerl.NewController(policy)
//	g := uerl.NewGuard(ctl,
//	    uerl.WithNodeCheckpointBudget(0.5, 24*time.Hour),
//	    uerl.WithPromotionBudget(4),
//	    uerl.WithApprovalHook(uerl.ApprovalCallback(time.Minute, pageOperator)))
//	learner := uerl.NewServingLearner(ctl, uerl.WithGuard(g), ...)
//
// Without a learner, drive the guard from your own event loop: it vetoes
// through Recommend automatically once attached, but budget accounting
// needs the served stream — serve decisions through Controller.TickInto, or
// call ObserveDecision for every decision served through Recommend.
//
// Guard is safe for concurrent use. All times are telemetry time from
// the event stream, so guarded runs replay deterministically.
type Guard struct {
	ctl     *Controller
	cfg     guardConfig
	budgets *guard.Budgets
	// log is the audit trail, shared with an attached learner.
	log *auditLog

	mu sync.Mutex
	// trippedNode / trippedFleet dedupe budget-trip audit events: one per
	// limit crossing, cleared when a mitigation is served again.
	//uerl:guarded-by mu
	trippedNode map[int]bool
	//uerl:guarded-by mu
	trippedFleet bool
	//uerl:guarded-by mu
	suppressed uint64
	//uerl:guarded-by mu
	vetoesByReason map[string]uint64
	//uerl:guarded-by mu
	trips int
	//uerl:guarded-by mu
	recoveries int
	//uerl:guarded-by mu
	promotions int
}

// NewGuard builds the guardrail layer around ctl and attaches it, so
// Recommend consults the mitigation budgets from then on. One guard per
// controller; a second NewGuard on the same controller panics.
func NewGuard(ctl *Controller, opts ...GuardOption) *Guard {
	if ctl == nil {
		panic("uerl: NewGuard with nil controller")
	}
	cfg := defaultGuardConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	g := &Guard{
		ctl:            ctl,
		cfg:            cfg,
		budgets:        guard.NewBudgets(cfg.budgets),
		log:            &auditLog{},
		trippedNode:    map[int]bool{},
		vetoesByReason: map[string]uint64{},
	}
	ctl.attachGuard(g)
	return g
}

// Controller returns the guarded controller.
func (g *Guard) Controller() *Controller { return g.ctl }

// mitigationCostNodeHours is the checkpoint cost one mitigation charges
// against the budgets.
func (g *Guard) mitigationCostNodeHours() float64 {
	return g.cfg.mitigationCostNodeMinutes / 60
}

// allowMitigation is the Recommend-path budget consult (read-shaped, no
// charge, no audit — see ObserveDecision).
func (g *Guard) allowMitigation(node int, at time.Time) (bool, string) {
	return g.budgets.AllowMitigation(node, at, g.mitigationCostNodeHours())
}

// ObserveDecision accounts one served decision from the authoritative
// event stream: served mitigations charge the budget windows and vetoed
// decisions record the budget trip (once per limit crossing).
// Controller.TickInto calls it for every decision tick it serves, so an
// OnlineLearner on the guarded controller charges it for every decision
// it processes; standalone users call it themselves.
func (g *Guard) ObserveDecision(d Decision) { g.observeDecision(&d) }

// observeDecision is ObserveDecision on the caller's Decision, so
// Controller.TickInto charges the guard without copying it.
func (g *Guard) observeDecision(d *Decision) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case d.Vetoed:
		g.suppressed++
		g.vetoesByReason[d.VetoReason]++
		g.recordTripLocked(d)
	case d.Action == ActionMitigate:
		g.budgets.ChargeMitigation(d.Node, d.Time, g.mitigationCostNodeHours())
		// A served mitigation means the budgets recovered: re-arm the
		// trip audit for the next crossing and record the recovery — the
		// closing bracket of the trip event, once per tripped state.
		g.recordRecoveryLocked(d)
	}
}

// ObserveUE does nothing: realized UEs charge no budget, and probation
// scoring belongs to the OnlineLearner. It remains for callers written
// against the earlier accounting surface.
func (g *Guard) ObserveUE(node int, at time.Time, realizedCostNodeHours float64) {}

// recordTripLocked records a budget-trip audit event on the veto's limit
// crossing, deduped until the budget recovers. Caller holds g.mu.
//
//uerl:locked mu
func (g *Guard) recordTripLocked(d *Decision) {
	switch d.VetoReason {
	case guard.ReasonNodeBudget:
		if g.trippedNode[d.Node] {
			return
		}
		g.trippedNode[d.Node] = true
	case guard.ReasonFleetBudget:
		if g.trippedFleet {
			return
		}
		g.trippedFleet = true
	default:
		return
	}
	g.recordBudgetLocked(LifecycleBudgetTrip, d.VetoReason, d)
}

// recordRecoveryLocked clears tripped budget states a served mitigation
// proves recovered, recording one budget-recover audit event per cleared
// trip. Caller holds g.mu.
//
//uerl:locked mu
func (g *Guard) recordRecoveryLocked(d *Decision) {
	if g.trippedNode[d.Node] {
		delete(g.trippedNode, d.Node)
		g.recordBudgetLocked(LifecycleBudgetRecover, guard.ReasonNodeBudget, d)
	}
	if g.trippedFleet {
		g.trippedFleet = false
		g.recordBudgetLocked(LifecycleBudgetRecover, guard.ReasonFleetBudget, d)
	}
}

// recordBudgetLocked counts and records a node (guard.ReasonNodeBudget)
// or fleet (guard.ReasonFleetBudget) mitigation budget's trip or
// recovery at decision d. Caller holds g.mu.
//
//uerl:locked mu
func (g *Guard) recordBudgetLocked(kind LifecycleEventKind, reason string, d *Decision) {
	state, mitigation := "tripped", "suppressed"
	if kind == LifecycleBudgetTrip {
		g.trips++
	} else {
		g.recoveries++
		state, mitigation = "recovered", "resumed"
	}
	bc := g.budgets.Config()
	ev := LifecycleEvent{Kind: kind, Time: d.Time, Generation: g.promotions, ModelVersion: d.ModelVersion}
	if reason == guard.ReasonNodeBudget {
		ev.Score = g.budgets.NodeSpend(d.Node, d.Time)
		ev.Detail = fmt.Sprintf("node %d checkpoint budget %s: %.3f nh in sliding %s (limit %.3f nh); mitigation %s",
			d.Node, state, ev.Score, bc.NodeWindow, bc.NodeCheckpointNodeHours, mitigation)
	} else {
		n := g.budgets.FleetMitigations(d.Time)
		ev.Score = float64(n)
		ev.Detail = fmt.Sprintf("fleet mitigation budget %s: %d mitigations in sliding %s (limit %d); mitigation %s",
			state, n, bc.FleetWindow, bc.FleetMaxMitigations, mitigation)
	}
	g.log.record(ev)
}

// allowPromotion is the promotion-budget gate: it reports whether req
// fits the sliding promotion window, recording a budget-trip audit event
// when it does not. The learner calls it after the shadow gate and before
// the approval hook.
func (g *Guard) allowPromotion(req PromotionRequest) bool {
	if ok, _ := g.budgets.AllowPromotion(req.Time); ok {
		return true
	}
	bc := g.budgets.Config()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.trips++
	g.log.record(LifecycleEvent{
		Kind: LifecycleBudgetTrip, Time: req.Time, Generation: req.Generation,
		ModelVersion: req.Candidate, Parent: req.Incumbent,
		Score: float64(g.budgets.Promotions(req.Time)),
		Detail: fmt.Sprintf("promotion budget tripped: %d promotions in sliding %s (limit %d); promotion of %s frozen",
			g.budgets.Promotions(req.Time), bc.PromotionWindow, bc.MaxPromotions, req.Candidate),
	})
	return false
}

// chargePromotion counts an executed promotion against the promotion
// budget. Budget-trip audit events take their Generation from the count.
func (g *Guard) chargePromotion(at time.Time) {
	g.budgets.ChargePromotion(at)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.promotions++
}

// Events returns a defensive copy of the guard's audit log (budget
// trips and recoveries). With a learner attached it is the learner's log
// too: the one shared trail.
func (g *Guard) Events() []LifecycleEvent { return g.log.since(0) }

// Stats summarizes the guard's budget enforcement; the rollout counters
// stay zero (OnlineLearner.Stats reports them).
func (g *Guard) Stats() GuardStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := GuardStats{
		SuppressedMitigations: g.suppressed,
		BudgetTrips:           g.trips,
		Promotions:            g.promotions,
		BudgetRecoveries:      g.recoveries,
	}
	if len(g.vetoesByReason) > 0 {
		st.VetoesByReason = make(map[string]uint64, len(g.vetoesByReason))
		for reason, n := range g.vetoesByReason {
			st.VetoesByReason[reason] = n
		}
	}
	return st
}
