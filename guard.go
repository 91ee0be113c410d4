package uerl

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/evalx"
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

// GuardStats summarizes a Guard's enforcement activity.
type GuardStats struct {
	// SuppressedMitigations counts mitigation recommendations degraded to
	// ActionNone by a tripped budget.
	SuppressedMitigations uint64 `json:"suppressed_mitigations"`
	// BudgetTrips counts budget limit crossings (each recorded once in
	// the audit log per trip, not per suppressed decision).
	BudgetTrips int `json:"budget_trips"`
	// Promotions counts promotions executed through the guard.
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

// probationRun is one active post-promotion probation window.
type probationRun struct {
	score *evalx.Probation
	// reference is the replaced incumbent, run as the counterfactual.
	reference Policy
	promoted  string
}

// Guard is the production guardrail layer between an OnlineLearner and
// its Controller: enforceable budgets, promotion approvals, and
// rollback-on-regression, all independent of the learner's own judgment.
// It enforces three disciplines the drift→retrain→promote loop cannot be
// trusted to keep for itself:
//
//   - Budgets. Per-node checkpoint node-hours, fleet-wide mitigation
//     rate, and promotions per window, tracked in sliding windows over
//     the served Decision stream. A tripped mitigation budget degrades
//     Recommend gracefully (the decision becomes ActionNone with
//     Decision.Vetoed set — serving never blocks or errors); a tripped
//     promotion budget freezes promotions.
//   - Approval. Every shadow-winning candidate passes the ApprovalHook
//     before SwapPolicy; deny (or an unresponsive approver) discards it.
//   - Probation. After each promotion the replaced incumbent keeps
//     scoring as a counterfactual (evalx.Probation, the same ShadowEval
//     accounting as the promotion gate); if the promoted model regresses
//     past tolerance within the window, the guard walks the
//     ModelHeader.Parent lineage chain back to a retained ancestor and
//     hot-swaps it in.
//
// Every budget trip, approval verdict, rollback and probation pass is
// recorded as a LifecycleEvent the moment it happens. A learner created
// with WithGuard adopts the guard's audit log, so the learner's drift,
// retrain and verdict events and the guard's events form one trail in
// the order they happened. Construct with NewGuard, then pass to
// NewOnlineLearner via WithGuard:
//
//	ctl := uerl.NewController(policy)
//	g := uerl.NewGuard(ctl,
//	    uerl.WithNodeCheckpointBudget(0.5, 24*time.Hour),
//	    uerl.WithPromotionBudget(4),
//	    uerl.WithApprovalHook(uerl.ApprovalCallback(time.Minute, pageOperator)))
//	learner := uerl.NewOnlineLearner(ctl, uerl.WithGuard(g), ...)
//
// Without a learner, drive the guard from your own event loop: it vetoes
// through Recommend automatically once attached, but budget accounting
// and probation scoring need the served stream — call ObserveDecision
// for every served decision and ObserveUE for every realized UE.
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
	// retained maps version → policy for the rollback registry (bounded,
	// newest retainedCap ancestors); lineageOrder tracks eviction order.
	//uerl:guarded-by mu
	retained map[string]Policy
	//uerl:guarded-by mu
	parentOf map[string]string
	//uerl:guarded-by mu
	lineageOrder []string
	//uerl:guarded-by mu
	probation *probationRun
	//uerl:guarded-by mu
	suppressed uint64
	//uerl:guarded-by mu
	vetoesByReason map[string]uint64
	//uerl:guarded-by mu
	trips int
	//uerl:guarded-by mu
	recoveries int
	//uerl:guarded-by mu
	probationPasses int
	//uerl:guarded-by mu
	promotions int
	//uerl:guarded-by mu
	denied int
	//uerl:guarded-by mu
	rollbacks int
}

// retainedCap bounds the rollback registry: the newest ancestors kept
// live for lineage-chain rollback. Older models must be reloaded from
// their SaveModel artifacts.
const retainedCap = 16

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
		retained:       map[string]Policy{},
		parentOf:       map[string]string{},
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
// event stream: served mitigations charge the budget windows, vetoed
// decisions record the budget trip (once per limit crossing), and active
// probation scores the decision against the replaced incumbent's
// counterfactual. An OnlineLearner with this guard attached calls it for
// every decision it processes; standalone users call it themselves.
func (g *Guard) ObserveDecision(d Decision) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case d.Vetoed:
		g.suppressed++
		g.vetoesByReason[d.VetoReason]++
		g.recordTripLocked(d)
	case d.Mitigate():
		g.budgets.ChargeMitigation(d.Node, d.Time, g.mitigationCostNodeHours())
		// A served mitigation means the budgets recovered: re-arm the
		// trip audit for the next crossing and record the recovery — the
		// closing bracket of the trip event, once per tripped state.
		g.recordRecoveryLocked(d)
	}
	if g.probation != nil {
		ref := g.probation.reference.Decide(Snapshot{Node: d.Node, Time: d.Time, Features: d.Features})
		g.probation.score.Decision(d.Node, d.Time, d.Mitigate(), ref.Mitigate())
		g.judgeProbationLocked(d.Time)
	}
}

// ObserveUE accounts one realized uncorrected error: active probation
// charges it to both scoreboards (the rollback trigger when the promoted
// model missed it). realizedCostNodeHours is the realized Eq. 3 cost.
func (g *Guard) ObserveUE(node int, at time.Time, realizedCostNodeHours float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.probation == nil {
		return
	}
	g.probation.score.UE(node, at, realizedCostNodeHours)
	g.judgeProbationLocked(at)
}

// recordTripLocked records a budget-trip audit event on the veto's limit
// crossing, deduped until the budget recovers. Caller holds g.mu.
//
//uerl:locked mu
func (g *Guard) recordTripLocked(d Decision) {
	bc := g.budgets.Config()
	switch d.VetoReason {
	case guard.ReasonNodeBudget:
		if g.trippedNode[d.Node] {
			return
		}
		g.trippedNode[d.Node] = true
		g.trips++
		g.log.record(LifecycleEvent{
			Kind: LifecycleBudgetTrip, Time: d.Time, Generation: g.promotions,
			ModelVersion: d.ModelVersion, Score: g.budgets.NodeSpend(d.Node, d.Time),
			Detail: fmt.Sprintf("node %d checkpoint budget tripped: %.3f nh in sliding %s (limit %.3f nh); mitigation suppressed",
				d.Node, g.budgets.NodeSpend(d.Node, d.Time), bc.NodeWindow, bc.NodeCheckpointNodeHours),
		})
	case guard.ReasonFleetBudget:
		if g.trippedFleet {
			return
		}
		g.trippedFleet = true
		g.trips++
		g.log.record(LifecycleEvent{
			Kind: LifecycleBudgetTrip, Time: d.Time, Generation: g.promotions,
			ModelVersion: d.ModelVersion, Score: float64(g.budgets.FleetMitigations(d.Time)),
			Detail: fmt.Sprintf("fleet mitigation budget tripped: %d mitigations in sliding %s (limit %d); mitigation suppressed",
				g.budgets.FleetMitigations(d.Time), bc.FleetWindow, bc.FleetMaxMitigations),
		})
	}
}

// recordRecoveryLocked clears tripped budget states a served mitigation
// proves recovered, recording one budget-recover audit event per cleared
// trip. Caller holds g.mu.
//
//uerl:locked mu
func (g *Guard) recordRecoveryLocked(d Decision) {
	bc := g.budgets.Config()
	if g.trippedNode[d.Node] {
		delete(g.trippedNode, d.Node)
		g.recoveries++
		g.log.record(LifecycleEvent{
			Kind: LifecycleBudgetRecover, Time: d.Time, Generation: g.promotions,
			ModelVersion: d.ModelVersion, Score: g.budgets.NodeSpend(d.Node, d.Time),
			Detail: fmt.Sprintf("node %d checkpoint budget recovered: %.3f nh in sliding %s (limit %.3f nh); mitigation resumed",
				d.Node, g.budgets.NodeSpend(d.Node, d.Time), bc.NodeWindow, bc.NodeCheckpointNodeHours),
		})
	}
	if g.trippedFleet {
		g.trippedFleet = false
		g.recoveries++
		g.log.record(LifecycleEvent{
			Kind: LifecycleBudgetRecover, Time: d.Time, Generation: g.promotions,
			ModelVersion: d.ModelVersion, Score: float64(g.budgets.FleetMitigations(d.Time)),
			Detail: fmt.Sprintf("fleet mitigation budget recovered: %d mitigations in sliding %s (limit %d); mitigation resumed",
				g.budgets.FleetMitigations(d.Time), bc.FleetWindow, bc.FleetMaxMitigations),
		})
	}
}

// reviewPromotion runs the promotion gates — budget first, then the
// approval hook — recording an audit event for every verdict. It returns
// whether the promotion may proceed; the learner calls it after the
// shadow gate and before SwapPolicy.
func (g *Guard) reviewPromotion(req PromotionRequest) (bool, string) {
	if ok, _ := g.budgets.AllowPromotion(req.Time); !ok {
		bc := g.budgets.Config()
		g.mu.Lock()
		g.denied++
		g.trips++
		detail := fmt.Sprintf("promotion budget tripped: %d promotions in sliding %s (limit %d); promotion of %s frozen",
			g.budgets.Promotions(req.Time), bc.PromotionWindow, bc.MaxPromotions, req.Candidate)
		g.log.record(LifecycleEvent{
			Kind: LifecycleBudgetTrip, Time: req.Time, Generation: req.Generation,
			ModelVersion: req.Candidate, Parent: req.Incumbent,
			Score: float64(g.budgets.Promotions(req.Time)), Detail: detail,
		})
		g.mu.Unlock()
		return false, detail
	}
	// The hook may block (human approval); keep g.mu released so budget
	// vetoes and audits proceed while it decides.
	verdict, reason := g.cfg.hook.Review(req)
	g.mu.Lock()
	defer g.mu.Unlock()
	ev := LifecycleEvent{
		Time: req.Time, Generation: req.Generation,
		ModelVersion: req.Candidate, Parent: req.Incumbent, Score: req.ShadowAdvantage,
	}
	if verdict != ApprovalApproved {
		g.denied++
		ev.Kind = LifecycleApprovalDeny
		ev.Detail = fmt.Sprintf("promotion denied: %s", reason)
		g.log.record(ev)
		return false, ev.Detail
	}
	ev.Kind = LifecycleApprovalGrant
	ev.Detail = fmt.Sprintf("promotion approved: %s", reason)
	g.log.record(ev)
	return true, ""
}

// notePromotion records an executed promotion: charges the promotion
// budget, retains the replaced incumbent for lineage-chain rollback, and
// opens the probation window. The learner calls it right after
// SwapPolicy; the incumbent is the policy the swap replaced.
func (g *Guard) notePromotion(incumbent, promoted Policy, at time.Time) {
	g.budgets.ChargePromotion(at)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.promotions++
	g.retainLocked(incumbent)
	g.parentOf[promoted.Version()] = incumbent.Version()
	if g.cfg.probationDecisions > 0 {
		g.probation = &probationRun{
			score: evalx.NewProbation(evalx.ProbationConfig{
				Shadow:             shadowConfig(g.cfg.mitigationCostNodeMinutes, g.cfg.restartable),
				MinDecisions:       g.cfg.probationDecisions,
				ToleranceNodeHours: g.cfg.probationToleranceNH,
			}),
			reference: incumbent,
			promoted:  promoted.Version(),
		}
	}
}

// retainLocked adds a policy to the bounded rollback registry. Caller
// holds g.mu.
//
//uerl:locked mu
func (g *Guard) retainLocked(p Policy) {
	v := p.Version()
	if _, ok := g.retained[v]; !ok {
		g.lineageOrder = append(g.lineageOrder, v)
		if len(g.lineageOrder) > retainedCap {
			evict := g.lineageOrder[0]
			g.lineageOrder = g.lineageOrder[1:]
			delete(g.retained, evict)
		}
	}
	g.retained[v] = p
}

// judgeProbationLocked polls the probation verdict and executes the
// rollback (or closes the window) when it is decided. Caller holds g.mu.
//
//uerl:locked mu
func (g *Guard) judgeProbationLocked(at time.Time) {
	run := g.probation
	if run == nil {
		return
	}
	v := run.score.Verdict()
	if !v.Decided {
		return
	}
	g.probation = nil
	if !v.Regressed {
		g.probationPasses++
		g.log.record(LifecycleEvent{
			Kind: LifecycleProbationPass, Time: at, Generation: g.promotions,
			ModelVersion: run.promoted, Parent: run.reference.Version(), Score: v.MarginNodeHours,
			Detail: fmt.Sprintf("probation passed after %d decisions / %d UEs: margin %+.2f nh within %.2f nh tolerance",
				v.Decisions, v.UEs, v.MarginNodeHours, g.cfg.probationToleranceNH),
		})
		return
	}
	g.rollbackLocked(at, run, v)
}

// rollbackLocked walks the serving model's ModelHeader.Parent lineage
// chain to the nearest retained ancestor and hot-swaps it back in.
// Caller holds g.mu.
//
//uerl:locked mu
func (g *Guard) rollbackLocked(at time.Time, run *probationRun, v evalx.ProbationVerdict) {
	cur := g.ctl.Policy()
	var target Policy
	for ver := ModelParent(cur); ver != ""; ver = g.parentOf[ver] {
		if p, ok := g.retained[ver]; ok {
			target = p
			break
		}
	}
	ev := LifecycleEvent{
		Kind: LifecycleRollback, Time: at, Generation: g.promotions,
		Score: v.MarginNodeHours,
	}
	if target == nil {
		// The serving model carries no retained lineage (e.g. an operator
		// swapped mid-probation): record the regression, keep serving.
		ev.ModelVersion = cur.Version()
		ev.Detail = fmt.Sprintf("rollback aborted: no retained ancestor for %s (regressed %+.2f nh over %d decisions)",
			cur.Version(), v.MarginNodeHours, v.Decisions)
		g.log.record(ev)
		return
	}
	g.ctl.SwapPolicy(target)
	g.rollbacks++
	ev.ModelVersion = target.Version()
	ev.Parent = ModelParent(target)
	ev.Detail = fmt.Sprintf("promoted %s regressed %+.2f nh over %d decisions / %d UEs (tolerance %.2f nh); rolled back to %s via lineage",
		run.promoted, v.MarginNodeHours, v.Decisions, v.UEs, g.cfg.probationToleranceNH, target.Version())
	g.log.record(ev)
}

// Events returns a defensive copy of the guard's audit log (budget
// trips, approval verdicts, rollbacks, probation passes). With a learner
// attached it is the learner's log too: the one shared trail.
func (g *Guard) Events() []LifecycleEvent { return g.log.since(0) }

// Stats summarizes the guard's enforcement activity.
func (g *Guard) Stats() GuardStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := GuardStats{
		SuppressedMitigations: g.suppressed,
		BudgetTrips:           g.trips,
		Promotions:            g.promotions,
		DeniedPromotions:      g.denied,
		Rollbacks:             g.rollbacks,
		ProbationActive:       g.probation != nil,
		BudgetRecoveries:      g.recoveries,
		ProbationPasses:       g.probationPasses,
	}
	if len(g.vetoesByReason) > 0 {
		st.VetoesByReason = make(map[string]uint64, len(g.vetoesByReason))
		for reason, n := range g.vetoesByReason {
			st.VetoesByReason[reason] = n
		}
	}
	return st
}
