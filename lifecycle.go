package uerl

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/evalx"
	"repro/internal/features"
	"repro/internal/lifecycle"
	"repro/internal/nn"
	"repro/internal/rl"
)

// CostFunc supplies the Eq. 3 potential UE cost (running job's node count
// × node–hours lost if a UE struck now) for a node at a given time — the
// workload-model input of the serving layer. For realized UncorrectedError
// events it is also the realized cost charged to the outcome accounting.
type CostFunc func(node int, at time.Time) float64

// ConstantCost returns a CostFunc reporting a fixed potential cost.
func ConstantCost(nodeHours float64) CostFunc {
	return func(int, time.Time) float64 { return nodeHours }
}

// LifecycleEventKind classifies an online-learning lifecycle event.
type LifecycleEventKind string

const (
	// LifecycleDrift marks a drift-detector window crossing the threshold.
	LifecycleDrift LifecycleEventKind = "drift"
	// LifecycleRetrain marks a completed retraining epoch that produced a
	// shadow candidate.
	LifecycleRetrain LifecycleEventKind = "retrain"
	// LifecycleRetrainFailed marks a retraining epoch that staged no
	// candidate (replay still below one batch, weights unchanged, or
	// candidate construction failed); Detail carries the reason.
	LifecycleRetrainFailed LifecycleEventKind = "retrain-failed"
	// LifecyclePromote marks a candidate passing shadow evaluation and
	// being hot-swapped into the controller.
	LifecyclePromote LifecycleEventKind = "promote"
	// LifecycleReject marks a candidate losing its shadow evaluation and
	// being discarded.
	LifecycleReject LifecycleEventKind = "reject"
	// LifecycleBudgetTrip marks a Guard budget limit crossing: a node or
	// fleet mitigation budget suppressing mitigations, or the promotion
	// budget freezing a promotion. Recorded once per crossing.
	LifecycleBudgetTrip LifecycleEventKind = "budget-trip"
	// LifecycleBudgetRecover marks a tripped mitigation budget recovering:
	// the sliding window admitted a mitigation again after a trip.
	// Recorded once per recovery, the closing bracket of a budget-trip
	// event — audits can pair trips with recoveries to measure how long
	// each degradation lasted.
	LifecycleBudgetRecover LifecycleEventKind = "budget-recover"
	// LifecycleApprovalGrant marks an ApprovalHook approving a promotion.
	LifecycleApprovalGrant LifecycleEventKind = "approval-grant"
	// LifecycleApprovalDeny marks an ApprovalHook denying a promotion;
	// the candidate is discarded.
	LifecycleApprovalDeny LifecycleEventKind = "approval-deny"
	// LifecycleRollback marks a probation regression rolled back: the
	// learner redeployed a retained lineage ancestor (or, with none
	// retained or the deploy refused, audited the aborted rollback).
	LifecycleRollback LifecycleEventKind = "rollback"
	// LifecycleProbationPass marks a promoted model surviving its
	// post-promotion probation window.
	LifecycleProbationPass LifecycleEventKind = "probation-pass"
)

// LifecycleEvent is one entry of the online learner's audit log.
type LifecycleEvent struct {
	// Kind classifies the event.
	Kind LifecycleEventKind `json:"kind"`
	// Time is the telemetry time at which the event occurred.
	Time time.Time `json:"time"`
	// Generation is the model generation after the event (0 = the
	// initial policy; it increments on every promotion).
	Generation int `json:"generation"`
	// ModelVersion identifies the model the event concerns: the
	// candidate for retrain/promote/reject, the incumbent for drift.
	ModelVersion string `json:"model_version,omitempty"`
	// Parent is the candidate's lineage parent version, when relevant.
	Parent string `json:"parent,omitempty"`
	// Score quantifies the event: the drift statistic for drift events,
	// the shadow cost advantage (incumbent − candidate, node–hours) for
	// promote/reject, the mean training loss for retrain.
	Score float64 `json:"score"`
	// Detail is a human-readable summary.
	Detail string `json:"detail,omitempty"`
}

// auditLog is the append-only lifecycle audit trail. A guarded learner
// keeps one: NewGuard creates it and a learner created WithGuard records
// into it, so every event lands once, in the order it happened. It has
// its own lock, taken last under either the learner's or the guard's.
type auditLog struct {
	mu sync.Mutex
	//uerl:guarded-by mu
	events []LifecycleEvent
}

// record appends one event.
func (a *auditLog) record(ev LifecycleEvent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events = append(a.events, ev)
}

// since returns a copy of the entries from index n on; out-of-range n
// returns nil.
func (a *auditLog) since(n int) []LifecycleEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n < 0 || n > len(a.events) {
		return nil
	}
	out := make([]LifecycleEvent, len(a.events)-n)
	copy(out, a.events[n:])
	return out
}

// shadowConfig is the node-hour accounting under the paper's two user
// parameters, shared by the learner's shadow gate and guard probation.
func shadowConfig(mitigationCostNodeMinutes float64, restartable bool) evalx.ShadowConfig {
	return evalx.ShadowConfig{MitigationCostNodeHours: mitigationCostNodeMinutes / 60, Restartable: restartable}
}

// LearnerStats summarizes an OnlineLearner's activity.
type LearnerStats struct {
	// Decisions is the number of decision ticks processed.
	Decisions int `json:"decisions"`
	// UEs is the number of realized uncorrected errors processed.
	UEs int `json:"ues"`
	// Transitions is the number of completed experience transitions
	// ingested into the training stream.
	Transitions uint64 `json:"transitions"`
	// DroppedTransitions counts experience evicted unconsumed from the
	// bounded stream.
	DroppedTransitions uint64 `json:"dropped_transitions"`
	// Epochs is the number of completed retraining epochs.
	Epochs int `json:"epochs"`
	// Generation is the current model generation (number of promotions).
	Generation int `json:"generation"`
	// ShadowActive reports whether a candidate is currently in shadow.
	ShadowActive bool `json:"shadow_active"`
	// ServingVersion is the currently served model version.
	ServingVersion string `json:"serving_version"`
	// Guard summarizes the attached Guard's enforcement activity; nil
	// when the learner runs unguarded.
	Guard *GuardStats `json:"guard,omitempty"`
}

// pendingStep is a decision awaiting its outcome: the transition from it
// completes at the node's next decision tick, after any realized UE costs
// in between have been folded into the reward (the streaming analogue of
// the training environment's Step).
type pendingStep struct {
	state  [FeatureDim]float64 // normalized features at the decision
	action int
	reward float64 // scaled, accumulates realized UE costs
}

// OnlineLearner closes the loop the offline pipeline leaves open: it taps
// a Controller's telemetry stream and realized UE outcomes into a bounded
// experience stream, detects drift in the rolling feature distribution,
// retrains the Q-network incrementally on live experience (reusing the
// batched internal/rl kernels), scores each candidate against the
// incumbent on identical shadow traffic (an evalx.Duel), and — when the
// candidate wins — hot-swaps it into the controller with full model
// lineage. Every drift, retrain and verdict is recorded in the audit log
// (Events), which a learner created WithGuard shares with its guard.
//
//	learner := uerl.NewServingLearner(ctl, uerl.WithLearnerSeed(1))
//	for ev := range telemetry {
//	    learner.Process(ev) // serve + learn
//	}
//
// Process both ingests the event into the controller and advances the
// learning loop, so callers feed events through the learner instead of
// calling Controller.ObserveEvent directly. Serving queries (Recommend)
// keep going straight to the controller from any goroutine — a hot swap
// never drops or blocks them. Process is safe for concurrent use, but
// the lifecycle is only bit-reproducible when events arrive in a
// deterministic order (one feeding goroutine).
//
// The learner is deterministic: a fixed seed and event stream reproduce
// the same drift verdicts, the same retrained weights (same content-
// addressed versions), and the same promotion decisions.
type OnlineLearner struct {
	mu      sync.Mutex
	serving Serving
	// ticker is the serving layer's fused decision step when it has one
	// (both shipped layers do); without it a decision tick is served by
	// threeCallTick.
	ticker Ticker
	// acct receives threeCallTick's served-decision stream for budget
	// accounting: the serving layer itself when it implements
	// ObserveDecision, nil otherwise.
	acct decisionAccountant
	cfg  learnerConfig

	trainer *lifecycle.OnlineTrainer
	drift   *lifecycle.DriftDetector
	// pending maps a node to its open step in steps, a slab that only
	// grows (one entry per node ever decided on), so a tick updates its
	// node's step in place.
	pending map[int]int
	steps   []pendingStep
	// dec is the tick's served decision and norm its normalized state,
	// staged for Ingest (which copies it) and the node's next pending
	// step; fields, so passing them through Ticker does not escape.
	dec  Decision
	norm [FeatureDim]float64
	log  *auditLog

	// candidate is the staged shadow candidate and shadow its duel against
	// the serving incumbent; both are nil outside a candidate window.
	candidate Policy
	shadow    *evalx.Duel

	// The rollout stage under WithGuard: retained maps version → policy
	// for the rollback registry (bounded, newest retainedCap ancestors;
	// lineageOrder tracks eviction order), and probation is the open
	// post-promotion window, nil outside one.
	retained     map[string]Policy
	parentOf     map[string]string
	lineageOrder []string
	probation    *probationRun

	sinceRetrain    int
	decisions       int
	ues             int
	generation      int
	denied          int
	rollbacks       int
	probationPasses int
}

// NewServingLearner attaches a continual-learning lifecycle to any
// Serving implementation — a single-process *Controller or a distributed
// fleet coordinator. WithGuard is only meaningful for a *Controller
// serving layer (the guard wraps a concrete controller); distributed
// layers carry their own per-worker guards and route decision accounting
// themselves.
func NewServingLearner(s Serving, opts ...LearnerOption) *OnlineLearner {
	if s == nil {
		panic("uerl: NewServingLearner with nil serving layer")
	}
	cfg := defaultLearnerConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	log := &auditLog{}
	if g := cfg.guard; g != nil {
		ctl, ok := s.(*Controller)
		if !ok {
			panic("uerl: WithGuard requires a *Controller serving layer; distributed layers attach guards per worker")
		}
		if g.Controller() != ctl {
			panic("uerl: WithGuard guard wraps a different controller than the learner serves")
		}
		if g.cfg.mitigationCostNodeMinutes != cfg.mitigationCostNodeMinutes || g.cfg.restartable != cfg.restartable {
			panic(fmt.Sprintf("uerl: WithGuard guard charges mitigation cost %v node-min (restartable %v), the learner %v (restartable %v)",
				g.cfg.mitigationCostNodeMinutes, g.cfg.restartable, cfg.mitigationCostNodeMinutes, cfg.restartable))
		}
		log = g.log
	}
	l := &OnlineLearner{
		serving: s,
		cfg:     cfg,
		trainer: lifecycle.NewOnlineTrainer(lifecycle.TrainerConfig{
			Agent: rl.AgentConfig{
				StateLen:     FeatureDim,
				NumActions:   2,
				Hidden:       []int{32, 16},
				Dueling:      true,
				DoubleDQN:    true,
				Gamma:        0.99,
				LearningRate: 3e-3,
				BatchSize:    32,
				GradClip:     10,
				HuberDelta:   1,
				Seed:         cfg.seed,
			},
			StreamCapacity: cfg.streamCapacity,
			StepsPerEpoch:  cfg.epochSteps,
		}),
		drift: lifecycle.NewDriftDetector(lifecycle.DriftConfig{
			Threshold:     cfg.driftThreshold,
			WindowSamples: cfg.driftWindow,
			// Monitor the stationary feature subset: the cumulative
			// counters grow monotonically on any healthy stream and
			// would trip a mean-shift test without any real drift.
			Dims: lifecycle.StationaryDriftDims,
		}),
		pending:  map[int]int{},
		log:      log,
		retained: map[string]Policy{},
		parentOf: map[string]string{},
	}
	// The fused steps account the decision themselves.
	if t, ok := s.(Ticker); ok {
		l.ticker = t
	} else {
		l.acct, _ = s.(decisionAccountant)
	}
	return l
}

// threeCallTick serves a decision tick on a layer without a fused step:
// ingest, decide, then account the served decision. Caller holds l.mu.
func (l *OnlineLearner) threeCallTick(e Event, potentialCostNodeHours float64) Decision {
	l.serving.ObserveEvent(e)
	d := l.serving.Recommend(e.Node, e.Time, potentialCostNodeHours)
	if l.acct != nil {
		// Budget accounting runs off the served decision stream — the
		// same decision the fleet just acted on.
		l.acct.ObserveDecision(d)
	}
	return d
}

// Serving returns the serving layer the learner drives.
func (l *OnlineLearner) Serving() Serving { return l.serving }

// Process ingests one telemetry event: it updates the controller's
// feature state, records the served decision as training experience,
// advances drift detection and shadow evaluation, and — when the
// lifecycle calls for it — retrains and hot-swaps the serving policy.
func (l *OnlineLearner) Process(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.Type == UncorrectedError {
		l.processUE(e)
		return
	}
	l.processDecision(e)
}

// processUE folds a realized UE into the pending reward, the feature
// history, and the shadow duel. Caller holds l.mu.
func (l *OnlineLearner) processUE(e Event) {
	realized := l.cfg.cost(e.Node, e.Time)
	l.serving.ObserveEvent(e)
	l.ues++
	if i, ok := l.pending[e.Node]; ok {
		// Eq. 4: the UE cost lands on the reward of the preceding
		// decision, exactly as in the offline training environment.
		l.steps[i].reward -= realized * l.cfg.rewardScale
	}
	if l.cfg.ueObserver != nil {
		l.cfg.ueObserver(e.Node, e.Time, realized)
	}
	if l.shadow != nil {
		l.shadow.UE(e.Node, e.Time, realized)
		l.judgeShadow(e.Time)
	}
	if l.probation != nil {
		// Probation charges the realized cost; a regression past
		// tolerance rolls the serving policy back right here.
		l.probation.score.UE(e.Node, e.Time, realized)
		l.judgeProbation(e.Time)
	}
}

// processDecision handles a non-UE event: a decision tick. Caller holds
// l.mu.
func (l *OnlineLearner) processDecision(e Event) {
	d := &l.dec
	normed := false
	if cost := l.cfg.cost(e.Node, e.Time); l.ticker != nil {
		normed = l.ticker.TickInto(d, e, cost, &l.norm)
	} else {
		*d = l.threeCallTick(e, cost)
	}
	if run := l.probation; run != nil {
		// Probation scores the served decision against the replaced
		// incumbent's counterfactual; a decided regression rolls back.
		ref := run.reference.Decide(Snapshot{Node: d.Node, Time: d.Time, Features: d.Features})
		run.score.Decision(d.Node, d.Time, d.Action == ActionMitigate, ref.Action == ActionMitigate)
		l.judgeProbation(d.Time)
	}
	l.decisions++
	if l.cfg.decisionObserver != nil {
		l.cfg.decisionObserver(*d)
	}
	if l.shadow != nil {
		// The candidate decides on the snapshot the incumbent was served
		// from, degraded ones included: the duel scores the traffic the
		// fleet actually saw.
		cd := l.candidate.Decide(Snapshot{Node: e.Node, Time: e.Time, Features: d.Features})
		l.shadow.Decision(e.Node, e.Time, d.Action == ActionMitigate, cd.Action == ActionMitigate)
		l.judgeShadow(e.Time)
	}
	if d.Degraded {
		// The answer came from the empty feature state, not the node's
		// real telemetry: it still serves (and is audited above), but it
		// is not evidence — feeding its zero snapshot to the trainer or
		// the drift detector would teach the lifecycle about the outage,
		// not the fleet. The node's pending transition stays open and
		// completes at its next healthy decision.
		return
	}

	if !normed {
		// The served policy left no normalized input (not the built-in
		// RL policy, or a path without a fused tick): compute it here.
		features.Vector(d.Features).NormalizedInto(l.norm[:])
	}
	i, ok := l.pending[e.Node]
	if ok {
		p := &l.steps[i]
		l.trainer.Ingest(rl.Transition{S: p.state[:], A: p.action, R: p.reward, NextS: l.norm[:]})
		l.sinceRetrain++
	} else {
		i = len(l.steps)
		l.pending[e.Node] = i
		l.steps = append(l.steps, pendingStep{})
	}
	// The node's step is overwritten in place; Ingest copied its state.
	next := &l.steps[i]
	next.state, next.action, next.reward = l.norm, 0, 0
	if d.Action == ActionMitigate {
		next.action = 1
		next.reward = -(l.cfg.mitigationCostNodeMinutes / 60) * l.cfg.rewardScale
	}

	// Drift watches the distribution of observed telemetry, not the
	// poll-time snapshot: the served features read like Recommend's Peek,
	// with zero CEs-since-last-event (no current-tick events), so the
	// per-tick CE rate — the strongest drift signal — is patched back in
	// from the event itself.
	dv := features.Vector(d.Features)
	if e.Type == CorrectedError {
		count := e.Count
		if count <= 0 {
			count = 1
		}
		dv[features.CEsSinceLastEvent] = float64(count)
	}
	if res, ok := l.drift.Observe(dv); ok && res.Drifted {
		l.log.record(LifecycleEvent{
			Kind: LifecycleDrift, Time: e.Time, Generation: l.generation,
			ModelVersion: l.serving.Policy().Version(), Score: res.Score,
			Detail: fmt.Sprintf("feature %d shifted (z=%.1f, window %d)", res.Dim, res.Score, res.Windows),
		})
		if l.candidate == nil && l.sinceRetrain >= l.cfg.minExperience {
			l.retrain(e.Time)
		}
	}
}

// retrain runs one training epoch over the buffered live experience and
// stages the result as a shadow candidate. Caller holds l.mu.
func (l *OnlineLearner) retrain(at time.Time) {
	incumbent := l.serving.Policy()
	if rlp, ok := incumbent.(*rlPolicy); ok {
		// Continual learning: start from the weights currently serving.
		l.trainer.WarmStart(rlp.q.Net())
	}
	res := l.trainer.Epoch()
	l.sinceRetrain = 0
	fail := func(reason string) {
		l.log.record(LifecycleEvent{
			Kind: LifecycleRetrainFailed, Time: at, Generation: l.generation,
			ModelVersion: incumbent.Version(),
			Detail:       fmt.Sprintf("epoch %d staged no candidate: %s", res.Epoch, reason),
		})
	}
	if res.Steps == 0 {
		fail("replay below one batch; waiting for more experience")
		return
	}
	cand, err := newRLPolicy(l.trainer.Network().Clone(), &TrainingInfo{Seed: l.cfg.seed, KernelVersion: nn.KernelFast})
	if err != nil {
		fail(err.Error())
		return
	}
	if cand.Version() == incumbent.Version() {
		fail("retrained weights identical to the incumbent")
		return
	}
	var staged Policy = cand
	if l.cfg.candidateHook != nil {
		if hooked := l.cfg.candidateHook(staged); hooked != nil {
			staged = hooked
		}
	}
	_ = SetModelParent(staged, incumbent.Version())
	l.candidate = staged
	l.shadow = evalx.NewDuel("incumbent", "candidate", shadowConfig(l.cfg.mitigationCostNodeMinutes, l.cfg.restartable))
	l.log.record(LifecycleEvent{
		Kind: LifecycleRetrain, Time: at, Generation: l.generation,
		ModelVersion: staged.Version(), Parent: incumbent.Version(), Score: res.MeanLoss,
		Detail: fmt.Sprintf("epoch %d: %d transitions, %d steps", res.Epoch, res.Drained, res.Steps),
	})
}

// judgeShadow promotes or rejects the candidate once the shadow gate is
// satisfied. Caller holds l.mu.
func (l *OnlineLearner) judgeShadow(at time.Time) {
	inc, cand := l.shadow.Results()
	if cand.Decisions < l.cfg.shadowMinDecisions || cand.UEs < l.cfg.shadowMinUEs {
		return
	}
	advantage := inc.TotalCost() - cand.TotalCost()
	ev := LifecycleEvent{
		Time: at, ModelVersion: l.candidate.Version(),
		Parent: ModelParent(l.candidate), Score: advantage,
		Detail: fmt.Sprintf("shadow over %d decisions / %d UEs: candidate %.1f nh vs incumbent %.1f nh",
			cand.Decisions, cand.UEs, cand.TotalCost(), inc.TotalCost()),
	}
	switch {
	case advantage < 0:
		ev.Kind, ev.Generation = LifecycleReject, l.generation
	case !l.guardApproves(at, advantage, cand.Decisions, cand.UEs):
		// guardApproves already recorded the budget-trip or approval-deny
		// audit event; the discard is recorded here.
		ev.Kind, ev.Generation = LifecycleReject, l.generation
		ev.Detail = "guard blocked promotion: " + ev.Detail
	default:
		incumbent := l.serving.Policy()
		if _, err := l.serving.DeployPolicy(l.candidate); err != nil {
			// The rollout was refused (e.g. a worker quorum rejected the
			// artifact): the incumbent is still serving, so the candidate
			// is discarded as rejected rather than promoted.
			ev.Kind, ev.Generation = LifecycleReject, l.generation
			ev.Detail = "deploy rejected: " + err.Error() + ": " + ev.Detail
			break
		}
		l.generation++
		l.drift.Rebase()
		if l.cfg.guard != nil {
			l.notePromotion(incumbent, l.candidate, at)
		}
		ev.Kind, ev.Generation = LifecyclePromote, l.generation
	}
	l.log.record(ev)
	l.candidate, l.shadow = nil, nil
}

// The rollout stage, live under WithGuard: after the shadow gate a
// candidate passes the guard's promotion budget and approval hook, is
// deployed, and serves on probation against the incumbent it replaced; a
// regression redeploys a retained lineage ancestor. It acts only through
// l.serving, under l.mu.

// retainedCap bounds the rollback registry: the newest ancestors kept
// live for lineage-chain rollback. Older models must be reloaded from
// their SaveModel artifacts.
const retainedCap = 16

// probationRun is one active post-promotion probation window.
type probationRun struct {
	score *evalx.Probation
	// reference is the replaced incumbent, run as the counterfactual.
	reference Policy
	promoted  string
}

// guardApproves runs the promotion gates — the guard's promotion budget,
// then its approval hook — auditing every verdict. Caller holds l.mu; the
// hook may block, during which serving traffic — which never takes l.mu —
// proceeds untouched.
func (l *OnlineLearner) guardApproves(at time.Time, advantage float64, decisions, ues int) bool {
	g := l.cfg.guard
	if g == nil {
		return true
	}
	req := PromotionRequest{
		Candidate:       l.candidate.Version(),
		Incumbent:       l.serving.Policy().Version(),
		Generation:      l.generation,
		Time:            at,
		ShadowAdvantage: advantage,
		ShadowDecisions: decisions,
		ShadowUEs:       ues,
	}
	if !g.allowPromotion(req) {
		l.denied++
		return false
	}
	verdict, reason := g.cfg.hook.Review(req)
	ev := LifecycleEvent{
		Kind: LifecycleApprovalGrant, Time: at, Generation: l.generation,
		ModelVersion: req.Candidate, Parent: req.Incumbent, Score: advantage,
		Detail: "promotion approved: " + reason,
	}
	if verdict != ApprovalApproved {
		l.denied++
		ev.Kind, ev.Detail = LifecycleApprovalDeny, "promotion denied: "+reason
	}
	l.log.record(ev)
	return verdict == ApprovalApproved
}

// notePromotion records an executed promotion: charges the guard's
// promotion budget, retains the replaced incumbent for lineage-chain
// rollback, and opens the probation window. Caller holds l.mu.
func (l *OnlineLearner) notePromotion(incumbent, promoted Policy, at time.Time) {
	g := l.cfg.guard
	g.chargePromotion(at)
	v := incumbent.Version()
	if _, ok := l.retained[v]; !ok {
		l.lineageOrder = append(l.lineageOrder, v)
		if len(l.lineageOrder) > retainedCap {
			delete(l.retained, l.lineageOrder[0])
			l.lineageOrder = l.lineageOrder[1:]
		}
	}
	l.retained[v] = incumbent
	l.parentOf[promoted.Version()] = v
	if g.cfg.probationDecisions > 0 {
		l.probation = &probationRun{
			score: evalx.NewProbation(evalx.ProbationConfig{
				Shadow:             shadowConfig(l.cfg.mitigationCostNodeMinutes, l.cfg.restartable),
				MinDecisions:       g.cfg.probationDecisions,
				ToleranceNodeHours: g.cfg.probationToleranceNH,
			}),
			reference: incumbent,
			promoted:  promoted.Version(),
		}
	}
}

// judgeProbation polls the probation verdict and rolls back (or closes
// the window) once it is decided. Caller holds l.mu.
func (l *OnlineLearner) judgeProbation(at time.Time) {
	run := l.probation
	v := run.score.Verdict()
	if !v.Decided {
		return
	}
	l.probation = nil
	tolerance := l.cfg.guard.cfg.probationToleranceNH
	if !v.Regressed {
		l.probationPasses++
		l.log.record(LifecycleEvent{
			Kind: LifecycleProbationPass, Time: at, Generation: l.generation,
			ModelVersion: run.promoted, Parent: run.reference.Version(), Score: v.MarginNodeHours,
			Detail: fmt.Sprintf("probation passed after %d decisions / %d UEs: margin %+.2f nh within %.2f nh tolerance",
				v.Decisions, v.UEs, v.MarginNodeHours, tolerance),
		})
		return
	}
	// Roll back: walk the serving model's ModelHeader.Parent chain to the
	// nearest retained ancestor and redeploy it.
	cur := l.serving.Policy()
	var target Policy
	for ver := ModelParent(cur); ver != "" && target == nil; ver = l.parentOf[ver] {
		target = l.retained[ver]
	}
	ev := LifecycleEvent{Kind: LifecycleRollback, Time: at, Generation: l.generation, Score: v.MarginNodeHours}
	var err error
	if target == nil {
		// The serving model carries no retained lineage (e.g. an operator
		// swapped mid-probation).
		err = fmt.Errorf("no retained ancestor for %s", cur.Version())
	} else if _, err = l.serving.DeployPolicy(target); err != nil {
		err = fmt.Errorf("deploy of %s rejected: %w", target.Version(), err)
	}
	if err != nil {
		// Keep serving the current model; audit the regression.
		ev.ModelVersion = cur.Version()
		ev.Detail = fmt.Sprintf("rollback aborted: %v (regressed %+.2f nh over %d decisions)",
			err, v.MarginNodeHours, v.Decisions)
	} else {
		l.rollbacks++
		ev.ModelVersion, ev.Parent = target.Version(), ModelParent(target)
		ev.Detail = fmt.Sprintf("promoted %s regressed %+.2f nh over %d decisions / %d UEs (tolerance %.2f nh); rolled back to %s via lineage",
			run.promoted, v.MarginNodeHours, v.Decisions, v.UEs, tolerance, target.Version())
	}
	l.log.record(ev)
}

// Events returns a copy of the lifecycle audit log — under WithGuard the
// log shared with the guard, its events included.
func (l *OnlineLearner) Events() []LifecycleEvent { return l.log.since(0) }

// EventsSince returns a copy of the audit log entries from index n on —
// the incremental form of Events for live tailing. Out-of-range n
// returns nil.
func (l *OnlineLearner) EventsSince(n int) []LifecycleEvent { return l.log.since(n) }

// Stats summarizes the learner's activity.
func (l *OnlineLearner) Stats() LearnerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LearnerStats{
		Decisions:          l.decisions,
		UEs:                l.ues,
		Transitions:        l.trainer.Stream().Pushed(),
		DroppedTransitions: l.trainer.Stream().Dropped(),
		Epochs:             l.trainer.Epochs(),
		Generation:         l.generation,
		ShadowActive:       l.candidate != nil,
		ServingVersion:     l.serving.Policy().Version(),
	}
	if g := l.cfg.guard; g != nil {
		gs := g.Stats()
		gs.DeniedPromotions, gs.Rollbacks = l.denied, l.rollbacks
		gs.ProbationActive, gs.ProbationPasses = l.probation != nil, l.probationPasses
		st.Guard = &gs
	}
	return st
}
