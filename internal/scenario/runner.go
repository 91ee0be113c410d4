package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	uerl "repro"
	"repro/internal/evalx"
	"repro/internal/fleet"
)

// Summary is a scenario run's survival scorecard: how the full serving
// stack — Controller, OnlineLearner, Guard — survived the spec's drift
// and fault schedule. Summaries are deterministic (same spec, identical
// summary, any GOMAXPROCS, race detector on or off) and encode
// canonically, so the named scenarios pin them as golden artifacts.
type Summary struct {
	// Scenario identifies the spec; Seed/Nodes/DurationDays echo its
	// shape so a golden is self-describing.
	Scenario     string  `json:"scenario"`
	Seed         int64   `json:"seed"`
	Nodes        int     `json:"nodes"`
	DurationDays float64 `json:"duration_days"`
	// Guarded reports whether the run had production guardrails.
	Guarded bool `json:"guarded"`
	// InitialVersion is the version serving at event zero.
	InitialVersion string `json:"initial_version"`

	Stream    StreamSummary    `json:"stream"`
	Survival  SurvivalSummary  `json:"survival"`
	Lifecycle LifecycleSummary `json:"lifecycle"`
	// Learner is the stack's own accounting (experience-stream drops,
	// epochs, and — when guarded — GuardStats: vetoes by reason, budget
	// trip/recover transitions, probation outcomes).
	Learner uerl.LearnerStats `json:"learner"`
	// Fleet reports the distributed serving layer's fault arc; nil for
	// single-process scenarios (omitted from their goldens).
	Fleet *FleetSummary `json:"fleet,omitempty"`
}

// FleetSummary scores the distributed serving layer: what the
// coordinator survived (failovers, rejoins, replay traffic), what the
// journal absorbed (dedup, trim), and what degradation the served
// decision stream carried. Degraded/staleness counts come from the
// runner's decision observer — the served stream itself — never from
// Recommend-path coordinator counters, which concurrent probers could
// otherwise perturb.
type FleetSummary struct {
	Workers        int `json:"workers"`
	Failovers      int `json:"failovers"`
	Rejoins        int `json:"rejoins"`
	OrphanNodes    int `json:"orphan_nodes"`
	ReplayedNodes  int `json:"replayed_nodes"`
	ReplayedEvents int `json:"replayed_events"`
	// AckedEvents counts journaled events the current owners confirmed
	// applied (equal to JournalAppended once every node has an owner);
	// the journal counters say what ingestion appended, deduplicated as
	// redelivered, and trimmed past the replay window.
	AckedEvents     uint64 `json:"acked_events"`
	JournalAppended uint64 `json:"journal_appended"`
	JournalDeduped  uint64 `json:"journal_deduped"`
	JournalTrimmed  uint64 `json:"journal_trimmed"`
	// DegradedDecisions counts served decisions answered conservatively
	// because the node's owner couldn't; MaxStaleEvents is the largest
	// staleness bound any served decision carried.
	DegradedDecisions uint64 `json:"degraded_decisions"`
	MaxStaleEvents    int    `json:"max_stale_events"`
	// WorkerStates is the end-of-run health line per worker, id order.
	WorkerStates []WorkerSummary `json:"worker_states"`
}

// WorkerSummary is one worker's end-of-run health line.
type WorkerSummary struct {
	ID         int    `json:"id"`
	State      string `json:"state"`
	OwnedNodes int    `json:"owned_nodes"`
	// ServingVersion is what the worker actually serves (empty when the
	// worker ended unreachable).
	ServingVersion string `json:"serving_version,omitempty"`
	// Vetoes is the worker guard's suppressed-mitigation count. A killed
	// worker's ledger dies with it — a rejoined worker restarts from
	// zero, so these are per-incarnation, not a stream total.
	Vetoes uint64 `json:"vetoes,omitempty"`
}

// StreamSummary describes the compiled event stream the stack was fed.
type StreamSummary struct {
	Events        int `json:"events"`
	GeneratedUEs  int `json:"generated_ues"`
	InjectedUEs   int `json:"injected_ues"`
	Dropped       int `json:"dropped"`
	Delayed       int `json:"delayed"`
	Duplicated    int `json:"duplicated"`
	AttackWindows int `json:"attack_windows"`
}

// SurvivalSummary scores the served decision stream against realized
// outcomes — the metrics that say whether the stack degraded gracefully
// rather than merely whether it ran.
type SurvivalSummary struct {
	// LostNodeHours is the total realized cost (UE + mitigation
	// node-hours) the fleet paid under the serving stack.
	LostNodeHours       float64 `json:"lost_node_hours"`
	UENodeHours         float64 `json:"ue_node_hours"`
	MitigationNodeHours float64 `json:"mitigation_node_hours"`
	Mitigations         int     `json:"mitigations"`
	// Recall is overall served recall; RecallUnderAttack restricts the
	// outcome set to UEs inside injected attack windows (0 when the
	// scenario injects none).
	Recall            float64 `json:"recall"`
	RecallUnderAttack float64 `json:"recall_under_attack"`
	AttackUEs         int     `json:"attack_ues"`
	AttackMitigated   int     `json:"attack_mitigated"`
	// VetoedDecisions counts decisions a tripped budget degraded to
	// ActionNone; VetoedDuringAttack the subset inside attack windows.
	VetoedDecisions    uint64 `json:"vetoed_decisions"`
	VetoedDuringAttack uint64 `json:"vetoed_during_attack"`
	// ContractViolations counts graceful-degradation contract breaches
	// observed on the served stream (always 0 — Run fails otherwise; the
	// field keeps the invariant visible in every golden).
	ContractViolations int `json:"contract_violations"`
}

// LifecycleSummary condenses the audit log.
type LifecycleSummary struct {
	// EventCounts tallies audit events by kind (drift, retrain, promote,
	// budget-trip, budget-recover, rollback, ...).
	EventCounts map[string]int `json:"event_counts"`
	// FinalGeneration and ServingVersion identify where serving landed;
	// Lineage is the served model's version chain, newest first.
	FinalGeneration int      `json:"final_generation"`
	ServingVersion  string   `json:"serving_version"`
	Lineage         []string `json:"lineage"`
	// SwapChurn counts hot swaps of the serving policy (promotions +
	// rollbacks) — the stability metric a thrashing lifecycle fails.
	SwapChurn int `json:"swap_churn"`
}

// RunCompiled executes a compiled scenario, driving the live stack over
// the compiled stream and scoring survival, and honours the run seams
// (Initial, Probe) set on c. It returns an error if the run breaches the
// graceful-degradation contract: serving must never panic, and every
// vetoed decision must serve ActionNone.
func RunCompiled(c *Compiled) (sum Summary, err error) {
	spec := c.Spec
	initial := c.Initial
	if initial == nil {
		if initial, err = initialPolicy(spec.Lifecycle.InitialPolicy); err != nil {
			return Summary{}, err
		}
	}

	// The contract says serving never panics; a panic anywhere in the
	// stack is a scenario failure, not a crash of the harness.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("scenario %q: serving stack panicked: %v", spec.Name, r)
		}
	}()

	// Single-process scenarios serve from one Controller; a Serving
	// section swaps in the distributed fleet behind the same interface.
	var (
		serving uerl.Serving
		coord   *fleet.Coordinator
		tr      *fleet.ChanTransport
		g       *uerl.Guard
	)
	opts := learnerOptions(c)
	if spec.Serving != nil {
		coord, tr, err = buildFleet(c, initial)
		if err != nil {
			return Summary{}, err
		}
		serving = coord
	} else {
		ctl := uerl.NewController(initial)
		serving = ctl
		if gs := spec.Lifecycle.Guard; gs != nil {
			g = uerl.NewGuard(ctl, guardOptions(gs, c)...)
			opts = append(opts, uerl.WithGuard(g))
		}
	}

	shadowCfg := evalx.ShadowConfig{
		MitigationCostNodeHours: c.MitigationCostNodeMinutes / 60,
		Restartable:             c.Restartable,
	}
	// Two scoreboards over the identical served stream: one sees every
	// realized UE, the other only the injected-attack subset — their
	// recalls are the overall and under-attack survival metrics.
	served := evalx.NewShadowEval("served", shadowCfg)
	attack := evalx.NewShadowEval("attack", shadowCfg)
	var (
		mitigations        int
		vetoed             uint64
		vetoedDuringAttack uint64
		violations         int
		degradedDecisions  uint64
		maxStale           int
	)
	opts = append(opts,
		uerl.WithDecisionObserver(func(d uerl.Decision) {
			served.Decision(d.Node, d.Time, d.Mitigate())
			attack.Decision(d.Node, d.Time, d.Mitigate())
			if d.Mitigate() {
				mitigations++
			}
			if d.Vetoed {
				vetoed++
				if c.InAttack(d.Time) {
					vetoedDuringAttack++
				}
				if d.Action != uerl.ActionNone {
					violations++
				}
			}
			// The distributed-serving half of the graceful-degradation
			// contract: a degraded answer is always conservative.
			if d.Degraded {
				degradedDecisions++
				if d.Action != uerl.ActionNone {
					violations++
				}
			}
			if d.StaleEvents > maxStale {
				maxStale = d.StaleEvents
			}
		}),
		uerl.WithUEObserver(func(node int, at time.Time, realized float64) {
			served.UE(node, at, realized)
			if c.InAttack(at) {
				attack.UE(node, at, realized)
			}
		}),
	)
	learner := uerl.NewServingLearner(serving, opts...)

	if c.Probe != nil {
		if stop := c.Probe(serving, learner); stop != nil {
			defer stop()
		}
	}
	// Worker faults strike just before the first event at or after their
	// scheduled time — the interleaving every run reproduces exactly.
	wf := c.WorkerFaults
	for _, e := range c.Events {
		for len(wf) > 0 && !wf[0].At.After(e.Time) {
			applyWorkerFault(tr, wf[0])
			wf = wf[1:]
		}
		learner.Process(e)
	}
	for _, f := range wf {
		applyWorkerFault(tr, f)
	}
	if coord != nil {
		// Settle the fleet: probe downed workers back in and flush every
		// node's journal backlog so the summary scores the recovered
		// steady state, not a mid-failover snapshot.
		coord.Reconcile()
	}

	stats := learner.Stats()
	events := learner.Events()
	if violations > 0 {
		return Summary{}, fmt.Errorf("scenario %q: %d vetoed decisions served an action other than ActionNone", spec.Name, violations)
	}
	if g != nil && stats.Guard != nil && stats.Guard.SuppressedMitigations != vetoed {
		return Summary{}, fmt.Errorf("scenario %q: guard accounted %d suppressed mitigations but the served stream carried %d vetoes",
			spec.Name, stats.Guard.SuppressedMitigations, vetoed)
	}

	servedRes := served.Result()
	attackRes := attack.Result()
	counts := map[string]int{}
	for _, ev := range events {
		counts[string(ev.Kind)]++
	}

	sum = Summary{
		Scenario:       spec.Name,
		Seed:           spec.Seed,
		Nodes:          spec.Fleet.Nodes,
		DurationDays:   spec.DurationDays,
		Guarded:        spec.Lifecycle.Guard != nil,
		InitialVersion: initial.Version(),
		Stream: StreamSummary{
			Events:        len(c.Events),
			GeneratedUEs:  c.GeneratedUEs,
			InjectedUEs:   c.InjectedUEs,
			Dropped:       c.Dropped,
			Delayed:       c.Delayed,
			Duplicated:    c.Duplicated,
			AttackWindows: len(c.AttackWindows),
		},
		Survival: SurvivalSummary{
			LostNodeHours:       round4(servedRes.TotalCost()),
			UENodeHours:         round4(servedRes.UECost),
			MitigationNodeHours: round4(servedRes.MitigationCost),
			Mitigations:         servedRes.Metrics.Mitigations,
			Recall:              round4(servedRes.Metrics.Recall()),
			RecallUnderAttack:   round4(attackRes.Metrics.Recall()),
			AttackUEs:           attackRes.UEs,
			AttackMitigated:     attackRes.Metrics.TPs,
			VetoedDecisions:     vetoed,
			VetoedDuringAttack:  vetoedDuringAttack,
			ContractViolations:  violations,
		},
		Lifecycle: LifecycleSummary{
			EventCounts:     counts,
			FinalGeneration: stats.Generation,
			ServingVersion:  stats.ServingVersion,
			Lineage:         lineageChain(initial.Version(), stats.ServingVersion, events),
			SwapChurn:       counts[string(uerl.LifecyclePromote)] + counts[string(uerl.LifecycleRollback)],
		},
		Learner: stats,
	}
	if coord != nil {
		sum.Fleet = fleetSummary(coord, spec.Serving.Workers, degradedDecisions, maxStale)
	}
	return sum, nil
}

// fleetSummary condenses the coordinator's end-of-run stats plus the
// served stream's degradation accounting into the summary section.
func fleetSummary(coord *fleet.Coordinator, workers int, degraded uint64, maxStale int) *FleetSummary {
	st := coord.Stats()
	fs := &FleetSummary{
		Workers:           workers,
		Failovers:         st.Failovers,
		Rejoins:           st.Rejoins,
		OrphanNodes:       st.OrphanNodes,
		ReplayedNodes:     st.ReplayedNodes,
		ReplayedEvents:    st.ReplayedEvents,
		AckedEvents:       st.AckedEvents,
		JournalAppended:   st.Journal.Appended,
		JournalDeduped:    st.Journal.Deduped,
		JournalTrimmed:    st.Journal.Trimmed,
		DegradedDecisions: degraded,
		MaxStaleEvents:    maxStale,
	}
	for _, w := range st.Workers {
		ws := WorkerSummary{ID: w.ID, State: string(w.State), OwnedNodes: w.OwnedNodes}
		if w.Stats != nil {
			ws.ServingVersion = w.Stats.ServingVersion
			if w.Stats.Guard != nil {
				ws.Vetoes = w.Stats.Guard.SuppressedMitigations
			}
		}
		fs.WorkerStates = append(fs.WorkerStates, ws)
	}
	return fs
}

// buildFleet lowers the serving section to an in-process fleet. A
// GuardSpec lowers to per-worker guards enforcing its budgets over the
// nodes each worker owns — a failover hands a node to a guard with no
// memory of the previous owner's spend, so the budget is an owner-local
// safety net, not a global ledger.
func buildFleet(c *Compiled, initial uerl.Policy) (*fleet.Coordinator, *fleet.ChanTransport, error) {
	spec := c.Spec
	sv := spec.Serving
	cfg := fleet.Config{
		Workers:          sv.Workers,
		Seed:             spec.Seed,
		Initial:          initial,
		JournalCapacity:  sv.JournalCapacity,
		DedupWindow:      time.Duration(sv.DedupWindowSeconds * float64(time.Second)),
		FailureThreshold: sv.FailureThreshold,
		RetryBackoff:     time.Duration(sv.RetryBackoffSeconds * float64(time.Second)),
	}
	if gs := spec.Lifecycle.Guard; gs != nil {
		guardOpts := guardOptions(gs, c)
		cfg.NewWorker = func(id int) *fleet.Worker {
			return fleet.NewWorker(id, initial, fleet.WithWorkerGuard(guardOpts...))
		}
	}
	return fleet.NewInProcess(cfg)
}

// applyWorkerFault drives one compiled serving-layer fault into the
// transport's fault injector.
func applyWorkerFault(tr *fleet.ChanTransport, f WorkerFault) {
	switch f.Kind {
	case WorkerKill:
		tr.Kill(f.Worker)
	case WorkerHang:
		tr.Hang(f.Worker)
	case WorkerRejoin:
		tr.Rejoin(f.Worker)
	}
}

// EncodeSummary renders the summary canonically: two-space indented JSON
// with sorted map keys and a trailing newline — the golden artifact
// format. Byte-identical summaries mean byte-identical goldens.
func EncodeSummary(s Summary) ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding summary: %w", err)
	}
	return append(data, '\n'), nil
}

// initialPolicy resolves the spec's starting policy.
func initialPolicy(kind string) (uerl.Policy, error) {
	switch kind {
	case "", "always":
		return uerl.AlwaysPolicy(), nil
	case "never":
		return uerl.NeverPolicy(), nil
	}
	return nil, fmt.Errorf("scenario: unknown initial policy %q", kind)
}

// learnerOptions lowers the lifecycle spec to learner options.
func learnerOptions(c *Compiled) []uerl.LearnerOption {
	spec := c.Spec
	l := spec.Lifecycle
	driftThreshold := l.DriftThreshold
	if driftThreshold == 0 {
		driftThreshold = 8
	}
	shadowUEs := 1
	if l.ShadowUEs != nil {
		shadowUEs = *l.ShadowUEs
	}
	opts := []uerl.LearnerOption{
		uerl.WithLearnerSeed(spec.Seed),
		uerl.WithCostSource(c.Cost),
		uerl.WithLearnerMitigationCost(c.MitigationCostNodeMinutes),
		uerl.WithLearnerRestartable(c.Restartable),
		uerl.WithDriftDetection(driftThreshold, orDefault(l.DriftWindow, 256)),
		uerl.WithRetraining(orDefault(l.RetrainMin, 256), orDefault(l.EpochSteps, 64)),
		uerl.WithShadowGate(orDefault(l.ShadowDecisions, 128), shadowUEs),
	}
	if l.ExperienceCapacity > 0 {
		opts = append(opts, uerl.WithExperienceCapacity(l.ExperienceCapacity))
	}
	return opts
}

// guardOptions lowers a GuardSpec to guard options, for the
// single-process guard and for every fleet worker's guard alike. The
// promotion budget, approval hook and probation lowered here configure
// the rollout of the learner that adopts a single-process guard; a worker
// guard only meters mitigations, so they are inert there — which is why
// Validate rejects setting them beside a Serving section.
func guardOptions(gs *GuardSpec, c *Compiled) []uerl.GuardOption {
	hook := uerl.AutoApprove()
	if gs.Approve == "deny" {
		hook = uerl.DenyPromotions("scenario promotion freeze")
	}
	tol := 5.0
	if gs.ProbationToleranceNH != nil {
		tol = *gs.ProbationToleranceNH
	}
	return []uerl.GuardOption{
		uerl.WithNodeCheckpointBudget(gs.NodeBudgetNodeHours, hours(gs.NodeWindowHours, 24*time.Hour)),
		uerl.WithFleetMitigationBudget(gs.FleetMitigations, hours(gs.FleetWindowHours, time.Hour)),
		uerl.WithPromotionBudget(gs.PromotionsPerDay),
		uerl.WithApprovalHook(hook),
		uerl.WithProbation(orDefault(gs.ProbationDecisions, 4096), tol),
		uerl.WithGuardMitigationCost(c.MitigationCostNodeMinutes),
		uerl.WithGuardRestartable(c.Restartable),
	}
}

// orDefault substitutes def for a zero spec field.
func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// hours converts a spec hour count to a duration, def when zero.
func hours(h float64, def time.Duration) time.Duration {
	if h == 0 {
		return def
	}
	return time.Duration(h * float64(time.Hour))
}

// round4 rounds to 4 decimals: node-hour totals and recall ratios stay
// readable in goldens without losing the regression signal.
func round4(v float64) float64 {
	return math.Round(v*1e4) / 1e4
}

// lineageChain reconstructs the served model's version chain, newest
// first, from the Parent links the audit log recorded — after a rollback
// it ends where serving actually landed, not at the last promotion.
func lineageChain(initial, serving string, events []uerl.LifecycleEvent) []string {
	parent := map[string]string{}
	for _, ev := range events {
		if ev.ModelVersion != "" && ev.Parent != "" {
			parent[ev.ModelVersion] = ev.Parent
		}
	}
	chain := []string{}
	seen := map[string]bool{}
	for v := serving; v != "" && !seen[v]; v = parent[v] {
		chain = append(chain, v)
		seen[v] = true
	}
	if len(chain) == 0 || chain[len(chain)-1] != initial {
		chain = append(chain, initial)
	}
	return chain
}
