package uerl

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/guard"
	"repro/internal/nn"
)

// ceStream builds a deterministic CE-only telemetry stream in phases:
// each phase is {events, baseCount}, 30 seconds apart round-robin across
// nodes. No UEs — the adversarial burst is injected separately.
func ceStream(nodes int, phases ...[2]int) []Event {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var evs []Event
	i := 0
	for _, ph := range phases {
		for k := 0; k < ph[0]; k++ {
			evs = append(evs, Event{
				Time: base.Add(time.Duration(i) * 30 * time.Second),
				Node: i % nodes, DIMM: i % nodes, Type: CorrectedError,
				Count: ph[1] + i%3, Rank: 0, Bank: 1, Row: i % 7, Col: 3,
			})
			i++
		}
	}
	return evs
}

// ueBurst is the injected adversarial burst: n realized UEs striking
// round-robin across nodes, starting at start, 30 seconds apart.
func ueBurst(nodes int, start time.Time, n int) []Event {
	evs := make([]Event, 0, n)
	for k := 0; k < n; k++ {
		evs = append(evs, Event{
			Time: start.Add(time.Duration(k) * 30 * time.Second),
			Node: k % nodes, DIMM: k % nodes, Type: UncorrectedError,
			Count: 1, Rank: -1, Bank: -1, Row: -1, Col: -1,
		})
	}
	return evs
}

// neverMitigateRL hand-builds a deliberately regressive RL policy: a
// zero-weight network whose output bias fixes Q(none) = bias > 0 =
// Q(mitigate), so it never mitigates regardless of input. Distinct bias
// values produce distinct content-addressed versions.
func neverMitigateRL(t testing.TB, bias float64) Policy {
	t.Helper()
	net := nn.New(nn.Config{Inputs: features.Dim, Outputs: 2, Dueling: false, Seed: 1})
	var outBias *nn.Param
	for _, p := range net.Params() {
		for i := range p.W {
			p.W[i] = 0
		}
		if len(p.W) == 2 {
			outBias = p
		}
	}
	if outBias == nil {
		t.Fatal("no 2-wide output bias param found")
	}
	outBias.W[0] = bias
	p, err := newRLPolicy(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Decide(sampleSnapshots()[15]); d.Mitigate() {
		t.Fatal("never-mitigate policy mitigated")
	}
	return p
}

// regressiveCandidateHook substitutes every staged candidate with a
// fresh never-mitigate policy (distinct version per retrain) — the
// fault-injection seam driving the guard scenarios.
func regressiveCandidateHook(t testing.TB) func(Policy) Policy {
	calls := 0
	return func(Policy) Policy {
		calls++
		return neverMitigateRL(t, float64(calls))
	}
}

// newGuardedLearner wires AlwaysPolicy serving + guard + learner with
// the regressive-candidate injection and a shadow gate weakened to
// minUEs=0 — exactly the configuration the guard exists to protect: on
// a UE-free window, a never-mitigate candidate wins shadow on spend
// alone.
func newGuardedLearner(t testing.TB, gopts []GuardOption, extra ...LearnerOption) (*OnlineLearner, *Guard) {
	ctl := NewController(AlwaysPolicy())
	g := NewGuard(ctl, gopts...)
	opts := []LearnerOption{
		WithGuard(g),
		WithLearnerSeed(5),
		WithCostSource(ConstantCost(100)),
		WithDriftDetection(8, 128),
		WithRetraining(128, 32),
		WithShadowGate(64, 0),
		WithExperienceCapacity(4096),
		withCandidateHook(regressiveCandidateHook(t)),
	}
	l := NewServingLearner(ctl, append(opts, extra...)...)
	return l, g
}

func kinds(evs []LifecycleEvent) map[LifecycleEventKind]int {
	m := map[LifecycleEventKind]int{}
	for _, ev := range evs {
		m[ev.Kind]++
	}
	return m
}

func findEvent(evs []LifecycleEvent, kind LifecycleEventKind) (LifecycleEvent, bool) {
	for _, ev := range evs {
		if ev.Kind == kind {
			return ev, true
		}
	}
	return LifecycleEvent{}, false
}

// A tripped node checkpoint budget must degrade Recommend to ActionNone
// (never block or error), audit the trip exactly once per crossing, and
// let mitigation resume when the window slides.
func TestGuardNodeBudgetVetoAndRecovery(t *testing.T) {
	ctl := NewController(AlwaysPolicy())
	g := NewGuard(ctl,
		// 0.1 node-hours per hour at 2 node-minutes per mitigation: the
		// budget admits exactly 3 mitigations per window.
		WithNodeCheckpointBudget(0.1, time.Hour),
		WithProbation(0, 0),
	)
	l := NewServingLearner(ctl, WithGuard(g), WithDriftDetection(1e9, 128))

	stream := ceStream(1, [2]int{10, 1})
	processAll(l, stream)

	st := g.Stats()
	if st.SuppressedMitigations != 7 {
		t.Fatalf("suppressed %d mitigations, want 7 (3 within budget): %+v", st.SuppressedMitigations, st)
	}
	if st.BudgetTrips != 1 {
		t.Fatalf("budget trips = %d, want exactly 1 per crossing: %+v", st.BudgetTrips, st)
	}
	// The veto is visible on the decision itself, and Recommend never
	// errors or blocks — it serves ActionNone with the policy's judgment
	// intact.
	at := stream[len(stream)-1].Time
	d := ctl.Recommend(0, at, 100)
	if !d.Vetoed || d.Action != ActionNone || d.VetoReason != guard.ReasonNodeBudget {
		t.Fatalf("tripped-budget decision = %+v", d)
	}

	// The trip landed in the learner's merged audit log, once.
	evs := l.Events()
	trip, ok := findEvent(evs, LifecycleBudgetTrip)
	if !ok || kinds(evs)[LifecycleBudgetTrip] != 1 {
		t.Fatalf("want exactly one budget-trip audit event, got %+v", evs)
	}
	if !strings.Contains(trip.Detail, "node 0 checkpoint budget") {
		t.Fatalf("trip detail = %q", trip.Detail)
	}

	// An hour later the window has slid: mitigation resumes.
	later := at.Add(2 * time.Hour)
	l.Process(Event{Time: later, Node: 0, DIMM: 0, Type: CorrectedError, Count: 1, Rank: 0, Bank: 1, Row: 0, Col: 3})
	if d := ctl.Recommend(0, later.Add(time.Second), 100); d.Vetoed {
		t.Fatalf("budget did not recover after the window slid: %+v", d)
	}
	// ...and the next crossing audits again.
	for i := 0; i < 6; i++ {
		l.Process(Event{Time: later.Add(time.Duration(i+1) * 30 * time.Second), Node: 0, DIMM: 0,
			Type: CorrectedError, Count: 1, Rank: 0, Bank: 1, Row: 0, Col: 3})
	}
	if got := kinds(l.Events())[LifecycleBudgetTrip]; got != 2 {
		t.Fatalf("second crossing recorded %d trip events, want 2 total", got)
	}
}

// The fleet-wide mitigation-rate budget vetoes across nodes.
func TestGuardFleetBudgetVeto(t *testing.T) {
	ctl := NewController(AlwaysPolicy())
	g := NewGuard(ctl, WithFleetMitigationBudget(2, time.Hour), WithProbation(0, 0))
	l := NewServingLearner(ctl, WithGuard(g), WithDriftDetection(1e9, 128))

	stream := ceStream(4, [2]int{8, 1})
	processAll(l, stream)
	st := g.Stats()
	if st.SuppressedMitigations != 6 || st.BudgetTrips != 1 {
		t.Fatalf("fleet budget: suppressed=%d trips=%d, want 6/1", st.SuppressedMitigations, st.BudgetTrips)
	}
	d := ctl.Recommend(3, stream[len(stream)-1].Time, 100)
	if !d.Vetoed || d.VetoReason != guard.ReasonFleetBudget {
		t.Fatalf("fleet veto decision = %+v", d)
	}
}

// A standalone guard's budget audit: each node and fleet budget crossing
// records one trip event, the next served mitigation one recovery event
// per tripped budget, and further vetoes or mitigations record nothing.
// Every Kind, Score and Detail is pinned.
func TestGuardBudgetAuditPinned(t *testing.T) {
	ctl := NewController(AlwaysPolicy())
	// 0.1 node-hours per hour at 2 node-minutes per mitigation admits 3
	// mitigations per node; the fleet admits 6.
	g := NewGuard(ctl, WithNodeCheckpointBudget(0.1, time.Hour),
		WithFleetMitigationBudget(6, time.Hour), WithProbation(0, 0))
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	tick := func(node int, at time.Time) (d Decision) {
		var norm [FeatureDim]float64
		ctl.TickInto(&d, Event{Time: at, Node: node, DIMM: 0, Type: CorrectedError,
			Count: 1, Rank: 0, Bank: 1, Row: 0, Col: 3}, 100, &norm)
		return d
	}
	// Node 0: three mitigations, then two node-budget vetoes.
	for i := 0; i < 5; i++ {
		d := tick(0, t0.Add(time.Duration(i)*30*time.Second))
		if want := i >= 3; d.Vetoed != want || (want && d.VetoReason != guard.ReasonNodeBudget) {
			t.Fatalf("node 0 tick %d: %+v", i, d)
		}
	}
	// Nodes 1-3 fill the fleet budget; nodes 4 and 5 are vetoed by it.
	for n := 1; n <= 5; n++ {
		d := tick(n, t0.Add(10*time.Minute+time.Duration(n)*time.Second))
		if want := n >= 4; d.Vetoed != want || (want && d.VetoReason != guard.ReasonFleetBudget) {
			t.Fatalf("node %d tick: %+v", n, d)
		}
	}
	// Two hours on, node 0 mitigates again: both budgets recover, once.
	for i := 0; i < 2; i++ {
		if d := tick(0, t0.Add(2*time.Hour+time.Duration(i)*time.Minute)); d.Vetoed {
			t.Fatalf("node 0 after the windows slid: %+v", d)
		}
	}

	want := []LifecycleEvent{
		{Kind: LifecycleBudgetTrip, Time: t0.Add(90 * time.Second), ModelVersion: "always.v1", Score: 0.1,
			Detail: "node 0 checkpoint budget tripped: 0.100 nh in sliding 1h0m0s (limit 0.100 nh); mitigation suppressed"},
		{Kind: LifecycleBudgetTrip, Time: t0.Add(10*time.Minute + 4*time.Second), ModelVersion: "always.v1", Score: 6,
			Detail: "fleet mitigation budget tripped: 6 mitigations in sliding 1h0m0s (limit 6); mitigation suppressed"},
		{Kind: LifecycleBudgetRecover, Time: t0.Add(2 * time.Hour), ModelVersion: "always.v1", Score: 0.03333333333333333,
			Detail: "node 0 checkpoint budget recovered: 0.033 nh in sliding 1h0m0s (limit 0.100 nh); mitigation resumed"},
		{Kind: LifecycleBudgetRecover, Time: t0.Add(2 * time.Hour), ModelVersion: "always.v1", Score: 1,
			Detail: "fleet mitigation budget recovered: 1 mitigations in sliding 1h0m0s (limit 6); mitigation resumed"},
	}
	if got := g.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("budget audit:\n got %#v\nwant %#v", got, want)
	}
	st := g.Stats()
	if st.SuppressedMitigations != 4 || st.BudgetTrips != 2 || st.BudgetRecoveries != 2 {
		t.Fatalf("guard stats = %+v, want 4 suppressed, 2 trips, 2 recoveries", st)
	}
}

// The guard's Recommend-path budget consult must add zero heap
// allocations once a node's budget window exists — vetoing included, so
// the controller's zero-alloc hot-path contract survives guarding.
func TestGuardRecommendNoAllocs(t *testing.T) {
	at := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	base := NewController(AlwaysPolicy())
	guarded := NewController(AlwaysPolicy())
	g := NewGuard(guarded, WithNodeCheckpointBudget(1e-9, time.Hour), WithProbation(0, 0))
	base.Recommend(0, at, 50)
	guarded.Recommend(0, at, 50) // warm-up: creates the node's budget window
	if d := guarded.Recommend(0, at, 50); !d.Vetoed {
		t.Fatalf("zero budget did not veto: %+v", d)
	}
	// The consult itself is allocation-free...
	if allocs := testing.AllocsPerRun(200, func() {
		g.allowMitigation(0, at.Add(time.Minute))
	}); allocs != 0 {
		t.Fatalf("budget consult allocates %.1f per op, want 0", allocs)
	}
	// ...so a guarded Recommend allocates exactly what an unguarded one
	// does on the same policy.
	unguardedAllocs := testing.AllocsPerRun(200, func() {
		base.Recommend(0, at.Add(time.Minute), 50)
	})
	guardedAllocs := testing.AllocsPerRun(200, func() {
		guarded.Recommend(0, at.Add(time.Minute), 50)
	})
	if guardedAllocs > unguardedAllocs {
		t.Fatalf("guard added allocations to Recommend: %.1f -> %.1f per op", unguardedAllocs, guardedAllocs)
	}
}

// Scenario 1 of the fault-injection e2e: the second shadow-winning
// regressive candidate is frozen by the tripped promotion budget, with a
// budget-trip audit event and a learner reject.
func TestGuardPromotionBudgetFreezes(t *testing.T) {
	l, _ := newGuardedLearner(t, []GuardOption{WithPromotionBudget(1), WithProbation(128, 5)})
	ctl := l.serving.(*Controller)
	// Two distribution steps: each triggers drift → retrain → an injected
	// never-mitigate candidate that wins the weakened shadow gate on the
	// UE-free window. The budget admits only the first promotion.
	processAll(l, ceStream(8, [2]int{600, 1}, [2]int{500, 40}, [2]int{500, 120}))

	st := l.Stats()
	if st.Generation != 1 {
		t.Fatalf("generation = %d, want exactly 1 (second promotion frozen): %+v\nevents: %+v",
			st.Generation, st, l.Events())
	}
	if st.Guard == nil || st.Guard.Promotions != 1 || st.Guard.DeniedPromotions < 1 {
		t.Fatalf("guard stats = %+v, want 1 promotion and >=1 denial", st.Guard)
	}

	evs := l.Events()
	k := kinds(evs)
	if k[LifecycleApprovalGrant] != 1 {
		t.Fatalf("approval-grant events = %d, want 1: %+v", k[LifecycleApprovalGrant], evs)
	}
	trip, ok := findEvent(evs, LifecycleBudgetTrip)
	if !ok || !strings.Contains(trip.Detail, "promotion budget tripped") {
		t.Fatalf("no promotion budget-trip audit event: %+v", evs)
	}
	// The learner's own log records the discard, attributed to the guard.
	var blocked bool
	for _, ev := range evs {
		if ev.Kind == LifecycleReject && strings.Contains(ev.Detail, "guard blocked promotion") {
			blocked = true
		}
	}
	if !blocked {
		t.Fatalf("no guard-blocked reject event: %+v", evs)
	}
	// The quiet post-promotion window passed probation (the regression
	// only shows under an adversarial burst — see the rollback test).
	if _, ok := findEvent(evs, LifecycleProbationPass); !ok {
		t.Fatalf("no probation-pass event: %+v", evs)
	}
	if got := ctl.Policy().Version(); got != trip.Parent && ModelParent(ctl.Policy()) == "" {
		t.Fatalf("serving model %q lost lineage", got)
	}
}

// Scenario 2: a denying approval hook blocks the promotion outright,
// with an approval-deny audit event carrying the hook's reason.
func TestGuardApprovalDenyBlocks(t *testing.T) {
	l, g := newGuardedLearner(t, []GuardOption{WithApprovalHook(DenyPromotions("change freeze CHG-42"))})
	ctl := l.serving.(*Controller)
	before := ctl.Policy().Version()
	processAll(l, ceStream(8, [2]int{600, 1}, [2]int{800, 40}))

	if st := l.Stats(); st.Generation != 0 {
		t.Fatalf("denied promotion still executed: %+v", st)
	}
	if got := ctl.Policy().Version(); got != before {
		t.Fatalf("serving policy changed despite denial: %q -> %q", before, got)
	}
	deny, ok := findEvent(l.Events(), LifecycleApprovalDeny)
	if !ok || !strings.Contains(deny.Detail, "change freeze CHG-42") {
		t.Fatalf("no approval-deny audit event with the hook's reason: %+v", l.Events())
	}
	if st := l.Stats().Guard; st.DeniedPromotions < 1 || st.Promotions != 0 || st.Rollbacks != 0 {
		t.Fatalf("guard stats after denial: %+v", st)
	}
	if st := g.Stats(); st.Promotions != 0 {
		t.Fatalf("guard charged a denied promotion: %+v", st)
	}
}

// Scenario 3, the tentpole e2e: with both gates opened, the injected
// regressive candidate is promoted off a quiet shadow window — then an
// adversarial UE burst lands, probation detects the regression, and the
// guard rolls the serving policy back along the ModelHeader.Parent
// lineage chain to the retained incumbent. Serving traffic hammers the
// controller throughout (run under -race in CI) and must never block.
func TestGuardRollbackOnRegression(t *testing.T) {
	// A probation window far longer than the stream keeps it open until
	// the burst; the 5 nh tolerance is dwarfed by one 100 nh missed UE.
	// The 700-transition retrain floor admits exactly one retrain, so the
	// injected regressive candidate is the only promotion of the run.
	l, g := newGuardedLearner(t, []GuardOption{WithProbation(1<<20, 5)}, WithRetraining(700, 32))
	ctl := l.serving.(*Controller)
	incumbentVersion := ctl.Policy().Version()

	stream := ceStream(8, [2]int{600, 1}, [2]int{800, 40})
	burst := ueBurst(8, stream[len(stream)-1].Time.Add(5*time.Minute), 8)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			at := stream[0].Time
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := ctl.Recommend((w+i)%8, at.Add(time.Duration(i)*time.Second), 50)
				if d.ModelVersion == "" || d.Policy == "" {
					t.Error("decision with empty identity during guarded lifecycle")
					return
				}
			}
		}(w)
	}

	processAll(l, stream)

	// The regressive candidate is serving and on probation.
	promoted := ctl.Policy()
	if l.Stats().Generation != 1 || promoted.Kind() != PolicyRL {
		t.Fatalf("injected candidate not promoted: %+v\nevents: %+v", l.Stats(), l.Events())
	}
	if ModelParent(promoted) != incumbentVersion {
		t.Fatalf("promoted lineage parent = %q, want %q", ModelParent(promoted), incumbentVersion)
	}
	if st := l.Stats().Guard; !st.ProbationActive {
		t.Fatalf("probation not active after promotion: %+v", st)
	}

	// The adversarial burst: UEs the incumbent would have caught.
	processAll(l, burst)
	close(stop)
	wg.Wait()

	// Rolled back to the incumbent via the lineage chain.
	if got := ctl.Policy().Version(); got != incumbentVersion {
		t.Fatalf("serving %q after burst, want rollback to %q\nevents: %+v", got, incumbentVersion, l.Events())
	}
	st := l.Stats().Guard
	if st.Rollbacks != 1 || st.ProbationActive {
		t.Fatalf("guard stats after rollback: %+v", st)
	}
	// The guard and the learner report the same budget counters; only the
	// rollout counters are the learner's own.
	budgets := *st
	budgets.DeniedPromotions, budgets.Rollbacks = 0, 0
	budgets.ProbationActive, budgets.ProbationPasses = false, 0
	if gs := g.Stats(); !reflect.DeepEqual(gs, budgets) {
		t.Fatalf("guard budget stats %+v disagree with the learner's %+v", gs, *st)
	}
	rb, ok := findEvent(l.Events(), LifecycleRollback)
	if !ok {
		t.Fatalf("no rollback audit event: %+v", l.Events())
	}
	if rb.ModelVersion != incumbentVersion || !strings.Contains(rb.Detail, promoted.Version()) {
		t.Fatalf("rollback event = %+v, want target %q naming %q", rb, incumbentVersion, promoted.Version())
	}
	// Full audit trail in causal order: promote before rollback.
	evs := l.Events()
	k := kinds(evs)
	for _, kind := range []LifecycleEventKind{LifecycleDrift, LifecycleRetrain, LifecycleApprovalGrant, LifecyclePromote, LifecycleRollback} {
		if k[kind] == 0 {
			t.Fatalf("audit log missing %q: %+v", kind, evs)
		}
	}
	var pi, ri int = -1, -1
	for i, ev := range evs {
		switch ev.Kind {
		case LifecyclePromote:
			if pi < 0 {
				pi = i
			}
		case LifecycleRollback:
			ri = i
		}
	}
	if !(pi >= 0 && ri > pi) {
		t.Fatalf("rollback (%d) not after promote (%d)", ri, pi)
	}
}

// The guarded lifecycle stays bit-reproducible: identical seed, stream
// and burst reproduce the same audit log and stats.
func TestGuardLifecycleDeterministic(t *testing.T) {
	run := func() ([]LifecycleEvent, LearnerStats) {
		l, _ := newGuardedLearner(t, []GuardOption{WithProbation(1<<20, 5)}, WithRetraining(700, 32))
		stream := ceStream(8, [2]int{600, 1}, [2]int{800, 40})
		processAll(l, stream)
		processAll(l, ueBurst(8, stream[len(stream)-1].Time.Add(5*time.Minute), 8))
		return l.Events(), l.Stats()
	}
	ev1, st1 := run()
	ev2, st2 := run()
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("guarded lifecycle events differ across identical runs:\n%+v\nvs\n%+v", ev1, ev2)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("guarded lifecycle stats differ across identical runs:\n%+v\nvs\n%+v", st1, st2)
	}
	if kinds(ev1)[LifecycleRollback] != 1 {
		t.Fatalf("deterministic run missing the rollback: %+v", ev1)
	}
}

// ApprovalCallback: timeout and error both default-deny; an answered
// approval goes through.
func TestApprovalCallbackDefaults(t *testing.T) {
	req := PromotionRequest{Candidate: "rl.v1.cafe", Time: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}

	hook := ApprovalCallback(10*time.Millisecond, func(PromotionRequest) (bool, error) {
		time.Sleep(200 * time.Millisecond)
		return true, nil
	})
	if v, reason := hook.Review(req); v != ApprovalDenied || !strings.Contains(reason, "timed out") {
		t.Fatalf("timeout verdict = %v %q, want default deny", v, reason)
	}

	hook = ApprovalCallback(time.Second, func(PromotionRequest) (bool, error) {
		return false, errors.New("pager unreachable")
	})
	if v, reason := hook.Review(req); v != ApprovalDenied || !strings.Contains(reason, "pager unreachable") {
		t.Fatalf("error verdict = %v %q, want deny with cause", v, reason)
	}

	hook = ApprovalCallback(time.Second, func(r PromotionRequest) (bool, error) {
		return r.Candidate == "rl.v1.cafe", nil
	})
	if v, _ := hook.Review(req); v != ApprovalApproved {
		t.Fatalf("answered approval denied")
	}
}

// Every audit-log accessor returns a defensive copy — mutating the
// returned slice must not corrupt the log — and learner and guard read
// one shared trail.
func TestAuditLogAccessorsDefensiveCopies(t *testing.T) {
	l, g := newGuardedLearner(t, []GuardOption{WithApprovalHook(DenyPromotions("freeze"))})
	processAll(l, ceStream(8, [2]int{600, 1}, [2]int{800, 40}))

	evs := l.Events()
	if len(evs) == 0 {
		t.Fatal("no events to test against")
	}
	evs[0].Detail = "tampered"
	evs[0].Kind = "tampered"
	if got := l.Events()[0]; got.Detail == "tampered" || got.Kind == "tampered" {
		t.Fatal("Events() returned a live reference to the audit log")
	}

	since := l.EventsSince(1)
	if len(since) != len(evs)-1 {
		t.Fatalf("EventsSince(1) returned %d events, want %d", len(since), len(evs)-1)
	}
	since[0].Detail = "tampered"
	if got := l.EventsSince(1)[0]; got.Detail == "tampered" {
		t.Fatal("EventsSince() returned a live reference to the audit log")
	}
	if l.EventsSince(len(evs)+5) != nil || l.EventsSince(-1) != nil {
		t.Fatal("out-of-range EventsSince did not return nil")
	}

	gevs := g.Events()
	if !reflect.DeepEqual(gevs, l.Events()) {
		t.Fatalf("guard and learner audit logs differ:\nguard:   %+v\nlearner: %+v", gevs, l.Events())
	}
	gevs[0].Detail = "tampered"
	if got := g.Events()[0]; got.Detail == "tampered" {
		t.Fatal("Guard.Events() returned a live reference to the audit log")
	}
}

// Concurrent readers of every accessor race against a live lifecycle
// (meaningful under -race).
func TestGuardAccessorsConcurrent(t *testing.T) {
	l, g := newGuardedLearner(t, []GuardOption{WithProbation(1<<20, 5)}, WithRetraining(700, 32))
	stream := ceStream(8, [2]int{600, 1}, [2]int{800, 40})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = l.Events()
				_ = l.EventsSince(2)
				_ = l.Stats()
				_ = g.Events()
				_ = g.Stats()
			}
		}()
	}
	processAll(l, stream)
	processAll(l, ueBurst(8, stream[len(stream)-1].Time.Add(5*time.Minute), 8))
	close(stop)
	wg.Wait()
}

// Guard wiring misuse fails fast.
func TestGuardWiringPanics(t *testing.T) {
	ctl := NewController(NeverPolicy())
	NewGuard(ctl)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second NewGuard on the same controller did not panic")
			}
		}()
		NewGuard(ctl)
	}()

	other := NewController(NeverPolicy())
	g2 := NewGuard(other)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("WithGuard with a foreign controller did not panic")
			}
		}()
		NewServingLearner(ctl, WithGuard(g2))
	}()

	// The paper's two user parameters must agree between learner and
	// guard: both score the same node-hour comparison.
	for _, tc := range []struct {
		name  string
		gopts []GuardOption
		lopts []LearnerOption
	}{
		{"mitigation cost", []GuardOption{WithGuardMitigationCost(5)}, []LearnerOption{WithLearnerMitigationCost(2)}},
		{"restartable", []GuardOption{WithGuardRestartable(false)}, []LearnerOption{WithLearnerRestartable(true)}},
	} {
		c := NewController(NeverPolicy())
		g := NewGuard(c, tc.gopts...)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithGuard with a mismatched %s did not panic", tc.name)
				}
			}()
			NewServingLearner(c, append(tc.lopts, WithGuard(g))...)
		}()
	}
}

// A guarded learner is inert on kinds it cannot roll back past: a
// probation regression with no retained ancestor keeps serving and
// audits the abort instead of panicking.
func TestGuardRollbackWithoutLineageAudits(t *testing.T) {
	ctl := NewController(AlwaysPolicy())
	g := NewGuard(ctl, WithProbation(1<<20, 5))
	l := NewServingLearner(ctl, WithGuard(g), WithDriftDetection(1e9, 128))
	base := time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)

	// Fake a promotion the learner saw, then hot-swap a policy with no
	// lineage behind the learner's back (an operator override), then
	// regress: the Parent chain dead-ends.
	l.notePromotion(ctl.Policy(), neverMitigateRL(t, 1), base)
	ctl.SwapPolicy(NeverPolicy())
	l.Process(Event{Time: base.Add(time.Minute), Node: 0, DIMM: 0, Type: CorrectedError, Count: 1, Rank: 0, Bank: 1, Row: 0, Col: 3})
	l.Process(Event{Time: base.Add(10 * time.Minute), Node: 0, DIMM: 0, Type: UncorrectedError, Count: 1, Rank: -1, Bank: -1, Row: -1, Col: -1})

	if got := ctl.Policy().Version(); got != NeverPolicy().Version() {
		t.Fatalf("lineage-less rollback swapped to %q", got)
	}
	rb, ok := findEvent(g.Events(), LifecycleRollback)
	if !ok || !strings.Contains(rb.Detail, "rollback aborted") {
		t.Fatalf("no aborted-rollback audit event: %+v", g.Events())
	}
	if st := l.Stats().Guard; st.Rollbacks != 0 {
		t.Fatalf("aborted rollback counted: %+v", st)
	}
}

// refusingDeploy is a Controller-backed serving layer whose rollouts are
// all refused, as a fleet quorum refuses an artifact.
type refusingDeploy struct{ *Controller }

func (refusingDeploy) DeployPolicy(Policy) (Policy, error) {
	return nil, errors.New("quorum refused")
}

// A rollback whose deploy the serving layer refuses keeps the promoted
// model serving and audits the abort with the refusal, like a rollback
// with no retained ancestor.
func TestGuardRollbackDeployRefusedAudits(t *testing.T) {
	ctl := NewController(AlwaysPolicy())
	g := NewGuard(ctl, WithProbation(1<<20, 5))
	l := NewServingLearner(ctl, WithGuard(g), WithDriftDetection(1e9, 128))
	l.serving = refusingDeploy{ctl}
	base := time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)

	incumbent, promoted := ctl.Policy(), neverMitigateRL(t, 1)
	if err := SetModelParent(promoted, incumbent.Version()); err != nil {
		t.Fatal(err)
	}
	ctl.SwapPolicy(promoted)
	l.notePromotion(incumbent, promoted, base)
	l.Process(Event{Time: base.Add(time.Minute), Node: 0, DIMM: 0, Type: CorrectedError, Count: 1, Rank: 0, Bank: 1, Row: 0, Col: 3})
	l.Process(Event{Time: base.Add(10 * time.Minute), Node: 0, DIMM: 0, Type: UncorrectedError, Count: 1, Rank: -1, Bank: -1, Row: -1, Col: -1})

	if got := ctl.Policy().Version(); got != promoted.Version() {
		t.Fatalf("refused rollback still swapped to %q", got)
	}
	rb, ok := findEvent(l.Events(), LifecycleRollback)
	if !ok || !strings.Contains(rb.Detail, "rollback aborted") || !strings.Contains(rb.Detail, "quorum refused") {
		t.Fatalf("no aborted-rollback audit event naming the refusal: %+v", l.Events())
	}
	if rb.ModelVersion != promoted.Version() {
		t.Fatalf("aborted rollback names %q, want the still-serving %q", rb.ModelVersion, promoted.Version())
	}
	if st := l.Stats().Guard; st.Rollbacks != 0 || st.ProbationActive {
		t.Fatalf("refused rollback counted or left probation open: %+v", st)
	}
}

// A guard attached to a controller charges every decision tick the
// controller's fused TickInto serves, so a learner on that controller charges
// it even without WithGuard. The guard keeps its own audit log: without
// WithGuard the learner neither shares it nor reports guard stats.
func TestGuardChargedByTickWithoutWithGuard(t *testing.T) {
	ctl := NewController(AlwaysPolicy())
	g := NewGuard(ctl, WithNodeCheckpointBudget(0.1, time.Hour), WithProbation(0, 0))
	l := NewServingLearner(ctl, WithDriftDetection(1e9, 128))
	processAll(l, ceStream(1, [2]int{10, 1}))
	st := g.Stats()
	if st.SuppressedMitigations != 7 || st.BudgetTrips != 1 {
		t.Fatalf("guard stats = %+v, want 7 suppressed mitigations (3 within budget) and 1 trip", st)
	}
	if _, ok := findEvent(g.Events(), LifecycleBudgetTrip); !ok {
		t.Fatalf("guard audit log lacks the budget trip: %+v", g.Events())
	}
	if evs := l.Events(); len(evs) != 0 || l.Stats().Guard != nil {
		t.Fatalf("learner without WithGuard reports guard state: events %+v, stats %+v", evs, l.Stats())
	}
}
