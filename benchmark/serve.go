package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	uerl "repro"
	"repro/internal/evalx"
	"repro/internal/fleet"
	"repro/internal/scenario"
)

// servingNodes scales the committed dimm-aging fleet (48 nodes) up
// five-fold, so one pass is ~230k events and every percentile has
// thousands of samples beyond it.
const servingNodes = 240

// loadSpec reads a committed scenario spec from the repository.
func loadSpec(root, name string) (scenario.Spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "scenarios", name+".json"))
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("loading scenario %s: %w", name, err)
	}
	return scenario.Decode(data)
}

// driftSpec is the dimm-aging drift schedule with the workload seed and
// the fleet scaled up.
func driftSpec(root string, seed int64) (scenario.Spec, error) {
	spec, err := loadSpec(root, "dimm-aging")
	if err != nil {
		return spec, err
	}
	spec.Seed = seed
	spec.Fleet.Nodes = servingNodes
	return spec, nil
}

// fleetSpec serves the driftSpec stream from a two-worker fleet: worker 1
// dies between the two drift steps and rejoins three days later. A fleet
// spec takes budget-only worker guards (promotion gates are
// single-process features); dimm-aging sets no budgets, so the guards
// consult and account but never veto, and each stream's lifecycle arc
// matches lifecycle-drift's: the two workloads differ in the serving
// layer alone. (With worker-loss's node budget, a vetoed incumbent
// undercuts every shadow candidate and some streams retrain after every
// drift window; the worker-loss golden pins that arc instead.)
func fleetSpec(root string, seed int64) (scenario.Spec, error) {
	spec, err := driftSpec(root, seed)
	if err != nil {
		return spec, err
	}
	loss, err := loadSpec(root, "worker-loss")
	if err != nil {
		return spec, err
	}
	spec.Lifecycle.Guard = &scenario.GuardSpec{}
	spec.Serving = &scenario.ServingSpec{
		Workers:         2,
		JournalCapacity: loss.Serving.JournalCapacity,
		Faults: []scenario.WorkerFaultSpec{
			{Worker: 1, Kind: scenario.WorkerKill, AtDay: 12},
			{Worker: 1, Kind: scenario.WorkerRejoin, AtDay: 15},
		},
	}
	return spec, nil
}

// The functions below lower a compiled scenario to the serving stack the
// same way internal/scenario's runner does; stack_test.go checks that
// these stacks reproduce the runner's numbers on the committed specs.

func initialPolicy(kind string) (uerl.Policy, error) {
	switch kind {
	case "", "always":
		return uerl.AlwaysPolicy(), nil
	case "never":
		return uerl.NeverPolicy(), nil
	}
	return nil, fmt.Errorf("unknown initial policy %q", kind)
}

func learnerOptions(c *scenario.Compiled) []uerl.LearnerOption {
	l := c.Spec.Lifecycle
	driftThreshold := l.DriftThreshold
	if driftThreshold == 0 {
		driftThreshold = 8
	}
	shadowUEs := 1
	if l.ShadowUEs != nil {
		shadowUEs = *l.ShadowUEs
	}
	opts := []uerl.LearnerOption{
		uerl.WithLearnerSeed(c.Spec.Seed),
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

// budgetOptions lowers a guard spec's mitigation budgets.
func budgetOptions(gs *scenario.GuardSpec, c *scenario.Compiled) []uerl.GuardOption {
	return []uerl.GuardOption{
		uerl.WithNodeCheckpointBudget(gs.NodeBudgetNodeHours, hours(gs.NodeWindowHours, 24*time.Hour)),
		uerl.WithFleetMitigationBudget(gs.FleetMitigations, hours(gs.FleetWindowHours, time.Hour)),
		uerl.WithGuardMitigationCost(c.MitigationCostNodeMinutes),
		uerl.WithGuardRestartable(c.Restartable),
	}
}

// newGuard builds the single-process guard: budgets plus the promotion
// gates and probation.
func newGuard(ctl *uerl.Controller, gs *scenario.GuardSpec, c *scenario.Compiled) *uerl.Guard {
	hook := uerl.AutoApprove()
	if gs.Approve == "deny" {
		hook = uerl.DenyPromotions("scenario promotion freeze")
	}
	tol := 5.0
	if gs.ProbationToleranceNH != nil {
		tol = *gs.ProbationToleranceNH
	}
	opts := append(budgetOptions(gs, c),
		uerl.WithPromotionBudget(gs.PromotionsPerDay),
		uerl.WithApprovalHook(hook),
		uerl.WithProbation(orDefault(gs.ProbationDecisions, 4096), tol),
	)
	return uerl.NewGuard(ctl, opts...)
}

func fleetConfig(c *scenario.Compiled, initial uerl.Policy) fleet.Config {
	sv := c.Spec.Serving
	cfg := fleet.Config{
		Workers:          sv.Workers,
		Seed:             c.Spec.Seed,
		Initial:          initial,
		JournalCapacity:  sv.JournalCapacity,
		DedupWindow:      time.Duration(sv.DedupWindowSeconds * float64(time.Second)),
		FailureThreshold: sv.FailureThreshold,
		RetryBackoff:     time.Duration(sv.RetryBackoffSeconds * float64(time.Second)),
		NewWorker:        func(id int) *fleet.Worker { return fleet.NewWorker(id, initial) },
	}
	if gs := c.Spec.Lifecycle.Guard; gs != nil {
		opts := budgetOptions(gs, c)
		cfg.NewWorker = func(id int) *fleet.Worker {
			return fleet.NewWorker(id, initial, fleet.WithWorkerGuard(opts...))
		}
	}
	return cfg
}

func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func hours(h float64, def time.Duration) time.Duration {
	if h == 0 {
		return def
	}
	return time.Duration(h * float64(time.Hour))
}

func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// outcome is one entry of the served stream: a decision the learner
// acted on or a realized UE, in the order the learner saw them.
type outcome struct {
	at       time.Time
	node     int
	realized float64
	ue       bool
	mitigate bool
}

// recorder is the learner's decision and UE observer. It only appends
// while Process runs; scoring happens after the timed loop.
type recorder struct {
	log                                     []outcome
	decisions, vetoed, degraded, violations uint64
}

func (r *recorder) reset() {
	r.log = r.log[:0]
	r.decisions, r.vetoed, r.degraded, r.violations = 0, 0, 0, 0
}

func (r *recorder) options() []uerl.LearnerOption {
	return []uerl.LearnerOption{uerl.WithDecisionObserver(r.decision), uerl.WithUEObserver(r.ue)}
}

// decision counts one served decision. A vetoed decision is policy (the
// guard said no); a degraded one is a failure to reach the node's owner.
// Either must serve ActionNone.
func (r *recorder) decision(d uerl.Decision) {
	r.decisions++
	r.log = append(r.log, outcome{at: d.Time, node: d.Node, mitigate: d.Mitigate()})
	if d.Vetoed {
		r.vetoed++
		if d.Action != uerl.ActionNone {
			r.violations++
		}
	}
	if d.Degraded {
		r.degraded++
		if d.Action != uerl.ActionNone {
			r.violations++
		}
	}
}

func (r *recorder) ue(node int, at time.Time, realized float64) {
	r.log = append(r.log, outcome{at: at, node: node, realized: realized, ue: true})
}

// score is the served stream's decision quality, rounded like the
// scenario goldens.
type score struct {
	LostNodeHours, UENodeHours, MitigationNodeHours float64
	Mitigations                                     int
	Vetoed, Degraded                                uint64
}

func scoreLog(log []outcome, c *scenario.Compiled, vetoed, degraded uint64) score {
	served := evalx.NewShadowEval("served", evalx.ShadowConfig{
		MitigationCostNodeHours: c.MitigationCostNodeMinutes / 60,
		Restartable:             c.Restartable,
	})
	for _, o := range log {
		if o.ue {
			served.UE(o.node, o.at, o.realized)
		} else {
			served.Decision(o.node, o.at, o.mitigate)
		}
	}
	res := served.Result()
	return score{
		LostNodeHours:       round4(res.TotalCost()),
		UENodeHours:         round4(res.UECost),
		MitigationNodeHours: round4(res.MitigationCost),
		Mitigations:         res.Metrics.Mitigations,
		Vetoed:              vetoed,
		Degraded:            degraded,
	}
}

// stack is one serving stack built from a compiled scenario: a guarded
// OnlineLearner over either one Controller or a fleet coordinator.
type stack struct {
	learner *uerl.OnlineLearner
	ctl     *uerl.Controller
	guard   *uerl.Guard
	coord   *fleet.Coordinator
	tr      *fleet.ChanTransport
	// lostVetoes counts suppressions recorded by worker guards that a
	// kill later destroyed, so the fleet's ledger still adds up.
	lostVetoes uint64
}

// buildStack wires the learner, serving layer and guards for c. With a
// tracer the fleet coordinator and its transport are wrapped in spans.
func buildStack(c *scenario.Compiled, rec *recorder, t *tracer) (*stack, error) {
	initial, err := initialPolicy(c.Spec.Lifecycle.InitialPolicy)
	if err != nil {
		return nil, err
	}
	opts := append(learnerOptions(c), rec.options()...)
	s := &stack{}
	if c.Spec.Serving == nil {
		s.ctl = uerl.NewController(initial)
		if gs := c.Spec.Lifecycle.Guard; gs != nil {
			s.guard = newGuard(s.ctl, gs, c)
			opts = append(opts, uerl.WithGuard(s.guard))
		}
		s.learner = uerl.NewServingLearner(s.ctl, opts...)
		return s, nil
	}
	cfg := fleetConfig(c, initial)
	s.tr = fleet.NewChanTransport(cfg.Workers, cfg.NewWorker)
	var tport fleet.Transport = s.tr
	if t != nil {
		tport = newTracedTransport(s.tr, t)
	}
	if s.coord, err = fleet.NewCoordinator(cfg, tport); err != nil {
		s.release()
		return nil, err
	}
	var serving uerl.Serving = s.coord
	if t != nil {
		serving = newTracedServing(s.coord, t)
	}
	s.learner = uerl.NewServingLearner(serving, opts...)
	return s, nil
}

// release stops the fleet's worker goroutines; the stack is unusable
// afterwards.
func (s *stack) release() {
	if s.tr != nil {
		for w := 0; w < s.tr.Workers(); w++ {
			s.tr.Kill(w)
		}
	}
}

// applyFault drives one scheduled worker fault into the transport,
// banking the victim's veto ledger first when the fault destroys it.
func (s *stack) applyFault(f scenario.WorkerFault) {
	switch f.Kind {
	case scenario.WorkerKill:
		for _, w := range s.coord.Stats().Workers {
			if w.ID == f.Worker && w.Stats != nil && w.Stats.Guard != nil {
				s.lostVetoes += w.Stats.Guard.SuppressedMitigations
			}
		}
		s.tr.Kill(f.Worker)
	case scenario.WorkerHang:
		s.tr.Hang(f.Worker)
	case scenario.WorkerRejoin:
		s.tr.Rejoin(f.Worker)
	}
}

// feed replays the compiled stream through the learner, timing every
// Process call into lat (h, when set, traces each call). Worker faults
// strike just before the first event at or after their time and the fleet
// is settled at the end, as in the scenario runner.
func (s *stack) feed(c *scenario.Compiled, lat []time.Duration, h *traceHooks) {
	wf := c.WorkerFaults
	for i, e := range c.Events {
		for len(wf) > 0 && !wf[0].At.After(e.Time) {
			s.applyFault(wf[0])
			wf = wf[1:]
		}
		if h != nil {
			h.before()
		}
		t0 := time.Now()
		s.learner.Process(e)
		lat[i] = time.Since(t0)
		if h != nil {
			h.after(s, e, lat[i])
		}
	}
	for _, f := range wf {
		s.applyFault(f)
	}
	if s.coord != nil {
		s.coord.Reconcile()
	}
}

// passOutcome is everything a pass over one seed's stream must repeat
// exactly on every other pass.
type passOutcome struct {
	Score          score
	EventCounts    map[string]int
	Generation     int
	ServingVersion string
	Epochs         int
	Dropped        uint64
	BudgetTrips    int
	Fleet          *fleetOutcome
}

type fleetOutcome struct {
	Failovers, Rejoins, ReplayedEvents int
	AckedEvents                        uint64
}

// outcome scores the pass and applies the correctness gate: vetoed and
// degraded decisions served ActionNone, and the guards suppressed
// exactly the mitigations the served stream carried as vetoes.
func (s *stack) outcome(rec *recorder, c *scenario.Compiled) (passOutcome, error) {
	if rec.violations > 0 {
		return passOutcome{}, gatef("%d vetoed or degraded decisions served an action other than ActionNone", rec.violations)
	}
	st := s.learner.Stats()
	out := passOutcome{
		Score:          scoreLog(rec.log, c, rec.vetoed, rec.degraded),
		EventCounts:    map[string]int{},
		Generation:     st.Generation,
		ServingVersion: st.ServingVersion,
		Epochs:         st.Epochs,
		Dropped:        st.DroppedTransitions,
	}
	for _, ev := range s.learner.Events() {
		out.EventCounts[string(ev.Kind)]++
	}
	suppressed, guarded := uint64(0), false
	switch {
	case s.guard != nil:
		gs := s.guard.Stats()
		suppressed, guarded, out.BudgetTrips = gs.SuppressedMitigations, true, gs.BudgetTrips
	case s.coord != nil:
		fs := s.coord.Stats()
		out.Fleet = &fleetOutcome{Failovers: fs.Failovers, Rejoins: fs.Rejoins, ReplayedEvents: fs.ReplayedEvents, AckedEvents: fs.AckedEvents}
		guarded = c.Spec.Lifecycle.Guard != nil
		suppressed = s.lostVetoes
		for _, w := range fs.Workers {
			if w.Stats != nil && w.Stats.Guard != nil {
				suppressed += w.Stats.Guard.SuppressedMitigations
				out.BudgetTrips += w.Stats.Guard.BudgetTrips
			}
		}
	}
	if guarded && suppressed != rec.vetoed {
		return passOutcome{}, gatef("guards suppressed %d mitigations but the served stream carried %d vetoes", suppressed, rec.vetoed)
	}
	return out, nil
}

func runLifecycleDrift(cfg config, r *result) error { return runServing(cfg, r, driftSpec) }
func runFleetFailover(cfg config, r *result) error  { return runServing(cfg, r, fleetSpec) }

// streamsPerRun is how many independent streams a serving run replays.
// A stream's lifecycle arc — how many drift → retrain cycles it triggers,
// how long a candidate runs in shadow, which policy serves most of it —
// sets much of its cost and most of its tail, so every reported number
// covers three streams.
const streamsPerRun = 3

// cycle accumulates one replay of every stream.
type cycle struct {
	lat       []time.Duration
	cpu       time.Duration
	events    int
	decisions uint64
	mallocs   uint64
}

func (y *cycle) add(lat []time.Duration, cpu time.Duration, decisions, mallocs uint64) {
	y.lat = append(y.lat, lat...)
	y.cpu += cpu
	y.events += len(lat)
	y.decisions += decisions
	y.mallocs += mallocs
}

func (y *cycle) reset() { *y = cycle{lat: y.lat[:0]} }

// runServing measures scenario streams replayed through the serving
// stack in closed loop: one goroutine calls Process for each event in
// turn and waits for it. Each pass replays one whole stream into a fresh
// stack (a stream is time-ordered, so a stack cannot take it twice); a
// cycle is one pass over each stream. Every metric is computed per cycle
// — percentiles over the cycle's pooled Process calls, throughput over
// the process CPU time the cycle's Process loops used — and the reported
// value is the median over cycles; cycles repeat until the measured time
// is spent. In trace mode the cycles of the first half of the time run
// untraced and the rest traced.
func runServing(cfg config, r *result, mkSpec func(string, int64) (scenario.Spec, error)) error {
	var cs []*scenario.Compiled
	setup, err := timeSetup(3, func() error {
		cs = cs[:0]
		for i := int64(0); i < streamsPerRun; i++ {
			spec, err := mkSpec(repoRoot, cfg.seed*streamsPerRun+i)
			if err != nil {
				return err
			}
			c, err := scenario.Compile(spec)
			if err != nil {
				return err
			}
			cs = append(cs, c)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	r.set("scenario.compile_s", setup/streamsPerRun)
	maxN, total := 0, 0
	for _, c := range cs {
		maxN, total = max(maxN, len(c.Events)), total+len(c.Events)
		note("stream: %s seed %d, %d events, %d nodes, %g days, %d worker faults",
			c.Spec.Name, c.Spec.Seed, len(c.Events), c.Spec.Fleet.Nodes, c.Spec.DurationDays, len(c.WorkerFaults))
	}

	rec := &recorder{log: make([]outcome, 0, maxN)}
	lat := make([]time.Duration, maxN)
	y := cycle{lat: make([]time.Duration, 0, total)}
	var (
		eps, dps, p50s, p99s, allocs, tracedEPS []float64
		firsts                                  = make([]*passOutcome, len(cs))
		decisions                               = make([]uint64, len(cs))
		last                                    *stack
		tr                                      *traceHooks
		traced                                  bool
	)
	if cfg.trace {
		tr = newTraceHooks()
	}
	baseGoroutines := runtime.NumGoroutine()
	start := time.Now()
	for pass := 0; ; pass++ {
		k := pass % len(cs)
		if k == 0 && pass > 0 {
			elapsed := time.Since(start).Seconds()
			if elapsed >= cfg.seconds && (tr == nil || len(tracedEPS) > 0) {
				break
			}
			traced = tr != nil && elapsed >= cfg.seconds/2
		}
		if last != nil {
			last.release()
		}
		c := cs[k]
		n := len(c.Events)
		rec.reset()
		var h *traceHooks
		var t *tracer
		if traced {
			h, t = tr, tr.t
		}
		s, err := buildStack(c, rec, t)
		if err != nil {
			return err
		}
		last = s
		if traced {
			tr.startPass(c)
		}
		runtime.GC()
		m0, cpu0 := mallocs(), cpuTime()
		s.feed(c, lat[:n], h)
		cpu, m1 := cpuTime()-cpu0, mallocs()

		out, err := s.outcome(rec, c)
		if err != nil {
			return err
		}
		if firsts[k] == nil {
			firsts[k], decisions[k] = &out, rec.decisions
			note("outcome seed %d: %+v", c.Spec.Seed, out.Score)
			note("  lifecycle: %v generation=%d serving=%s", out.EventCounts, out.Generation, out.ServingVersion)
			if out.Fleet != nil {
				note("  fleet: %+v", *out.Fleet)
			}
		} else if !reflect.DeepEqual(out, *firsts[k]) {
			return gatef("pass %d over stream seed %d diverged from its first pass:\n  %+v\n  %+v", pass, c.Spec.Seed, out, *firsts[k])
		}
		r.attempted += int64(n)
		r.failed += int64(rec.violations)
		if traced {
			tr.t.flush()
		}
		y.add(lat[:n], cpu, rec.decisions, m1-m0)
		if k < len(cs)-1 {
			continue
		}
		if traced {
			tracedEPS = append(tracedEPS, float64(y.events)/y.cpu.Seconds())
		} else {
			eps = append(eps, float64(y.events)/y.cpu.Seconds())
			dps = append(dps, float64(y.decisions)/y.cpu.Seconds())
			p50s = append(p50s, us(quantile(y.lat, 0.50)))
			p99s = append(p99s, us(quantile(y.lat, 0.99)))
			allocs = append(allocs, float64(y.mallocs)/float64(y.events))
		}
		y.reset()
	}
	heap := retainedMiB(func() {
		last.release()
		last = nil
		waitGoroutines(baseGoroutines)
	}, cs, rec, lat, y.lat)

	// Decision quality over the streams: deterministic per seed.
	var lost, degraded, decided, vetoed, trips float64
	for k, f := range firsts {
		lost += f.Score.LostNodeHours
		degraded += float64(f.Score.Degraded)
		vetoed += float64(f.Score.Vetoed)
		trips += float64(f.BudgetTrips)
		decided += float64(decisions[k])
	}
	streams := float64(len(firsts))
	failedFrac := degraded / decided
	r.set("events_per_s", median(eps))
	r.set("decisions_per_s", median(dps))
	r.set("latency_p50_us", median(p50s))
	r.set("latency_p99_us", median(p99s))
	r.set("heap_mb", heap)
	r.set("lost_node_hours", lost/streams)
	r.set("failed_frac", failedFrac)
	r.set("allocs_per_event", median(allocs))
	r.set("guard.vetoes", vetoed/streams)
	r.set("guard.trips", trips/streams)
	note("samples: %d untraced cycles of %d Process calls (one pass per stream); each cycle's p99 has %d calls beyond it; latency is per Process call",
		len(eps), total, total/100)
	note("process_p50_us=%.4f process_p99_us=%.4f allocs_per_event=%.2f lost_node_hours=%.4f (mean over streams) failed_frac=%.3g",
		median(p50s), median(p99s), median(allocs), lost/streams, failedFrac)
	if tr != nil {
		tr.report(r, firsts, median(eps), median(tracedEPS))
	}
	return nil
}

// waitGoroutines waits (up to a second) for stopped worker goroutines to
// exit, so the heap reading after a release no longer counts their state.
func waitGoroutines(n int) {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > n && time.Now().Before(deadline); {
		runtime.Gosched()
	}
}
