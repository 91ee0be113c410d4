package uerl

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// processAll feeds a time-ordered event batch through l.Process.
func processAll(l *OnlineLearner, events []Event) {
	for _, e := range events {
		l.Process(e)
	}
}

// driftingTelemetry builds a deterministic telemetry stream whose CE rate
// steps up sharply mid-stream (a fleet-wide fault-mode change), with a
// few realized UEs sprinkled into the degraded phase.
func driftingTelemetry(nodes, phase1, phase2 int) []Event {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var evs []Event
	for i := 0; i < phase1+phase2; i++ {
		node := i % nodes
		at := base.Add(time.Duration(i) * 30 * time.Second)
		count := 1 + i%3
		if i >= phase1 {
			count = 40 + i%5
			if (i-phase1)%173 == 101 {
				evs = append(evs, Event{Time: at, Node: node, DIMM: node, Type: UncorrectedError,
					Count: 1, Rank: -1, Bank: -1, Row: -1, Col: -1})
				continue
			}
		}
		evs = append(evs, Event{Time: at, Node: node, DIMM: node, Type: CorrectedError,
			Count: count, Rank: 0, Bank: 1, Row: i % 7, Col: 3})
	}
	return evs
}

// newTestLearner builds a learner with CI-scale lifecycle parameters.
// The incumbent is the Never baseline — the online loop's job is to
// learn, from realized UE losses in live traffic, that the degraded
// fleet warrants mitigation. The shadow gate requires one realized UE,
// so promotions are judged on outcome evidence, not mitigation spend.
func newTestLearner() *OnlineLearner {
	ctl := NewController(NeverPolicy())
	return NewServingLearner(ctl,
		WithLearnerSeed(5),
		WithCostSource(ConstantCost(100)),
		WithDriftDetection(8, 128),
		WithRetraining(128, 32),
		WithShadowGate(64, 1),
		WithExperienceCapacity(4096),
	)
}

// TestLifecycleEndToEnd streams drifting telemetry through the full
// continual-learning loop: drift must trigger a retrain, shadow
// evaluation must gate the candidate, and a promotion must hot-swap the
// serving policy with lineage intact — while concurrent Recommend
// traffic proceeds unblocked (run under -race in CI).
func TestLifecycleEndToEnd(t *testing.T) {
	learner := newTestLearner()
	ctl := learner.serving.(*Controller)
	initialVersion := ctl.Policy().Version()
	stream := driftingTelemetry(8, 600, 800)

	// Serving traffic hammers the controller throughout the lifecycle.
	// Every one of these calls must complete with a coherent decision —
	// a hot swap may never drop or block a Recommend.
	const queriesPerWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			at := stream[0].Time
			for i := 0; i < queriesPerWorker; i++ {
				d := ctl.Recommend((w+i)%8, at.Add(time.Duration(i)*time.Second), 50)
				if d.ModelVersion == "" || d.Policy == "" {
					t.Error("decision with empty identity during lifecycle")
					return
				}
			}
		}(w)
	}

	processAll(learner, stream)
	wg.Wait()

	stats := learner.Stats()
	if stats.Generation < 1 {
		t.Fatalf("no promotion happened: %+v\nevents: %+v", stats, learner.Events())
	}
	if stats.UEs == 0 {
		t.Fatal("stream carried no UEs")
	}
	if stats.Transitions == 0 || stats.Epochs == 0 {
		t.Fatalf("no learning happened: %+v", stats)
	}

	// The lifecycle must have recorded drift → retrain → promote, in
	// that causal order, and the served model must have changed.
	events := learner.Events()
	firstOf := func(kind LifecycleEventKind) int {
		for i, ev := range events {
			if ev.Kind == kind {
				return i
			}
		}
		return -1
	}
	di, ri, pi := firstOf(LifecycleDrift), firstOf(LifecycleRetrain), firstOf(LifecyclePromote)
	if di < 0 || ri < 0 || pi < 0 {
		t.Fatalf("missing lifecycle stages (drift=%d retrain=%d promote=%d): %+v", di, ri, pi, events)
	}
	if !(di <= ri && ri < pi) {
		t.Fatalf("lifecycle out of order (drift=%d retrain=%d promote=%d)", di, ri, pi)
	}

	serving := ctl.Policy()
	if serving.Version() == initialVersion {
		t.Fatal("serving policy unchanged after promotion")
	}
	if serving.Kind() != PolicyRL {
		t.Fatalf("promoted policy kind = %s, want rl", serving.Kind())
	}

	// Lineage: every promotion's parent is the version it replaced, and
	// the currently served model heads the chain.
	parent := initialVersion
	var lastPromoted string
	for _, ev := range events {
		if ev.Kind != LifecyclePromote {
			continue
		}
		if ev.Parent != parent {
			t.Fatalf("promotion %q chains to %q, want %q", ev.ModelVersion, ev.Parent, parent)
		}
		parent = ev.ModelVersion
		lastPromoted = ev.ModelVersion
	}
	if lastPromoted != serving.Version() {
		t.Fatalf("served version %q is not the last promoted %q", serving.Version(), lastPromoted)
	}
	if ModelParent(serving) == "" {
		t.Fatal("served model carries no lineage")
	}

	// Tracker state survived every swap: all 8 nodes still tracked.
	if n := ctl.NodeCount(); n != 8 {
		t.Fatalf("tracked %d nodes after lifecycle, want 8", n)
	}
}

// TestLifecycleDeterministic: a fixed seed and event stream reproduce the
// lifecycle bit-for-bit — same audit log, same content-addressed model
// versions, same final stats.
func TestLifecycleDeterministic(t *testing.T) {
	run := func() ([]LifecycleEvent, LearnerStats) {
		learner := newTestLearner()
		processAll(learner, driftingTelemetry(8, 600, 800))
		return learner.Events(), learner.Stats()
	}
	ev1, st1 := run()
	ev2, st2 := run()
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("lifecycle events differ across identical runs:\n%+v\nvs\n%+v", ev1, ev2)
	}
	if st1 != st2 {
		t.Fatalf("lifecycle stats differ across identical runs:\n%+v\nvs\n%+v", st1, st2)
	}
	if len(ev1) == 0 {
		t.Fatal("deterministic run produced no lifecycle events")
	}
}

// TestLifecycleQuietStreamNoChurn: a stationary stream must not drift,
// retrain, or swap anything.
func TestLifecycleQuietStreamNoChurn(t *testing.T) {
	learner := newTestLearner()
	ctl := learner.serving.(*Controller)
	before := ctl.Policy().Version()
	processAll(learner, driftingTelemetry(8, 1200, 0))
	if events := learner.Events(); len(events) != 0 {
		t.Fatalf("stationary stream produced lifecycle events: %+v", events)
	}
	if got := ctl.Policy().Version(); got != before {
		t.Fatalf("stationary stream swapped the policy: %q -> %q", before, got)
	}
	if st := learner.Stats(); st.Generation != 0 || st.ShadowActive {
		t.Fatalf("stationary stream left lifecycle state: %+v", st)
	}
}

// countingServing is a Controller-backed serving layer and decision
// accountant that counts the calls the learner makes into it. The
// controller is a named field, not embedded, so its own fused TickInto is not
// promoted: the layer has no Ticker step of its own.
type countingServing struct {
	ctl                                  *Controller
	observe, recommend, accounted, ticks int
}

func (s *countingServing) ObserveEvent(e Event) { s.observe++; s.ctl.ObserveEvent(e) }

func (s *countingServing) Recommend(node int, at time.Time, cost float64) Decision {
	s.recommend++
	return s.ctl.Recommend(node, at, cost)
}

func (s *countingServing) Policy() Policy { return s.ctl.Policy() }

func (s *countingServing) DeployPolicy(p Policy) (Policy, error) { return s.ctl.DeployPolicy(p) }

func (s *countingServing) ObserveDecision(Decision) { s.accounted++ }

// tickingServing adds the fused Ticker step.
type tickingServing struct{ countingServing }

func (s *tickingServing) TickInto(d *Decision, e Event, cost float64, norm *[FeatureDim]float64) bool {
	s.ticks++
	return s.ctl.TickInto(d, e, cost, norm)
}

// TestLearnerResolvesFusedTick checks the learner serves a decision tick
// through a layer's fused TickInto alone — no separate ingest, query or
// accounting call, so the guard is charged once — and through the three
// calls on a layer without one.
func TestLearnerResolvesFusedTick(t *testing.T) {
	evs := driftingTelemetry(4, 20, 0)
	split := &countingServing{ctl: NewController(AlwaysPolicy())}
	fused := &tickingServing{countingServing{ctl: NewController(AlwaysPolicy())}}
	for _, s := range []Serving{split, fused} {
		processAll(NewServingLearner(s, WithLearnerSeed(1)), evs)
	}
	n := len(evs)
	if split.observe != n || split.recommend != n || split.accounted != n || split.ticks != 0 {
		t.Fatalf("three-call layer saw observe=%d recommend=%d account=%d ticks=%d, want %d %d %d 0",
			split.observe, split.recommend, split.accounted, split.ticks, n, n, n)
	}
	if fused.ticks != n || fused.observe != 0 || fused.recommend != 0 || fused.accounted != 0 {
		t.Fatalf("fused layer saw ticks=%d observe=%d recommend=%d account=%d, want %d 0 0 0",
			fused.ticks, fused.observe, fused.recommend, fused.accounted, n)
	}
}
