package fleet

import (
	"math"
	"reflect"
	"testing"
	"time"

	uerl "repro"
	"repro/internal/features"
)

// driftStream is a deterministic telemetry stream whose CE rate steps up
// sharply after phase1 events, with a few realized UEs in the degraded
// phase: enough for the online learner to detect drift, retrain and
// promote an RL policy.
func driftStream(nodes, phase1, phase2 int) []uerl.Event {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var evs []uerl.Event
	for i := 0; i < phase1+phase2; i++ {
		node := i % nodes
		at := base.Add(time.Duration(i) * 30 * time.Second)
		count := 1 + i%3
		if i >= phase1 {
			count = 40 + i%5
			if (i-phase1)%173 == 101 {
				evs = append(evs, uerl.Event{Time: at, Node: node, DIMM: node, Type: uerl.UncorrectedError,
					Count: 1, Rank: -1, Bank: -1, Row: -1, Col: -1})
				continue
			}
		}
		evs = append(evs, uerl.Event{Time: at, Node: node, DIMM: node, Type: uerl.CorrectedError,
			Count: count, Rank: 0, Bank: 1, Row: i % 7, Col: 3})
	}
	return evs
}

// learnerOptions are CI-scale lifecycle settings under which driftStream
// promotes an RL policy over the Never incumbent.
func learnerOptions(opts ...uerl.LearnerOption) []uerl.LearnerOption {
	return append([]uerl.LearnerOption{
		uerl.WithLearnerSeed(5),
		uerl.WithCostSource(uerl.ConstantCost(100)),
		uerl.WithDriftDetection(8, 128),
		uerl.WithRetraining(128, 32),
		uerl.WithShadowGate(64, 1),
		uerl.WithExperienceCapacity(4096),
	}, opts...)
}

// promotedRL returns the RL policy a single-process learner promotes on
// driftStream.
func promotedRL(t *testing.T) uerl.Policy {
	t.Helper()
	l := uerl.NewServingLearner(uerl.NewController(uerl.NeverPolicy()), learnerOptions()...)
	for _, e := range driftStream(8, 600, 800) {
		l.Process(e)
	}
	p := l.Serving().Policy()
	if p.Kind() != uerl.PolicyRL {
		t.Fatalf("learner serves %s after the drift stream, want an RL policy: %+v", p.Version(), l.Events())
	}
	return p
}

// TestFleetTickLeavesNormalizedInput is the fleet twin of the root
// TestTickLeavesNormalizedInput: a tick served by an RL worker brings the
// policy's normalized input back, and TickInto leaves exactly
// features.Vector(d.Features).NormalizedInto in norm, bit for bit, guard
// vetoes included. Every tick the worker's RL policy did not serve
// through a ReqTick reports normed=false: Always workers, degraded
// answers, a tick refused by a restarted worker, and a suspect owner
// answered through the three calls.
func TestFleetTickLeavesNormalizedInput(t *testing.T) {
	rlp := promotedRL(t)
	build := func(p uerl.Policy) (*Coordinator, *ChanTransport) {
		c, tr, err := NewInProcess(Config{
			Workers: 2, Seed: 3, Initial: p,
			NewWorker: func(id int) *Worker {
				return NewWorker(id, p, WithWorkerGuard(uerl.WithNodeCheckpointBudget(0.1, time.Hour)))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c, tr
	}
	evs := driftStream(4, 40, 80)
	tick := func(c *Coordinator, e uerl.Event) (uerl.Decision, [uerl.FeatureDim]float64, bool) {
		var d uerl.Decision
		var norm [uerl.FeatureDim]float64
		normed := c.TickInto(&d, e, 4200, &norm)
		return d, norm, normed
	}

	c, tr := build(rlp)
	var vetoed, mitigated bool
	for _, e := range evs {
		if e.Type == uerl.UncorrectedError {
			c.ObserveEvent(e)
			continue
		}
		d, norm, normed := tick(c, e)
		if !normed || d.Degraded {
			t.Fatalf("tick at %v on a live RL fleet: normed %v, decision %+v", e.Time, normed, d)
		}
		var want [uerl.FeatureDim]float64
		features.Vector(d.Features).NormalizedInto(want[:])
		for i := range want {
			if math.Float64bits(norm[i]) != math.Float64bits(want[i]) {
				t.Fatalf("tick at %v: norm[%d] = %v, NormalizedInto(d.Features) = %v", e.Time, i, norm[i], want[i])
			}
		}
		vetoed = vetoed || d.Vetoed
		mitigated = mitigated || (d.Mitigate() && !d.Vetoed)
	}
	if !vetoed || !mitigated {
		t.Fatalf("cases not covered: vetoed %v, mitigated %v", vetoed, mitigated)
	}

	// A restarted owner refuses the tick; the coordinator rejoins it
	// and answers through the three calls.
	next := evs[len(evs)-1]
	step := func() uerl.Event {
		next.Time = next.Time.Add(time.Second)
		next.Type, next.Count = uerl.CorrectedError, 1
		return next
	}
	owner := c.hrwOwner(next.Node)
	tr.Kill(owner)
	tr.Rejoin(owner)
	if d, _, normed := tick(c, step()); normed || d.Degraded {
		t.Fatalf("tick refused by a restarted owner: normed %v, decision %+v", normed, d)
	}
	if st := c.Stats(); st.Rejoins != 1 {
		t.Fatalf("restarted owner not rejoined: %+v", st)
	}
	// A hung owner turns suspect and the tick degrades; once the hang
	// clears, the suspect still backs off, so the next tick is answered
	// through the three calls, from the owner's intact state.
	tr.Hang(owner)
	if d, _, normed := tick(c, step()); normed || !d.Degraded {
		t.Fatalf("tick on a hung owner: normed %v, decision %+v", normed, d)
	}
	tr.Rejoin(owner)
	if d, _, normed := tick(c, step()); normed || d.Degraded || c.workers[owner].state != WorkerSuspect {
		t.Fatalf("tick on a suspect owner: normed %v, state %v, decision %+v", normed, c.workers[owner].state, d)
	}
	// With every worker dead the answer is degraded.
	tr.Kill(0)
	tr.Kill(1)
	for range 4 {
		if d, _, normed := tick(c, step()); normed || !d.Degraded {
			t.Fatalf("tick on a dead fleet: normed %v, decision %+v", normed, d)
		}
	}

	// Always workers leave no normalized input.
	always, _ := build(uerl.AlwaysPolicy())
	for _, e := range evs[:16] {
		if d, _, normed := tick(always, e); normed || d.Degraded {
			t.Fatalf("tick on an Always fleet: normed %v, decision %+v", normed, d)
		}
	}
}

// threeCallServing serves a coordinator without its fused step, so the
// learner drives it through ObserveEvent, Recommend and ObserveDecision
// and normalizes each served decision itself.
type threeCallServing struct{ c *Coordinator }

func (s threeCallServing) ObserveEvent(e uerl.Event) { s.c.ObserveEvent(e) }
func (s threeCallServing) Recommend(node int, at time.Time, cost float64) uerl.Decision {
	return s.c.Recommend(node, at, cost)
}
func (s threeCallServing) Policy() uerl.Policy { return s.c.Policy() }
func (s threeCallServing) DeployPolicy(p uerl.Policy) (uerl.Policy, error) {
	return s.c.DeployPolicy(p)
}
func (s threeCallServing) ObserveDecision(d uerl.Decision) { s.c.ObserveDecision(d) }

// normCounter counts the ticks that came back with a normalized input.
type normCounter struct {
	*Coordinator
	normed int
}

func (n *normCounter) TickInto(d *uerl.Decision, e uerl.Event, cost float64, norm *[uerl.FeatureDim]float64) bool {
	normed := n.Coordinator.TickInto(d, e, cost, norm)
	if normed {
		n.normed++
	}
	return normed
}

// TestFleetLearnerTickParity runs a drifting stream, with worker 1
// killed before the drift and rejoined during it, through the online
// learner twice: over the coordinator's fused TickInto, which hands the
// learner the workers' normalized input once the fleet serves RL, and
// over the three calls, where the learner normalizes every decision
// itself. Lifecycle events, learner stats, fleet stats and every served
// decision must match.
func TestFleetLearnerTickParity(t *testing.T) {
	evs := driftStream(8, 600, 800)
	run := func(wrap func(*Coordinator) uerl.Serving) ([]uerl.Decision, *uerl.OnlineLearner, *Coordinator) {
		c, tr, err := NewInProcess(Config{
			Workers: 2, Seed: 7, Initial: uerl.NeverPolicy(),
			NewWorker: func(id int) *Worker {
				return NewWorker(id, uerl.NeverPolicy(), WithWorkerGuard(uerl.WithNodeCheckpointBudget(0.5, time.Hour)))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var served []uerl.Decision
		l := uerl.NewServingLearner(wrap(c), learnerOptions(uerl.WithDecisionObserver(func(d uerl.Decision) {
			served = append(served, d)
		}))...)
		for i, e := range evs {
			switch i {
			case 500:
				tr.Kill(1)
			case 900:
				tr.Rejoin(1)
			}
			l.Process(e)
		}
		c.Reconcile()
		return served, l, c
	}
	counter := &normCounter{}
	fusedServed, fused, fusedFleet := run(func(c *Coordinator) uerl.Serving {
		counter.Coordinator = c
		return counter
	})
	splitServed, split, splitFleet := run(func(c *Coordinator) uerl.Serving { return threeCallServing{c} })

	if fused.Stats().Generation < 1 || fusedFleet.Policy().Kind() != uerl.PolicyRL || counter.normed == 0 {
		t.Fatalf("the fleet never served a fused RL tick: generation %d, policy %s, normed ticks %d",
			fused.Stats().Generation, fusedFleet.Policy().Version(), counter.normed)
	}
	if st := fusedFleet.Stats(); st.Failovers == 0 || st.Rejoins == 0 {
		t.Fatalf("kill/rejoin arc not exercised: %+v", st)
	}
	if len(fusedServed) != len(splitServed) {
		t.Fatalf("served %d decisions fused, %d through the three calls", len(fusedServed), len(splitServed))
	}
	for i := range fusedServed {
		if fusedServed[i] != splitServed[i] {
			t.Fatalf("decision %d:\nfused %+v\nsplit %+v", i, fusedServed[i], splitServed[i])
		}
	}
	if got, want := fused.Events(), split.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("lifecycle events diverged:\nfused %+v\nsplit %+v", got, want)
	}
	if got, want := fused.Stats(), split.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("learner stats diverged:\nfused %+v\nsplit %+v", got, want)
	}
	if got, want := fusedFleet.Stats(), splitFleet.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet stats diverged:\nfused %+v\nsplit %+v", got, want)
	}
}
