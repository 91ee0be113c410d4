package fleet

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	uerl "repro"
	"repro/internal/mathx"
)

// fusedTick is Coordinator.TickInto returning the decision.
func fusedTick(c *Coordinator, e uerl.Event, potentialCostNodeHours float64) (d uerl.Decision) {
	var norm [uerl.FeatureDim]float64
	c.TickInto(&d, e, potentialCostNodeHours, &norm)
	return d
}

// TestFleetTickParity is the fused tick's differential test: two fleets
// built alike see the same events and the same random fault schedule,
// one fed by TickInto, the other by ObserveEvent → Recommend →
// ObserveDecision, and their decision streams and Stats — worker guard
// ledgers and replay traffic included — must match exactly. Schedules
// use 1–3 guarded workers whose node budgets veto, dedup on and off with
// redelivered events, and on some seeds a journal small enough that
// rebuilds trim. Faults are kills, hangs, rejoins, Reconcile calls, and
// kill-then-rejoin restarts the coordinator never sees fail — the case
// where a tick must be refused rather than served from a restarted
// worker's empty state.
func TestFleetTickParity(t *testing.T) {
	const (
		schedules = 300
		perRun    = 160
	)
	// cover tallies what the schedules exercised, so the test cannot
	// pass vacuously.
	var cover struct{ vetoes, deduped, trimmed, rejoins, failovers uint64 }
	for seed := int64(1); seed <= schedules; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := newTickSchedule(seed, perRun)
			fused, fusedTr, err := NewInProcess(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			split, splitTr, err := NewInProcess(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range sc.events {
				cost := sc.fault([]*Coordinator{fused, split}, []*ChanTransport{fusedTr, splitTr})
				if e.Type == uerl.UncorrectedError {
					fused.ObserveEvent(e)
					split.ObserveEvent(e)
					continue
				}
				got := fusedTick(fused, e, cost)
				split.ObserveEvent(e)
				want := split.Recommend(e.Node, e.Time, cost)
				split.ObserveDecision(want)
				if got != want {
					t.Fatalf("event %d: fused tick served\n%+v\nthe three calls\n%+v", i, got, want)
				}
			}
			if got, want := fused.Stats(), split.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("stats diverged at end of stream:\nfused %+v\nsplit %+v", got, want)
			}
			fused.Reconcile()
			split.Reconcile()
			st := fused.Stats()
			if want := split.Stats(); !reflect.DeepEqual(st, want) {
				t.Fatalf("stats diverged after Reconcile:\nfused %+v\nsplit %+v", st, want)
			}
			for _, w := range st.Workers {
				if w.Stats != nil {
					cover.vetoes += w.Stats.Guard.SuppressedMitigations
				}
			}
			cover.deduped += st.Journal.Deduped
			cover.trimmed += st.Journal.Trimmed
			cover.rejoins += uint64(st.Rejoins)
			cover.failovers += uint64(st.Failovers)
		})
	}
	if cover.vetoes == 0 || cover.deduped == 0 || cover.trimmed == 0 || cover.rejoins == 0 || cover.failovers == 0 {
		t.Fatalf("schedules left a path unexercised: %+v", cover)
	}
}

// tickSchedule is one random fault schedule of TestFleetTickParity: a
// fleet configuration of 1–3 guarded workers whose node budgets veto,
// dedup on or off, on some seeds a journal small enough that rebuilds
// trim, and an event stream with redelivered duplicates.
type tickSchedule struct {
	cfg     Config
	events  []uerl.Event
	workers int
	rng     *mathx.RNG
}

func newTickSchedule(seed int64, perRun int) *tickSchedule {
	rng := mathx.NewRNG(seed)
	workers := 1 + rng.Intn(3)
	nodes := 2 + rng.Intn(8)
	step := time.Duration(10+rng.Intn(50)) * time.Second
	budget := 0.05 + 0.1*rng.Float64()
	window := time.Duration(10+rng.Intn(50)) * time.Minute
	sc := &tickSchedule{workers: workers, rng: rng}
	sc.cfg = Config{
		Workers: workers, Seed: seed, Initial: uerl.AlwaysPolicy(),
		NewWorker: func(id int) *Worker {
			return NewWorker(id, uerl.AlwaysPolicy(), WithWorkerGuard(uerl.WithNodeCheckpointBudget(budget, window)))
		},
		JournalCapacity: 2 * perRun,
	}
	if rng.Intn(2) == 0 {
		sc.cfg.DedupWindow = 5 * time.Second
	}
	if rng.Intn(3) == 0 {
		sc.cfg.JournalCapacity = 2 + rng.Intn(6)
	}
	for _, e := range genStream(seed, nodes, perRun, step) {
		sc.events = append(sc.events, e)
		if rng.Float64() < 0.1 {
			dup := e
			dup.Time = dup.Time.Add(time.Second)
			sc.events = append(sc.events, dup)
		}
	}
	return sc
}

// fault draws the fault before the next event and applies it alike to
// every fleet (coordinators cs over transports trs): a kill, a
// kill-then-rejoin restart the coordinators never see fail, a hang, a
// rejoin, a Reconcile, or nothing. It returns the next tick's potential
// cost.
func (sc *tickSchedule) fault(cs []*Coordinator, trs []*ChanTransport) (cost float64) {
	w, r := sc.rng.Intn(sc.workers), sc.rng.Float64()
	for i, tr := range trs {
		switch {
		case r < 0.02:
			tr.Kill(w)
		case r < 0.04:
			tr.Kill(w)
			tr.Rejoin(w)
		case r < 0.06:
			tr.Hang(w)
		case r < 0.10:
			tr.Rejoin(w)
		case r < 0.11:
			cs[i].Reconcile()
		}
	}
	return float64(10 + sc.rng.Intn(200))
}

// countingTransport counts the calls it forwards.
type countingTransport struct {
	inner Transport
	calls int
}

func (c *countingTransport) Call(w int, req *Request, resp *Response) error {
	c.calls++
	return c.inner.Call(w, req, resp)
}

// steadyFleet builds a two-worker fleet of guarded workers whose budget
// never trips, over a counting transport, and warms every node up so
// ticks run in steady state: 16 nodes in rotation, a minute apart, each
// at one fixed location. next returns the following tick's event.
func steadyFleet(tb testing.TB) (c *Coordinator, ct *countingTransport, next func() uerl.Event) {
	const nodes = 16
	return warmFleet(tb, 0, 4*nodes, func(i int) int { return i % nodes })
}

// warmFleet is steadyFleet over journal windows of capacity events (0:
// the default), warmed with warm ticks, whose i-th tick's node is
// node(i).
func warmFleet(tb testing.TB, capacity, warm int, node func(i int) int) (c *Coordinator, ct *countingTransport, next func() uerl.Event) {
	tb.Helper()
	factory := func(id int) *Worker {
		return NewWorker(id, uerl.AlwaysPolicy(), WithWorkerGuard(uerl.WithNodeCheckpointBudget(1e12, time.Hour)))
	}
	ct = &countingTransport{inner: NewChanTransport(2, factory)}
	cfg := Config{Workers: 2, Seed: 1, Initial: uerl.AlwaysPolicy(), NewWorker: factory, JournalCapacity: capacity}
	c, err := NewCoordinator(cfg, ct)
	if err != nil {
		tb.Fatal(err)
	}
	t0 := time.Unix(1_700_000_000, 0).UTC()
	i := 0
	next = func() uerl.Event {
		e := ev(node(i), t0.Add(time.Duration(i)*time.Minute), 1)
		i++
		return e
	}
	for range warm {
		fusedTick(c, next(), 100)
	}
	return c, ct, next
}

// TestCoordinatorTickOneCallZeroAlloc pins the fused path's cost: a
// steady-state tick on a live, guarded owner is exactly one transport
// call and allocates nothing, end to end through the in-process
// transport and the worker.
func TestCoordinatorTickOneCallZeroAlloc(t *testing.T) {
	c, ct, next := steadyFleet(t)
	for range 32 {
		before := ct.calls
		if d := fusedTick(c, next(), 100); d.Degraded || d.Vetoed || !d.Mitigate() {
			t.Fatalf("steady-state tick not served by the owner: %+v", d)
		}
		if n := ct.calls - before; n != 1 {
			t.Fatalf("steady-state tick made %d transport calls, want 1", n)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { fusedTick(c, next(), 100) }); allocs != 0 {
		t.Fatalf("steady-state tick allocated %.2f times, want 0", allocs)
	}
}

// BenchmarkCoordinatorTick measures one steady-state decision tick
// through a two-worker in-process fleet with guarded workers.
func BenchmarkCoordinatorTick(b *testing.B) {
	c, _, next := steadyFleet(b)
	b.ReportAllocs()
	for b.Loop() {
		fusedTick(c, next(), 100)
	}
}

// BenchmarkCoordinatorTickWorkingSet is BenchmarkCoordinatorTick over a
// fleet-sized working set: 240 nodes with full 256-event journal windows,
// each tick's node drawn at random as in a telemetry stream, so the
// coordinator's ledger, the journal and the workers' trackers and guard
// windows no longer fit in cache.
func BenchmarkCoordinatorTickWorkingSet(b *testing.B) {
	const nodes, window = 240, 256
	order := mathx.NewRNG(31)
	pick := func(int) int { return order.Intn(nodes) }
	c, _, next := warmFleet(b, window, 2*nodes*window, pick)
	if st := c.Stats().Journal; st.Nodes != nodes || st.Trimmed == 0 {
		b.Fatalf("warm-up left %d nodes, %d trimmed; want %d nodes with full windows", st.Nodes, st.Trimmed, nodes)
	}
	b.ReportAllocs()
	for b.Loop() {
		fusedTick(c, next(), 100)
	}
}

// TestWorkerRefusesMisalignedTick: a worker applies a ReqTick's suffix
// and then serves its Event through its controller's fused Tick, so a
// suffix holding another node's event is refused in Response.Err with
// nothing applied, never answered by guessing. An aligned tick, with or
// without a suffix, answers exactly what ObserveEvent and Recommend on a
// twin controller answer, also when the suffix holds an event later
// than the tick's own (an out-of-order stream, journaled in arrival
// order).
func TestWorkerRefusesMisalignedTick(t *testing.T) {
	w := NewWorker(0, uerl.AlwaysPolicy(), WithWorkerGuard(uerl.WithNodeCheckpointBudget(1, time.Hour)))
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	e1 := uerl.Event{Time: base, Node: 3, DIMM: 1, Type: uerl.CorrectedError, Count: 2, Rank: 0, Bank: 1, Row: 5, Col: 2}
	e2 := e1
	e2.Time = base.Add(time.Minute)
	e3 := e1
	e3.Time = base.Add(2 * time.Minute)
	other := e1
	other.Node = 4
	req := Request{Kind: ReqTick, Event: e2, Events: []uerl.Event{other}}
	var resp Response
	w.handle(&req, &resp)
	if resp.Err != errTickSuffix {
		t.Fatalf("other node: Err = %q, want %q", resp.Err, errTickSuffix)
	}
	if n := w.ctl.NodeCount(); n != 0 {
		t.Fatalf("other node: refused tick applied events (%d nodes tracked)", n)
	}
	twin := uerl.NewController(uerl.AlwaysPolicy())
	for _, req := range []Request{
		{Kind: ReqTick, Event: e1, Cost: 100},
		{Kind: ReqTick, Event: e2, Cost: 100, Events: []uerl.Event{e3}},
	} {
		var resp Response
		w.handle(&req, &resp)
		for _, e := range append(req.Events, req.Event) {
			twin.ObserveEvent(e)
		}
		if want := twin.Recommend(3, req.Event.Time, 100); resp.Err != "" || resp.Decision != want {
			t.Fatalf("aligned tick with %d-event suffix answered %+v (err %q), want %+v", len(req.Events), resp.Decision, resp.Err, want)
		}
	}
}

// scrubTransport proves the coordinator's reuse of one Request and one
// Response safe. Before each call it fills every Response field but Err
// with garbage, so a field the worker did not write for the kind reads
// as garbage, and it hands the worker a fresh Request holding only the
// fields the kind documents, so a field left over from an earlier
// request cannot reach it.
type scrubTransport struct{ inner Transport }

func (s *scrubTransport) Call(w int, req *Request, resp *Response) error {
	*resp = Response{
		Decision: uerl.Decision{
			Node: -99, Action: uerl.ActionMitigate, Score: math.NaN(), HasQ: true,
			Policy: "garbage", ModelVersion: "garbage", Vetoed: true, Degraded: true, StaleEvents: 99,
		},
		Normed:      true,
		Stats:       WorkerStats{Nodes: -1, ServingVersion: "garbage", Guard: &uerl.GuardStats{}},
		Version:     "garbage",
		Err:         resp.Err,
		Incarnation: 1 << 40,
	}
	for i := range resp.Normalized {
		resp.Normalized[i], resp.Decision.Features[i] = math.NaN(), -1
	}
	clean := Request{Kind: req.Kind}
	switch req.Kind {
	case ReqObserve:
		clean.Event = req.Event
	case ReqReplay:
		clean.Node, clean.Events, clean.Forget = req.Node, req.Events, req.Forget
	case ReqForget:
		clean.Node = req.Node
	case ReqRecommend:
		clean.Node, clean.At, clean.Cost = req.Node, req.At, req.Cost
	case ReqStage:
		clean.Artifact = req.Artifact
	case ReqCommit:
		clean.Version = req.Version
	case ReqObserveDecision:
		clean.Decision = req.Decision
	case ReqTick:
		clean.Event, clean.Events, clean.Cost, clean.Incarnation = req.Event, req.Events, req.Cost, req.Incarnation
	}
	return s.inner.Call(w, &clean, resp)
}

// TestFleetReusedCallParity runs TestFleetTickParity's schedules through
// two fleets, one over the plain in-process transport and one over
// scrubTransport, with queries that ingest nothing and deploys (one
// worker's stage gate refusing the Never policy, so some deploys abort)
// mixed in, and demands identical decisions, deploy outcomes and Stats.
func TestFleetReusedCallParity(t *testing.T) {
	const (
		schedules = 100
		perRun    = 160
	)
	var deploys, rejected int
	for seed := int64(1); seed <= schedules; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := newTickSchedule(seed, perRun)
			newWorker := sc.cfg.NewWorker
			sc.cfg.NewWorker = func(id int) *Worker {
				w := newWorker(id)
				if id == 0 {
					w.stageGate = func(version string) error {
						if version == uerl.NeverPolicy().Version() {
							return fmt.Errorf("worker 0 refuses %s", version)
						}
						return nil
					}
				}
				return w
			}
			plainTr := NewChanTransport(sc.workers, sc.cfg.NewWorker)
			scrubTr := NewChanTransport(sc.workers, sc.cfg.NewWorker)
			plain, err := NewCoordinator(sc.cfg, plainTr)
			if err != nil {
				t.Fatal(err)
			}
			scrub, err := NewCoordinator(sc.cfg, &scrubTransport{inner: scrubTr})
			if err != nil {
				t.Fatal(err)
			}
			policies := []uerl.Policy{uerl.NeverPolicy(), uerl.AlwaysPolicy()}
			for i, e := range sc.events {
				cost := sc.fault([]*Coordinator{plain, scrub}, []*ChanTransport{plainTr, scrubTr})
				switch r := sc.rng.Float64(); {
				case e.Type == uerl.UncorrectedError:
					plain.ObserveEvent(e)
					scrub.ObserveEvent(e)
				case r < 0.03:
					p := policies[sc.rng.Intn(2)]
					_, errPlain := plain.DeployPolicy(p)
					_, errScrub := scrub.DeployPolicy(p)
					if (errPlain == nil) != (errScrub == nil) {
						t.Fatalf("event %d: deploy of %s: plain err %v, scrubbed err %v", i, p.Version(), errPlain, errScrub)
					}
					deploys++
					if errPlain != nil {
						rejected++
					}
				case r < 0.10:
					want := plain.Recommend(e.Node, e.Time, cost)
					if got := scrub.Recommend(e.Node, e.Time, cost); got != want {
						t.Fatalf("event %d: query served\n%+v\nscrubbed\n%+v", i, want, got)
					}
				case r < 0.25:
					plain.ObserveEvent(e)
					scrub.ObserveEvent(e)
					want := plain.Recommend(e.Node, e.Time, cost)
					if got := scrub.Recommend(e.Node, e.Time, cost); got != want {
						t.Fatalf("event %d: recommend served\n%+v\nscrubbed\n%+v", i, want, got)
					}
					plain.ObserveDecision(want)
					scrub.ObserveDecision(want)
				default:
					var got, want uerl.Decision
					var norm [uerl.FeatureDim]float64
					normedPlain := plain.TickInto(&want, e, cost, &norm)
					if normed := scrub.TickInto(&got, e, cost, &norm); got != want || normed != normedPlain {
						t.Fatalf("event %d: tick served\n%+v (normed %v)\nscrubbed\n%+v (normed %v)", i, want, normedPlain, got, normed)
					}
				}
			}
			plain.Reconcile()
			scrub.Reconcile()
			if got, want := scrub.Stats(), plain.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("stats diverged:\nplain    %+v\nscrubbed %+v", want, got)
			}
		})
	}
	if deploys == 0 || rejected == 0 || rejected == deploys {
		t.Fatalf("schedules left a deploy path unexercised: %d deploys, %d rejected", deploys, rejected)
	}
}
