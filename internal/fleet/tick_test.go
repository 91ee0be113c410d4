package fleet

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	uerl "repro"
	"repro/internal/mathx"
)

// TestFleetTickParity is the fused tick's differential test: two fleets
// built alike see the same events and the same random fault schedule,
// one fed by Tick, the other by ObserveEvent → Recommend →
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
			rng := mathx.NewRNG(seed)
			workers := 1 + rng.Intn(3)
			nodes := 2 + rng.Intn(8)
			step := time.Duration(10+rng.Intn(50)) * time.Second
			budget := 0.05 + 0.1*rng.Float64()
			window := time.Duration(10+rng.Intn(50)) * time.Minute
			cfg := Config{
				Workers: workers, Seed: seed, Initial: uerl.AlwaysPolicy(),
				NewWorker: func(id int) *Worker {
					return NewWorker(id, uerl.AlwaysPolicy(), WithWorkerGuard(uerl.WithNodeCheckpointBudget(budget, window)))
				},
				JournalCapacity: 2 * perRun,
			}
			if rng.Intn(2) == 0 {
				cfg.DedupWindow = 5 * time.Second
			}
			if rng.Intn(3) == 0 {
				cfg.JournalCapacity = 2 + rng.Intn(6)
			}
			var events []uerl.Event
			for _, e := range genStream(seed, nodes, perRun, step) {
				events = append(events, e)
				if rng.Float64() < 0.1 {
					dup := e
					dup.Time = dup.Time.Add(time.Second)
					events = append(events, dup)
				}
			}

			fused, fusedTr, err := NewInProcess(cfg)
			if err != nil {
				t.Fatal(err)
			}
			split, splitTr, err := NewInProcess(cfg)
			if err != nil {
				t.Fatal(err)
			}
			both := func(f func(*Coordinator, *ChanTransport)) {
				f(fused, fusedTr)
				f(split, splitTr)
			}

			for i, e := range events {
				w, r := rng.Intn(workers), rng.Float64()
				switch {
				case r < 0.02:
					both(func(_ *Coordinator, tr *ChanTransport) { tr.Kill(w) })
				case r < 0.04:
					both(func(_ *Coordinator, tr *ChanTransport) { tr.Kill(w); tr.Rejoin(w) })
				case r < 0.06:
					both(func(_ *Coordinator, tr *ChanTransport) { tr.Hang(w) })
				case r < 0.10:
					both(func(_ *Coordinator, tr *ChanTransport) { tr.Rejoin(w) })
				case r < 0.11:
					both(func(c *Coordinator, _ *ChanTransport) { c.Reconcile() })
				}
				cost := float64(10 + rng.Intn(200))
				if e.Type == uerl.UncorrectedError {
					both(func(c *Coordinator, _ *ChanTransport) { c.ObserveEvent(e) })
					continue
				}
				got := fused.Tick(e, cost)
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
			both(func(c *Coordinator, _ *ChanTransport) { c.Reconcile() })
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
// ticks run in steady state. next returns the following tick's event:
// nodes in rotation, a minute apart, each at one fixed location.
func steadyFleet(tb testing.TB) (c *Coordinator, ct *countingTransport, next func() uerl.Event) {
	tb.Helper()
	factory := func(id int) *Worker {
		return NewWorker(id, uerl.AlwaysPolicy(), WithWorkerGuard(uerl.WithNodeCheckpointBudget(1e12, time.Hour)))
	}
	ct = &countingTransport{inner: NewChanTransport(2, factory)}
	c, err := NewCoordinator(Config{Workers: 2, Seed: 1, Initial: uerl.AlwaysPolicy(), NewWorker: factory}, ct)
	if err != nil {
		tb.Fatal(err)
	}
	const nodes = 16
	t0 := time.Unix(1_700_000_000, 0).UTC()
	i := 0
	next = func() uerl.Event {
		e := ev(i%nodes, t0.Add(time.Duration(i)*time.Minute), 1)
		i++
		return e
	}
	for range 4 * nodes {
		c.Tick(next(), 100)
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
		if d := c.Tick(next(), 100); d.Degraded || d.Vetoed || !d.Mitigate() {
			t.Fatalf("steady-state tick not served by the owner: %+v", d)
		}
		if n := ct.calls - before; n != 1 {
			t.Fatalf("steady-state tick made %d transport calls, want 1", n)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { c.Tick(next(), 100) }); allocs != 0 {
		t.Fatalf("steady-state tick allocated %.2f times, want 0", allocs)
	}
}

// BenchmarkCoordinatorTick measures one steady-state decision tick
// through a two-worker in-process fleet with guarded workers.
func BenchmarkCoordinatorTick(b *testing.B) {
	c, _, next := steadyFleet(b)
	b.ReportAllocs()
	for b.Loop() {
		c.Tick(next(), 100)
	}
}

// TestWorkerRefusesMisalignedTick: a worker serves a ReqTick's last event
// through its controller's fused Tick, so a suffix that does not end at
// the queried (node, time) is refused in Response.Err with nothing
// applied, never answered by guessing. An aligned
// tick answers exactly what ObserveEvent and Recommend on a twin
// controller answer.
func TestWorkerRefusesMisalignedTick(t *testing.T) {
	w := NewWorker(0, uerl.AlwaysPolicy(), WithWorkerGuard(uerl.WithNodeCheckpointBudget(1, time.Hour)))
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	e1 := uerl.Event{Time: base, Node: 3, DIMM: 1, Type: uerl.CorrectedError, Count: 2, Rank: 0, Bank: 1, Row: 5, Col: 2}
	e2 := e1
	e2.Time = base.Add(time.Minute)
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"empty suffix", Request{Kind: ReqTick, Node: 3, At: base}},
		{"other node", Request{Kind: ReqTick, Node: 4, At: e2.Time, Events: []uerl.Event{e1, e2}}},
		{"earlier time", Request{Kind: ReqTick, Node: 3, At: e1.Time, Events: []uerl.Event{e1, e2}}},
	} {
		var resp Response
		w.handle(&tc.req, &resp)
		if resp.Err != errTickSuffix {
			t.Fatalf("%s: Err = %q, want %q", tc.name, resp.Err, errTickSuffix)
		}
		if n := w.ctl.NodeCount(); n != 0 {
			t.Fatalf("%s: refused tick applied events (%d nodes tracked)", tc.name, n)
		}
	}
	req := Request{Kind: ReqTick, Node: 3, At: e2.Time, Cost: 100, Events: []uerl.Event{e1, e2}}
	var resp Response
	w.handle(&req, &resp)
	twin := uerl.NewController(uerl.AlwaysPolicy())
	twin.ObserveEvent(e1)
	twin.ObserveEvent(e2)
	if want := twin.Recommend(3, e2.Time, 100); resp.Err != "" || resp.Decision != want {
		t.Fatalf("aligned tick answered %+v (err %q), want %+v", resp.Decision, resp.Err, want)
	}
}
