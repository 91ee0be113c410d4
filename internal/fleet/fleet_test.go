package fleet

import (
	"fmt"
	"testing"
	"time"

	uerl "repro"
	"repro/internal/mathx"
)

// genStream builds a deterministic telemetry stream: n events spread over
// nodes, strictly increasing time (per node and globally), a realistic
// mix of CE records with varying counts/locations plus occasional
// warnings, boots and UEs.
func genStream(seed int64, nodes, n int, step time.Duration) []uerl.Event {
	rng := mathx.NewRNG(seed)
	t0 := time.Unix(1_700_000_000, 0).UTC()
	out := make([]uerl.Event, 0, n)
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i) * step)
		e := uerl.Event{
			Time: at,
			Node: rng.Intn(nodes),
			DIMM: rng.Intn(4),
			Rank: rng.Intn(2), Bank: rng.Intn(8),
			Row: rng.Intn(1 << 12), Col: rng.Intn(1 << 10),
		}
		switch r := rng.Float64(); {
		case r < 0.90:
			e.Type = uerl.CorrectedError
			e.Count = 1 + rng.Intn(20)
		case r < 0.95:
			e.Type = uerl.UEWarning
		case r < 0.98:
			e.Type = uerl.NodeBoot
		default:
			e.Type = uerl.UncorrectedError
		}
		out = append(out, e)
	}
	return out
}

// TestFleetRoutingDeterminism replays the same stream through two
// identically configured fleets with the same fault schedule and demands
// a byte-identical decision stream (Decision is ==-comparable).
func TestFleetRoutingDeterminism(t *testing.T) {
	events := genStream(3, 24, 1200, 45*time.Second)
	run := func() []uerl.Decision {
		coord, tr, err := NewInProcess(Config{Workers: 3, Seed: 9, Initial: uerl.AlwaysPolicy()})
		if err != nil {
			t.Fatal(err)
		}
		var ds []uerl.Decision
		for i, e := range events {
			if i == 300 {
				tr.Kill(1)
			}
			if i == 700 {
				tr.Rejoin(1)
			}
			coord.ObserveEvent(e)
			ds = append(ds, coord.Recommend(e.Node, e.Time, 100))
		}
		return ds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestFleetDegradedContract kills the whole fleet and checks Recommend
// stays live: conservative ActionNone, Degraded flagged with a reason,
// never a block, error or panic; staleness grows with the journaled
// backlog and is repaid after rejoin.
func TestFleetDegradedContract(t *testing.T) {
	coord, tr, err := NewInProcess(Config{
		Workers: 1, Seed: 4, Initial: uerl.AlwaysPolicy(),
		JournalCapacity: 4, FailureThreshold: 2, RetryBackoff: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1_700_000_000, 0).UTC()
	tr.Kill(0)
	var last uerl.Decision
	for i := 0; i < 10; i++ {
		at := t0.Add(time.Duration(i) * 2 * time.Minute)
		coord.ObserveEvent(ev(7, at, i+1))
		last = coord.Recommend(7, at, 50)
		if !last.Degraded || last.Action != uerl.ActionNone || last.DegradeReason == "" {
			t.Fatalf("event %d: want live degraded ActionNone answer, got %+v", i, last)
		}
	}
	if last.StaleEvents != 10 {
		t.Fatalf("staleness with full backlog = %d, want 10", last.StaleEvents)
	}
	if st := coord.Stats(); st.OrphanNodes != 1 || st.Failovers != 1 {
		t.Fatalf("orphaned fleet stats: %+v", st)
	}
	// Unknown nodes degrade too (no live worker to answer from empty state).
	if d := coord.Recommend(404, t0.Add(time.Hour), 50); !d.Degraded || d.DegradeReason != DegradeNoWorkers {
		t.Fatalf("unknown-node degraded answer: %+v", d)
	}

	// Rejoin: the bounded journal (capacity 4) rebuilds what it kept; the
	// 6 trimmed events are permanently lost and stay visible as the
	// staleness floor of otherwise healthy decisions.
	tr.Rejoin(0)
	coord.Reconcile()
	d := coord.Recommend(7, t0.Add(time.Hour), 50)
	if d.Degraded {
		t.Fatalf("post-rejoin decision still degraded: %+v", d)
	}
	if d.StaleEvents != 6 {
		t.Fatalf("post-rebuild staleness = %d, want 6 (trimmed events)", d.StaleEvents)
	}
	st := coord.Stats()
	if st.Rejoins != 1 || st.Journal.Trimmed != 6 {
		t.Fatalf("post-rejoin stats: %+v", st)
	}
}

// TestFleetFailoverMovesOnlyDeadWorkersNodes pins the rendezvous-hashing
// minimal-disruption property: a death moves exactly the dead worker's
// nodes, a rejoin moves exactly those nodes back.
func TestFleetFailoverMovesOnlyDeadWorkersNodes(t *testing.T) {
	coord, tr, err := NewInProcess(Config{
		Workers: 4, Seed: 2, Initial: uerl.NeverPolicy(),
		FailureThreshold: 2, RetryBackoff: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1_700_000_000, 0).UTC()
	nodes := 32
	for i := 0; i < nodes; i++ {
		coord.ObserveEvent(ev(i, t0.Add(time.Duration(i)*time.Second), 1))
	}
	before := map[int]int{}
	for n := 0; n < nodes; n++ {
		before[n] = coord.hrwOwner(n)
	}
	victim := 2
	tr.Kill(victim)
	// Drive enough spaced traffic for the failure threshold to trip.
	for i := 0; i < nodes*3; i++ {
		coord.ObserveEvent(ev(i%nodes, t0.Add(time.Hour+time.Duration(i)*time.Minute), 1))
	}
	coord.Reconcile()
	if st := coord.Stats(); st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}
	moved := 0
	for n := 0; n < nodes; n++ {
		after := coord.nodes[n].owner
		if before[n] == victim {
			if after == victim {
				t.Fatalf("node %d still routed to dead worker", n)
			}
			moved++
		} else if after != before[n] {
			t.Fatalf("node %d moved (%d→%d) though its owner %d stayed live", n, before[n], after, before[n])
		}
	}
	if moved == 0 {
		t.Fatal("victim owned no nodes; test stream too small")
	}
	// Rejoin: exactly the moved nodes return.
	tr.Rejoin(victim)
	for i := 0; i < nodes; i++ {
		coord.ObserveEvent(ev(i, t0.Add(24*time.Hour+time.Duration(i)*time.Minute), 1))
	}
	coord.Reconcile()
	for n := 0; n < nodes; n++ {
		if got := coord.nodes[n].owner; got != before[n] {
			t.Fatalf("node %d not restored after rejoin: owner %d, want %d", n, got, before[n])
		}
	}
	if st := coord.Stats(); st.Rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1", st.Rejoins)
	}
}

// TestFleetDeployQuorum exercises two-phase model distribution: a clean
// rollout commits everywhere; a rollout a worker majority rejects is
// aborted with the incumbent retained.
func TestFleetDeployQuorum(t *testing.T) {
	coord, _, err := NewInProcess(Config{Workers: 3, Seed: 5, Initial: uerl.NeverPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	next := uerl.AlwaysPolicy()
	prev, err := coord.DeployPolicy(next)
	if err != nil {
		t.Fatalf("clean deploy failed: %v", err)
	}
	if prev.Version() != uerl.NeverPolicy().Version() || coord.Policy().Version() != next.Version() {
		t.Fatalf("deploy versions: prev=%s committed=%s", prev.Version(), coord.Policy().Version())
	}
	for _, w := range coord.Stats().Workers {
		if w.Stats == nil || w.Stats.ServingVersion != next.Version() {
			t.Fatalf("worker %d not serving the committed version: %+v", w.ID, w.Stats)
		}
	}

	// Majority rejection: 2 of 3 workers gate the artifact out.
	reject, rejErr := 0, fmt.Errorf("artifact pinned out")
	factory := func(id int) *Worker {
		opts := []WorkerOption{}
		if id < 2 {
			opts = append(opts, WithStageGate(func(string) error { reject++; return rejErr }))
		}
		return NewWorker(id, uerl.NeverPolicy(), opts...)
	}
	coord2, _, err := NewInProcess(Config{Workers: 3, Seed: 5, Initial: uerl.NeverPolicy(), NewWorker: factory})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord2.DeployPolicy(next); err == nil {
		t.Fatal("quorum-rejected deploy reported success")
	}
	if reject != 2 {
		t.Fatalf("stage gate fired %d times, want 2", reject)
	}
	if got := coord2.Policy().Version(); got != uerl.NeverPolicy().Version() {
		t.Fatalf("incumbent lost after rejected deploy: %s", got)
	}
	for _, w := range coord2.Stats().Workers {
		if w.Stats == nil || w.Stats.ServingVersion != uerl.NeverPolicy().Version() {
			t.Fatalf("worker %d drifted after rejected deploy: %+v", w.ID, w.Stats)
		}
		if w.Stats.StagedVersion != "" {
			t.Fatalf("worker %d kept a staged artifact after abort: %+v", w.ID, w.Stats)
		}
	}
}

// TestFleetDeployReachesRejoinedWorker pins the model-stale path: a
// worker that was down through a deploy serves the committed version
// after it rejoins.
func TestFleetDeployReachesRejoinedWorker(t *testing.T) {
	coord, tr, err := NewInProcess(Config{
		Workers: 2, Seed: 8, Initial: uerl.NeverPolicy(),
		FailureThreshold: 2, RetryBackoff: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1_700_000_000, 0).UTC()
	tr.Kill(1)
	for i := 0; i < 8; i++ {
		coord.ObserveEvent(ev(i, t0.Add(time.Duration(i)*2*time.Minute), 1))
	}
	next := uerl.AlwaysPolicy()
	if _, err := coord.DeployPolicy(next); err != nil {
		t.Fatalf("deploy with a down worker failed: %v", err)
	}
	tr.Rejoin(1)
	for i := 0; i < 8; i++ {
		coord.ObserveEvent(ev(i, t0.Add(time.Hour+time.Duration(i)*2*time.Minute), 1))
	}
	coord.Reconcile()
	for _, w := range coord.Stats().Workers {
		if w.State != WorkerLive {
			t.Fatalf("worker %d not live: %+v", w.ID, w)
		}
		if w.Stats == nil || w.Stats.ServingVersion != next.Version() {
			t.Fatalf("worker %d not converged to the deployed model: %+v", w.ID, w.Stats)
		}
	}
}

// TestFleetWorkerGuardVeto checks budget enforcement lives with the
// workers: an Always policy behind a worker guard gets vetoed once the
// routed decision stream exhausts the node budget, and the veto surfaces
// through the coordinator unchanged.
func TestFleetWorkerGuardVeto(t *testing.T) {
	factory := func(id int) *Worker {
		return NewWorker(id, uerl.AlwaysPolicy(), WithWorkerGuard(
			uerl.WithNodeCheckpointBudget(0.1, 24*time.Hour), // ~3 mitigations at 2 node-minutes each
		))
	}
	coord, _, err := NewInProcess(Config{Workers: 2, Seed: 6, Initial: uerl.AlwaysPolicy(), NewWorker: factory})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1_700_000_000, 0).UTC()
	sawVeto := false
	for i := 0; i < 12; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		coord.ObserveEvent(ev(5, at, 1))
		d := coord.Recommend(5, at, 100)
		coord.ObserveDecision(d)
		if d.Vetoed {
			if d.Action != uerl.ActionNone || d.VetoReason == "" {
				t.Fatalf("malformed veto: %+v", d)
			}
			sawVeto = true
		}
	}
	if !sawVeto {
		t.Fatal("worker guard never vetoed an Always policy against a tiny budget")
	}
	st := coord.Stats()
	guarded := false
	for _, w := range st.Workers {
		if w.Stats != nil && w.Stats.Guard != nil && w.Stats.Guard.SuppressedMitigations > 0 {
			guarded = true
		}
	}
	if !guarded {
		t.Fatalf("no worker guard recorded charges: %+v", st.Workers)
	}
}

// TestFleetProbesIdleSuspect: a suspect worker whose nodes see no
// traffic is still probed on the telemetry clock, so it recovers at the
// first event of any node at or after its nextRetry, and not before, and
// the coordinator's early exit from maintain while every worker is live
// never skips a due probe.
func TestFleetProbesIdleSuspect(t *testing.T) {
	c, tr, err := NewInProcess(Config{Workers: 2, Seed: 5, Initial: uerl.AlwaysPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	owned := map[int]int{}
	for n := 0; len(owned) < 2; n++ {
		if _, ok := owned[c.hrwOwner(n)]; !ok {
			owned[c.hrwOwner(n)] = n
		}
	}
	t0 := time.Unix(1_700_000_000, 0).UTC()
	fusedTick(c, ev(owned[0], t0, 1), 100)
	fusedTick(c, ev(owned[1], t0, 1), 100)
	state := func() WorkerState { return c.Stats().Workers[1].State }
	for round := 0; round < 3; round++ {
		// One failed delivery makes worker 1 suspect; it is reachable
		// again at once, but only a probe can find that out.
		at := t0.Add(time.Duration(round+1) * time.Hour)
		tr.Hang(1)
		c.ObserveEvent(ev(owned[1], at, 1))
		tr.Rejoin(1)
		if got := state(); got != WorkerSuspect {
			t.Fatalf("round %d: worker 1 is %s after a failed delivery, want suspect", round, got)
		}
		retry := c.workers[1].nextRetry
		recovered := false
		for i := 1; i <= 120 && !recovered; i++ {
			at := at.Add(time.Duration(i) * time.Second)
			c.ObserveEvent(ev(owned[0], at, 1))
			want := WorkerSuspect
			if !at.Before(retry) {
				want, recovered = WorkerLive, true
			}
			if got := state(); got != want {
				t.Fatalf("round %d: worker 1 is %s at +%ds (nextRetry +%s), want %s", round, got, i, retry.Sub(at.Add(-time.Duration(i)*time.Second)), want)
			}
		}
		if !recovered {
			t.Fatalf("round %d: worker 1 never came due for a probe (nextRetry %v)", round, retry)
		}
		// The recovery caught the idle node's backlog up.
		if st := c.Stats(); st.AckedEvents != st.Journal.Appended {
			t.Fatalf("round %d: %d of %d events acked after recovery", round, st.AckedEvents, st.Journal.Appended)
		}
	}
}
