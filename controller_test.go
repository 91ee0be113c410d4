package uerl

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/policies"
)

// testRLPolicy builds an untrained but fully wired RL serving policy
// (training is irrelevant to the serving-path mechanics under test).
func testRLPolicy(t testing.TB) Policy {
	t.Helper()
	net := nn.New(nn.Config{Inputs: features.Dim, Hidden: []int{16, 8}, Outputs: 2, Dueling: true, Seed: 3})
	p, err := newRLPolicy(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// degradingEvents is a CE storm on one node, dense enough to give the
// variation features non-trivial history.
func degradingEvents(node int, base time.Time, n int) []Event {
	evs := make([]Event, 0, n+2)
	evs = append(evs, Event{Time: base, Node: node, Type: NodeBoot, DIMM: -1, Rank: -1, Bank: -1, Row: -1, Col: -1})
	for i := 0; i < n; i++ {
		evs = append(evs, Event{
			Time: base.Add(time.Duration(i) * time.Minute),
			Node: node, DIMM: 8, Type: CorrectedError, Count: 10 + i,
			Rank: 0, Bank: 1, Row: 900 + i%5, Col: 12,
		})
	}
	evs = append(evs, Event{Time: base.Add(time.Duration(n) * time.Minute), Node: node,
		Type: UEWarning, DIMM: 8, Rank: -1, Bank: -1, Row: -1, Col: -1})
	return evs
}

// TestRecommendSideEffectFree is the regression test for the old
// Controller, whose Recommend called Tracker.Observe and therefore changed
// a node's features every time it was polled. Two controllers fed the same
// event stream must end in the same state even when one is polled heavily
// between events.
func TestRecommendSideEffectFree(t *testing.T) {
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	polled := NewController(AlwaysPolicy())
	quiet := NewController(AlwaysPolicy())

	for i, ev := range degradingEvents(5, base, 120) {
		polled.ObserveEvent(ev)
		quiet.ObserveEvent(ev)
		// Poll between every pair of events, including at times that fall
		// inside the Eq. 2 variation windows.
		for j := 0; j < 3; j++ {
			at := ev.Time.Add(time.Duration(j*13) * time.Second)
			polled.Recommend(5, at, float64(i*j))
		}
	}

	at := base.Add(3 * time.Hour)
	got := polled.Recommend(5, at, 42).Features
	want := quiet.Recommend(5, at, 42).Features
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("feature %d diverged after polling: got %v want %v\n got=%v\nwant=%v",
				i, got[i], want[i], got, want)
		}
	}

	// Polling an unknown node must not allocate tracker state either.
	polled.Recommend(999, at, 1)
	if n, m := polled.NodeCount(), quiet.NodeCount(); n != m {
		t.Fatalf("polling changed node count: %d vs %d", n, m)
	}
}

func TestRecommendUnknownNode(t *testing.T) {
	ctl := NewController(AlwaysPolicy())
	at := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	d := ctl.Recommend(31, at, 17)
	if !d.Mitigate() || d.Node != 31 || !d.Time.Equal(at) {
		t.Fatalf("bad decision for unknown node: %+v", d)
	}
	if d.Features[features.UECost] != 17 {
		t.Fatalf("cost feature = %v, want 17", d.Features[features.UECost])
	}
	for i := 0; i < features.UECost; i++ {
		if d.Features[i] != 0 {
			t.Fatalf("unknown node has non-empty feature %d = %v", i, d.Features[i])
		}
	}
}

func TestObserveBatch(t *testing.T) {
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	var batch []Event
	for node := 0; node < 32; node++ {
		batch = append(batch, degradingEvents(node, base, 10)...)
	}

	batched := NewController(AlwaysPolicy())
	n, err := batched.ObserveBatch(context.Background(), batch)
	if err != nil || n != len(batch) {
		t.Fatalf("ObserveBatch = %d, %v; want %d, nil", n, err, len(batch))
	}
	if batched.NodeCount() != 32 {
		t.Fatalf("tracked %d nodes, want 32", batched.NodeCount())
	}

	// Batch ingestion must land in the same state as one-by-one ingestion.
	single := NewController(AlwaysPolicy())
	for _, ev := range batch {
		single.ObserveEvent(ev)
	}
	at := base.Add(time.Hour)
	for node := 0; node < 32; node++ {
		got := batched.Recommend(node, at, 1).Features
		want := single.Recommend(node, at, 1).Features
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %d feature %d: batch %v vs single %v", node, i, got[i], want[i])
			}
		}
	}

	if n, err := batched.ObserveBatch(context.Background(), nil); n != 0 || err != nil {
		t.Fatalf("empty batch = %d, %v", n, err)
	}
}

func TestObserveBatchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctl := NewController(AlwaysPolicy())
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	n, err := ctl.ObserveBatch(ctx, degradingEvents(1, base, 10))
	if err == nil {
		t.Fatal("cancelled batch reported success")
	}
	if n != 0 {
		t.Fatalf("cancelled batch ingested %d events before the first shard", n)
	}
}

// The shard count is shardsPerP per P, rounded up to a power of two and
// capped at maxShards, and NewController sizes itself by GOMAXPROCS.
func TestShardCountDerivation(t *testing.T) {
	for _, tc := range []struct{ procs, want int }{
		{1, 128}, {2, 256}, {3, 512}, {8, 1024}, {64, 1024},
	} {
		if got := shardCount(tc.procs); got != tc.want {
			t.Fatalf("shardCount(%d) = %d, want %d", tc.procs, got, tc.want)
		}
	}
	ctl := NewController(AlwaysPolicy())
	if got, want := len(ctl.shards), shardCount(runtime.GOMAXPROCS(0)); got != want {
		t.Fatalf("NewController built %d shards, want %d", got, want)
	}
}

// TestControllerConcurrency hammers one controller from many goroutines —
// mixed single/batch ingestion, recommendations and forgets across
// overlapping nodes — and is meant to run under -race (as CI does).
func TestControllerConcurrency(t *testing.T) {
	ctl := NewController(testRLPolicy(t))
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

	const workers = 8
	const nodes = 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 200; i++ {
				node := (w + i) % nodes
				at := base.Add(time.Duration(i) * time.Minute)
				switch i % 4 {
				case 0:
					ctl.ObserveEvent(Event{Time: at, Node: node, DIMM: 8,
						Type: CorrectedError, Count: 5, Rank: 0, Bank: 1, Row: i, Col: 2})
				case 1:
					if _, err := ctl.ObserveBatch(ctx, degradingEvents(node, at, 5)); err != nil {
						t.Error(err)
						return
					}
				case 2:
					d := ctl.Recommend(node, at, float64(i))
					if d.Node != node {
						t.Errorf("decision for node %d answered node %d", node, d.Node)
						return
					}
				case 3:
					if i%40 == 3 {
						ctl.Forget(node)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := ctl.NodeCount(); n == 0 || n > nodes {
		t.Fatalf("tracked %d nodes, want 1..%d", n, nodes)
	}
}

// TestControllerReadsArePrefixConsistent polls one node's Recommend,
// features included, while another goroutine ingests the node's stream. Every read
// must equal a twin controller's answer after some prefix of the stream,
// and no read may map to an earlier prefix than the read before it: a
// reader sees whole events, in order, never a torn or rolled-back state.
func TestControllerReadsArePrefixConsistent(t *testing.T) {
	const node, cost = 3, 40.0
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	stream := degradingEvents(node, base, 300)
	at := stream[len(stream)-1].Time.Add(time.Hour)
	policy := testRLPolicy(t)

	// decs[k] is the twin's answer after the first k events.
	twin := NewController(policy)
	decs := make([]Decision, len(stream)+1)
	for k := 0; ; k++ {
		decs[k] = twin.Recommend(node, at, cost)
		if k == len(stream) {
			break
		}
		twin.ObserveEvent(stream[k])
	}

	ctl := NewController(policy)
	var done atomic.Bool
	go func() {
		for _, ev := range stream {
			ctl.ObserveEvent(ev)
			runtime.Gosched() // interleave with the poller at GOMAXPROCS 1 too
		}
		done.Store(true)
	}()
	// prefix is the earliest prefix every read so far is consistent with;
	// each read advances it to the first matching prefix at or after it.
	prefix, reads := 0, 0
	for finished := false; !finished; {
		finished = done.Load()
		d := ctl.Recommend(node, at, cost)
		reads++
		k := prefix
		for k < len(decs) && d != decs[k] {
			k++
		}
		if k == len(decs) {
			t.Fatalf("Recommend read %d matches no prefix at or after %d", reads, prefix)
		}
		prefix = k
		runtime.Gosched()
	}
	if prefix != len(stream) {
		t.Fatalf("final read maps to prefix %d, want the whole stream (%d)", prefix, len(stream))
	}
}

// TestSwapPolicyPreservesTrackerState is the regression test for the old
// immutable-policy Controller: installing a retrained model used to mean
// rebuilding the whole controller, losing every node's accumulated
// feature history. SwapPolicy must change only the policy.
func TestSwapPolicyPreservesTrackerState(t *testing.T) {
	ctl := NewController(AlwaysPolicy())
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	for node := 0; node < 8; node++ {
		for _, ev := range degradingEvents(node, base, 50) {
			ctl.ObserveEvent(ev)
		}
	}
	at := base.Add(2 * time.Hour)
	var before [8][FeatureDim]float64
	for node := range before {
		before[node] = ctl.Recommend(node, at, 7).Features
	}

	old := ctl.SwapPolicy(NeverPolicy())
	if old.Kind() != PolicyAlways {
		t.Fatalf("SwapPolicy returned %s, want the replaced always policy", old.Kind())
	}
	if ctl.Policy().Kind() != PolicyNever {
		t.Fatalf("serving policy is %s after swap, want never", ctl.Policy().Kind())
	}

	if n := ctl.NodeCount(); n != 8 {
		t.Fatalf("swap dropped tracker state: %d nodes, want 8", n)
	}
	for node := range before {
		after := ctl.Recommend(node, at, 7).Features
		if after != before[node] {
			t.Fatalf("node %d features changed across swap:\n before=%v\n after=%v", node, before[node], after)
		}
	}

	// Decisions now come from the new policy, with its identity.
	d := ctl.Recommend(3, at, 7)
	if d.Mitigate() {
		t.Fatal("never policy mitigated after swap")
	}
	if d.Policy != NeverPolicy().Name() || d.ModelVersion != NeverPolicy().Version() {
		t.Fatalf("post-swap decision identity = %q/%q", d.Policy, d.ModelVersion)
	}
}

// TestSwapPolicyConcurrent hot-swaps between two policies while readers
// hammer Recommend: no call may drop, block, or observe a torn mix of one
// policy's action with the other's identity. Meant for -race.
func TestSwapPolicyConcurrent(t *testing.T) {
	always, never := AlwaysPolicy(), NeverPolicy()
	ctl := NewController(always)
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	for _, ev := range degradingEvents(1, base, 20) {
		ctl.ObserveEvent(ev)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			at := base.Add(time.Hour)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := ctl.Recommend(1, at.Add(time.Duration(i)*time.Second), 5)
				switch d.ModelVersion {
				case always.Version():
					if !d.Mitigate() || d.Policy != always.Name() {
						t.Errorf("torn decision: %+v claims always", d)
						return
					}
				case never.Version():
					if d.Mitigate() || d.Policy != never.Name() {
						t.Errorf("torn decision: %+v claims never", d)
						return
					}
				default:
					t.Errorf("decision from unknown model %q", d.ModelVersion)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		if i%2 == 0 {
			ctl.SwapPolicy(never)
		} else {
			ctl.SwapPolicy(always)
		}
	}
	close(stop)
	wg.Wait()
}

func TestSwapPolicyNilPanics(t *testing.T) {
	ctl := NewController(AlwaysPolicy())
	defer func() {
		if recover() == nil {
			t.Fatal("SwapPolicy(nil) did not panic")
		}
	}()
	ctl.SwapPolicy(nil)
}

// TestServingPathZeroAlloc: the two serving hot paths — single-event
// ingestion and side-effect-free recommendation — must not allocate in
// steady state. Recommend is checked under the RL policy (Q-network
// forward included) and under Never, Always and Oracle.
func TestServingPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool allocate")
	}
	ctl := NewController(testRLPolicy(t))
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	for _, ev := range degradingEvents(1, base, 256) {
		ctl.ObserveEvent(ev)
	}

	ev := Event{Node: 1, DIMM: 8, Type: CorrectedError, Count: 3, Rank: 0, Bank: 1, Row: 100, Col: 2}
	at := base
	allocs := testing.AllocsPerRun(200, func() {
		at = at.Add(time.Second)
		ev.Time = at
		ctl.ObserveEvent(ev)
	})
	if allocs != 0 {
		t.Fatalf("ObserveEvent allocates %v times per run, want 0", allocs)
	}

	query := at.Add(time.Hour)
	oracle := &oraclePolicy{d: policies.NewOracle(map[policies.OracleKey]bool{{Node: 1, Time: query}: true})}
	forest := testForest(t)
	sc20, err := newRFPolicy(forest, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	myopic, err := newMyopicPolicy(forest, 1.0/30, nil)
	if err != nil {
		t.Fatal(err)
	}
	served := []Policy{ctl.Policy(), NeverPolicy(), AlwaysPolicy(), sc20, myopic, oracle}
	for _, p := range served {
		ctl.SwapPolicy(p)
		allocs = testing.AllocsPerRun(200, func() {
			d := ctl.Recommend(1, query, 4200)
			if d.Node != 1 {
				t.Fatal("wrong node")
			}
		})
		if allocs != 0 {
			t.Fatalf("Recommend under %s allocates %v times per run, want 0", p.Kind(), allocs)
		}
	}

	// The fused tick: ingest, decide and guard charge in one call.
	g := NewGuard(ctl, WithNodeCheckpointBudget(0.1, time.Hour), WithProbation(0, 0))
	var d Decision
	var norm [FeatureDim]float64
	for _, p := range served {
		ctl.SwapPolicy(p)
		allocs = testing.AllocsPerRun(200, func() {
			at = at.Add(time.Second)
			ev.Time = at
			if ctl.TickInto(&d, ev, 4200, &norm); d.Node != 1 {
				t.Fatal("wrong node")
			}
		})
		if allocs != 0 {
			t.Fatalf("TickInto under %s allocates %v times per run, want 0", p.Kind(), allocs)
		}
	}
	if g.Stats().SuppressedMitigations == 0 {
		t.Fatal("the guarded ticks never vetoed; the veto path went unmeasured")
	}

	// A guarded learner's decision tick, over a steady-state window that
	// holds no lifecycle event: serving, experience, drift and shadow-free
	// bookkeeping allocate nothing.
	lctl := NewController(testRLPolicy(t))
	lg := NewGuard(lctl, WithNodeCheckpointBudget(0.1, time.Hour), WithProbation(0, 0))
	l := NewServingLearner(lctl, WithGuard(lg), WithLearnerSeed(1), WithCostSource(ConstantCost(4200)))
	for node := 0; node < 4; node++ {
		processAll(l, degradingEvents(node, base, 256))
	}
	events := len(l.Events())
	at = base.Add(300 * time.Minute)
	allocs = testing.AllocsPerRun(400, func() {
		at = at.Add(time.Second)
		ev.Time = at
		l.Process(ev)
	})
	if got := len(l.Events()); got != events {
		t.Fatalf("the measured window recorded %d lifecycle events, want none", got-events)
	}
	if allocs != 0 {
		t.Fatalf("OnlineLearner.Process allocates %v times per decision tick, want 0", allocs)
	}
}

// tickParityStream is a three-node guarded decision stream: CE storms
// with boots, Count 0 CEs, UE warnings and interleaved realized UEs,
// dense enough for a node checkpoint budget to veto.
func tickParityStream() []Event {
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	var evs []Event
	for i := 0; i < 600; i++ {
		at := base.Add(time.Duration(i) * 20 * time.Second)
		e := Event{Time: at, Node: i % 3, DIMM: 8 + i%2, Type: CorrectedError, Count: i % 4,
			Rank: i % 2, Bank: i % 8, Row: 100 + i%13, Col: i % 5}
		switch {
		case i%97 == 5:
			e = Event{Time: at, Node: i % 3, Type: NodeBoot, DIMM: -1, Rank: -1, Bank: -1, Row: -1, Col: -1}
		case i%61 == 7:
			e.Type, e.Count = UEWarning, 0
		case i%89 == 11:
			e.Type, e.Count = UncorrectedError, 1
		}
		evs = append(evs, e)
	}
	return evs
}

// TestControllerTickParity: Controller.TickInto serves the same decisions —
// vetoes, features, scores and versions bit for bit — and charges the
// guard exactly as ObserveEvent, Recommend and Guard.ObserveDecision do,
// so the two controllers end with equal guard stats and audit trails.
func TestControllerTickParity(t *testing.T) {
	stream := tickParityStream()
	for _, p := range []Policy{AlwaysPolicy(), testRLPolicy(t)} {
		fused, split := NewController(p), NewController(p)
		budget := WithNodeCheckpointBudget(0.1, time.Hour)
		gf, gs := NewGuard(fused, budget, WithProbation(0, 0)), NewGuard(split, budget, WithProbation(0, 0))
		kinds := map[EventType]int{}
		for i, e := range stream {
			if e.Type == UncorrectedError {
				fused.ObserveEvent(e)
				split.ObserveEvent(e)
				continue
			}
			cost := float64(1 + (i*37)%500)
			var got Decision
			var norm [FeatureDim]float64
			fused.TickInto(&got, e, cost, &norm)
			split.ObserveEvent(e)
			want := split.Recommend(e.Node, e.Time, cost)
			gs.ObserveDecision(want)
			if got != want {
				t.Fatalf("%s, event %d (%+v): TickInto = %+v, three calls = %+v", p.Kind(), i, e, got, want)
			}
			kinds[e.Type]++
			if got.Vetoed {
				kinds[-1]++
			}
		}
		if kinds[NodeBoot] == 0 || kinds[UEWarning] == 0 || kinds[CorrectedError] == 0 {
			t.Fatalf("stream exercised %v, want boots, warnings and CEs", kinds)
		}
		if p.Kind() == PolicyAlways && kinds[-1] == 0 {
			t.Fatal("the always-mitigate stream never vetoed")
		}
		if st, want := gf.Stats(), gs.Stats(); !reflect.DeepEqual(st, want) {
			t.Fatalf("%s: guard stats after TickInto %+v, after three calls %+v", p.Kind(), st, want)
		}
		if evs, want := gf.Events(), gs.Events(); !reflect.DeepEqual(evs, want) {
			t.Fatalf("%s: audit trail after TickInto %+v, after three calls %+v", p.Kind(), evs, want)
		}
		end := stream[len(stream)-1].Time.Add(time.Minute)
		for node := 0; node < 3; node++ {
			if fused.Recommend(node, end, 1).Features != split.Recommend(node, end, 1).Features {
				t.Fatalf("%s: node %d ends in different feature state", p.Kind(), node)
			}
		}
	}
}

// TestObserveBatchSteadyStateAllocFree: batched ingestion reuses the
// controller-owned per-shard buckets, so after the buckets and trackers
// have grown to the working shape a batch allocates nothing.
func TestObserveBatchSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool allocate")
	}
	ctl := NewController(AlwaysPolicy())
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	batch := benchEvents(1024, 256, base)
	span := batch[len(batch)-1].Time.Sub(batch[0].Time) + time.Second
	ctx := context.Background()
	advance := func() {
		for j := range batch {
			batch[j].Time = batch[j].Time.Add(span)
		}
	}
	// Warm up: grow the pooled buckets and the per-node tracker state
	// (the history rings keep filling until the 2h compaction window is
	// covered, which takes several batches of advancing timestamps).
	for i := 0; i < 16; i++ {
		if _, err := ctl.ObserveBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
		advance()
	}
	allocs := testing.AllocsPerRun(20, func() {
		advance()
		if _, err := ctl.ObserveBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ObserveBatch allocates %v times per batch, want ~0", allocs)
	}
}

// mitigatingRLPolicy is an RL policy whose Q-network always prefers
// ActionMitigate: its advantage rows ignore the input and favour action 1.
func mitigatingRLPolicy(t testing.TB) *rlPolicy {
	t.Helper()
	net := nn.New(nn.Config{Inputs: features.Dim, Hidden: []int{16, 8}, Outputs: 2, Dueling: true, Seed: 5})
	ps := net.Params()
	clear(ps[len(ps)-2].W)
	ps[len(ps)-1].W[0], ps[len(ps)-1].W[1] = 0, 5
	p, err := newRLPolicy(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTickLeavesNormalizedInput pins the one-normalization contract of
// the fused tick: with the built-in RL policy serving, tick reports normed
// and leaves exactly features.Vector(d.Features).NormalizedInto in norm,
// bit for bit, including on a guard veto, on a tick before the node's last
// boot (HoursSinceBoot clamped to 0) and on a Count: 0 CE event. Under any
// other policy (Never, Always, the forest kinds, or an RL policy wrapped
// by a candidate hook) tick reports no normalized input and leaves norm
// untouched, so the learner normalizes itself.
func TestTickLeavesNormalizedInput(t *testing.T) {
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	rlp := mitigatingRLPolicy(t)
	ctl := NewController(rlp)
	NewGuard(ctl, WithNodeCheckpointBudget(0.1, time.Hour), WithProbation(0, 0))
	ce := func(at time.Duration, count int) Event {
		return Event{Time: base.Add(at), Node: 1, DIMM: 8, Type: CorrectedError, Count: count, Rank: 0, Bank: 1, Row: 100, Col: 2}
	}
	evs := []Event{
		{Time: base.Add(10 * time.Hour), Node: 1, Type: NodeBoot, DIMM: -1, Rank: -1, Bank: -1, Row: -1, Col: -1},
		ce(9*time.Hour, 3), // before the boot: HoursSinceBoot clamps to 0
		ce(10*time.Hour+time.Minute, 0),
	}
	for i := 2; i < 8; i++ {
		evs = append(evs, ce(10*time.Hour+time.Duration(i)*time.Minute, i))
	}
	sentinel := func() (n [FeatureDim]float64) {
		for i := range n {
			n[i] = -7
		}
		return n
	}
	var clamped, zeroCount, vetoed bool
	for _, e := range evs {
		var d Decision
		norm := sentinel()
		if !ctl.TickInto(&d, e, 4200, &norm) {
			t.Fatalf("%v event at %v: RL tick reported no normalized input", e.Type, e.Time)
		}
		var want [FeatureDim]float64
		features.Vector(d.Features).NormalizedInto(want[:])
		for i := range want {
			if math.Float64bits(norm[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v event at %v: norm[%d] = %v, NormalizedInto(d.Features) = %v", e.Type, e.Time, i, norm[i], want[i])
			}
		}
		clamped = clamped || (e.Type == CorrectedError && e.Time.Before(base.Add(10*time.Hour)) && d.Features[features.HoursSinceBoot] == 0)
		zeroCount = zeroCount || (e.Type == CorrectedError && e.Count == 0)
		vetoed = vetoed || d.Vetoed
	}
	if !clamped || !zeroCount || !vetoed {
		t.Fatalf("cases not covered: clamped %v, Count 0 %v, veto %v", clamped, zeroCount, vetoed)
	}

	forest := testForest(t)
	sc20, err := newRFPolicy(forest, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	myopic, err := newMyopicPolicy(forest, 1.0/30, nil)
	if err != nil {
		t.Fatal(err)
	}
	hooked := struct{ Policy }{rlp}
	at := base.Add(11 * time.Hour)
	for _, p := range []Policy{NeverPolicy(), AlwaysPolicy(), sc20, myopic, hooked} {
		ctl.SwapPolicy(p)
		at = at.Add(time.Minute)
		var d Decision
		norm := sentinel()
		if ctl.TickInto(&d, ce(at.Sub(base), 2), 4200, &norm) {
			t.Fatalf("%s (%T): tick reported a normalized input", p.Kind(), p)
		}
		if norm != sentinel() {
			t.Fatalf("%s (%T): tick wrote norm %v", p.Kind(), p, norm)
		}
	}
}
