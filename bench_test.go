// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5) at CI scale, the design-choice ablation benches, and
// micro-benchmarks of the substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The per-figure benches report ns/op for a full regeneration of the
// figure's data at the benchmark world's scale.
package uerl

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/errlog"
	"repro/internal/evalx"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/jobs"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/policies"
	"repro/internal/rf"
	"repro/internal/rl"
	"repro/internal/telemetry"
)

var (
	benchWorldOnce sync.Once
	benchWorld     *experiments.World
)

// world returns a shared CI-scale world for the figure benches.
func world(b *testing.B) *experiments.World {
	b.Helper()
	benchWorldOnce.Do(func() {
		benchWorld = experiments.BuildWorld(experiments.ScaleFor(evalx.PresetCI))
	})
	return benchWorld
}

// ---- One benchmark per paper table/figure ----

// BenchmarkFig3CostBenefit regenerates Figure 3: the total-cost comparison
// of all eight approaches at 2, 5 and 10 node-minute mitigation costs.
func BenchmarkFig3CostBenefit(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		w.ResetCache()
		r := experiments.RunFig3(w)
		r.Render(io.Discard)
	}
}

// BenchmarkFig4TimeSeries regenerates Figure 4: per-split totals.
func BenchmarkFig4TimeSeries(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		w.ResetCache()
		r := experiments.RunFig4(w)
		r.Render(io.Discard)
	}
}

// BenchmarkFig5Manufacturers regenerates Figure 5: MN/All, MN/A, MN/B,
// MN/C and MN/ABC.
func BenchmarkFig5Manufacturers(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		w.ResetCache()
		r := experiments.RunFig5(w)
		r.Render(io.Discard)
	}
}

// BenchmarkFig6Behavior regenerates Figure 6: the agent-behaviour heat map
// over potential UE cost × RF-predicted probability.
func BenchmarkFig6Behavior(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		w.ResetCache()
		r := experiments.RunFig6(w)
		r.Render(io.Discard)
	}
}

// BenchmarkTable2Metrics regenerates Table 2: classification metrics for
// all approaches plus the RL uniform-cost-range rows.
func BenchmarkTable2Metrics(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		w.ResetCache()
		r := experiments.RunTable2(w)
		r.Render(io.Discard)
	}
}

// BenchmarkFig7JobScaling regenerates Figure 7 (both 7a total cost and 7b
// mitigation cost) over a reduced factor sweep.
func BenchmarkFig7JobScaling(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		w.ResetCache()
		r := experiments.RunFig7(w, []float64{0.1, 1, 10})
		r.Render(io.Discard)
	}
}

// BenchmarkLogGeneration regenerates the §2.1 synthetic log and its
// calibration summary.
func BenchmarkLogGeneration(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		r := experiments.RunCalibration(w)
		r.Render(io.Discard)
	}
}

// ---- Ablation benches ----

// BenchmarkAblationPER compares PER against uniform replay (and the other
// design-choice ablations) on one split; the rendered table carries the
// costs.
func BenchmarkAblationPER(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		w.ResetCache()
		r := experiments.RunAblation(w)
		r.Render(io.Discard)
	}
}

// ---- Substrate micro-benchmarks ----

// BenchmarkNNForward measures one forward pass of the paper's
// 256-256-128-64 dueling architecture.
func BenchmarkNNForward(b *testing.B) {
	net := nn.New(nn.Config{Inputs: features.Dim, Hidden: []int{256, 256, 128, 64},
		Outputs: 2, Dueling: true, Seed: 1})
	s := net.NewScratch()
	x := make([]float64, features.Dim)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardInto(s, x)
	}
}

// BenchmarkNNForwardBatch measures a DQN-minibatch (32-sample) batched
// forward pass; ns/sample is the figure comparable with BenchmarkNNForward.
func BenchmarkNNForwardBatch(b *testing.B) {
	const batch = 32
	net := nn.New(nn.Config{Inputs: features.Dim, Hidden: []int{256, 256, 128, 64},
		Outputs: 2, Dueling: true, Seed: 1})
	bs := net.NewBatchScratch(batch)
	xs := make([]float64, batch*features.Dim)
	for i := range xs {
		xs[i] = float64(i%features.Dim) * 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatchInto(bs, xs, batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sample")
}

// BenchmarkNNTrainStepBatched measures one batched DQN train step (32
// samples through forward, backward and Adam as single batched passes);
// ns/sample is the per-sample training cost.
func BenchmarkNNTrainStepBatched(b *testing.B) {
	const batch = 32
	net := nn.New(nn.Config{Inputs: features.Dim, Hidden: []int{256, 256, 128, 64},
		Outputs: 2, Dueling: true, Seed: 1})
	bs := net.NewBatchScratch(batch)
	opt := &nn.Adam{LR: 1e-3}
	xs := make([]float64, batch*features.Dim)
	for i := range xs {
		xs[i] = float64(i%features.Dim) * 0.1
	}
	dOut := make([]float64, batch*2)
	for i := range dOut {
		if i%2 == 0 {
			dOut[i] = 0.1
		} else {
			dOut[i] = -0.1
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatchInto(bs, xs, batch)
		net.ZeroGrad()
		net.BackwardBatch(bs, dOut, batch)
		opt.Step(net.Params())
		net.InvalidateFast()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sample")
}

// BenchmarkDQNTrainEpoch measures a 32-step DQN training epoch (batched
// forward/backward/Adam over PER minibatches plus one target sync) at the
// paper's 256-256-128-64 width under the chunked trainer.
func BenchmarkDQNTrainEpoch(b *testing.B) {
	const stepsPerEpoch = 32
	p := rl.NewPrioritizedReplay(rl.PERConfig{Capacity: 1 << 13})
	rng := mathx.NewRNG(7)
	for i := 0; i < 1<<13; i++ {
		tr := rl.Transition{
			S:     make([]float64, features.Dim),
			NextS: make([]float64, features.Dim),
			A:     i % 2, R: rng.NormFloat64(), Done: i%97 == 0,
		}
		for j := range tr.S {
			tr.S[j] = rng.NormFloat64()
			tr.NextS[j] = rng.NormFloat64()
		}
		p.Add(tr)
	}
	a := rl.NewAgent(rl.AgentConfig{
		StateLen: features.Dim, NumActions: 2,
		Hidden: []int{256, 256, 128, 64}, Dueling: true, DoubleDQN: true,
		Gamma: 0.99, LearningRate: 1e-3, BatchSize: 32, GradClip: 10,
		Seed: 1,
	}, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < stepsPerEpoch; s++ {
			if _, trained := a.TrainStep(); !trained {
				b.Fatal("train step skipped")
			}
		}
		a.SyncTarget()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stepsPerEpoch), "ns/step")
}

// BenchmarkPERSample measures prioritized replay sampling at DQN batch
// size from a full buffer.
func BenchmarkPERSample(b *testing.B) {
	p := rl.NewPrioritizedReplay(rl.PERConfig{Capacity: 1 << 16})
	tr := rl.Transition{S: make([]float64, features.Dim), NextS: make([]float64, features.Dim)}
	for i := 0; i < 1<<16; i++ {
		p.Add(tr)
	}
	rng := mathx.NewRNG(1)
	trs, handles, ws := make([]rl.Transition, 32), make([]int, 32), make([]float64, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SampleInto(rng, trs, handles, ws)
	}
}

// BenchmarkForestPredict measures one SC20-RF score on a 100-tree forest.
func BenchmarkForestPredict(b *testing.B) {
	rng := mathx.NewRNG(1)
	var x [][]float64
	var y []bool
	for i := 0; i < 2000; i++ {
		v := make([]float64, features.PredictorDim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		x = append(x, v)
		y = append(y, rng.Bool(0.1))
	}
	forest := rf.TrainForest(x, y, rf.DefaultForestConfig())
	probe := x[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forest.PredictProb(probe)
	}
}

// BenchmarkFeatureTracker measures per-tick feature extraction.
func BenchmarkFeatureTracker(b *testing.B) {
	t0 := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	tick := errlog.Tick{Time: t0, Node: 1, Events: []errlog.Event{{
		Time: t0, Node: 1, DIMM: 8, Type: errlog.CE, Count: 17,
		Rank: 1, Bank: 3, Row: 900, Col: 12,
	}}}
	tr := features.NewTracker()
	var v features.Vector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick.Time = t0.Add(time.Duration(i) * time.Minute)
		tick.Events[0].Time = tick.Time
		tr.Observe(tick, 100, &v)
	}
}

// BenchmarkReplayNever measures evalx.ReplayAll throughput with one no-op
// policy (the engine's non-batch Decide fallback) over the full CI-scale
// log, fanning nodes out across GOMAXPROCS workers (the default). Output is
// bit-identical to the serial bench below; only wall clock changes with
// cores.
func BenchmarkReplayNever(b *testing.B) {
	benchReplay(b, 0)
}

// BenchmarkReplayNeverSerial is the single-worker baseline for the
// parallel bench above.
func BenchmarkReplayNeverSerial(b *testing.B) {
	benchReplay(b, 1)
}

func benchReplay(b *testing.B, parallelism int) {
	w := world(b)
	pre := errlog.Preprocess(w.Log)
	byNode := env.GroupTicks(errlog.Merge(pre, errlog.MergeWindow))
	sampler := jobs.NewSampler(w.Trace)
	cfg := evalx.ReplayConfig{Env: env.DefaultConfig(), JobSeed: 1, Parallelism: parallelism}
	ds := []policies.Decider{noopDecider{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evalx.ReplayAll(ds, byNode, sampler, cfg)
	}
}

type noopDecider struct{}

func (noopDecider) Name() string                  { return "noop" }
func (noopDecider) Decide(*policies.Context) bool { return false }
func (noopDecider) ConcurrentSafe() bool          { return true }

// ---- Serving-path benchmarks (the controller hot paths) ----

// servingPolicy builds an RL serving policy over the paper's 256-256-128-64
// architecture — untrained weights, identical inference cost to a trained
// model.
func servingPolicy(b *testing.B) Policy {
	b.Helper()
	net := nn.New(nn.Config{Inputs: features.Dim, Hidden: []int{256, 256, 128, 64},
		Outputs: 2, Dueling: true, Seed: 1})
	p, err := newRLPolicy(net, nil)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchEvents synthesizes an event stream round-robined across nodes with
// non-decreasing per-node timestamps.
func benchEvents(n, nodes int, base time.Time) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			Time: base.Add(time.Duration(i) * time.Second),
			Node: i % nodes, DIMM: 8, Type: CorrectedError, Count: 3,
			Rank: i % 2, Bank: i % 8, Row: 100 + i%50, Col: i % 16,
		}
	}
	return evs
}

// BenchmarkControllerObserveEvent measures single-event ingestion: shard
// lookup, lock, tracker update.
func BenchmarkControllerObserveEvent(b *testing.B) {
	ctl := NewController(AlwaysPolicy())
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	ev := Event{Node: 1, DIMM: 8, Type: CorrectedError, Count: 3, Rank: 0, Bank: 1, Row: 100, Col: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Time = base.Add(time.Duration(i) * time.Second)
		ev.Node = i & 1023
		ctl.ObserveEvent(ev)
	}
}

// BenchmarkControllerObserveBatch measures batched ingestion of 1024
// events across 256 nodes (one shard lock per shard per batch instead of
// one per event); ns/op is per event.
func BenchmarkControllerObserveBatch(b *testing.B) {
	ctl := NewController(AlwaysPolicy())
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	batch := benchEvents(1024, 256, base)
	span := batch[len(batch)-1].Time.Sub(batch[0].Time) + time.Second
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctl.ObserveBatch(ctx, batch); err != nil {
			b.Fatal(err)
		}
		// Keep per-node timestamps advancing across iterations so the
		// steady state, not an ever-growing unsorted history, is measured.
		for j := range batch {
			batch[j].Time = batch[j].Time.Add(span)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/event")
}

// BenchmarkControllerObserveBesidePollers measures single-event ingestion
// over 256 nodes beside 1, 2 and 4 goroutines polling Recommend at the
// newest ingested time on NeverPolicy: the contended write path, where an
// ingest and a poll meeting on one shard park each other. ns/event is the
// ingest cost; polls/s is the pollers' combined rate over the same time.
func BenchmarkControllerObserveBesidePollers(b *testing.B) {
	for _, pollers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("pollers=%d", pollers), func(b *testing.B) {
			ctl := NewController(NeverPolicy())
			base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
			evs := benchEvents(4096, 256, base)
			if _, err := ctl.ObserveBatch(context.Background(), evs); err != nil {
				b.Fatal(err)
			}
			span := evs[len(evs)-1].Time.Sub(evs[0].Time) + time.Second
			var newest atomic.Int64
			newest.Store(evs[len(evs)-1].Time.UnixNano())
			var stop atomic.Bool
			var polls atomic.Int64
			var wg sync.WaitGroup
			start := make(chan struct{})
			for w := 0; w < pollers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					n := 0
					for ; !stop.Load(); n++ {
						ctl.Recommend((n*7+w*64)&255, time.Unix(0, newest.Load()), 50)
					}
					polls.Add(int64(n))
				}(w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			close(start)
			for i := 0; i < b.N; i++ {
				e := &evs[i&4095]
				// Keep per-node timestamps advancing across laps.
				e.Time = e.Time.Add(span)
				ctl.ObserveEvent(*e)
				newest.Store(e.Time.UnixNano())
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
			b.ReportMetric(float64(polls.Load())/b.Elapsed().Seconds(), "polls/s")
		})
	}
}

// BenchmarkControllerRecommendParallel measures side-effect-free query
// throughput with goroutines hammering one controller across shards, the
// fleet-polling hot path (Q-network forward included).
func BenchmarkControllerRecommendParallel(b *testing.B) {
	ctl := NewController(servingPolicy(b))
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	if _, err := ctl.ObserveBatch(context.Background(), benchEvents(4096, 256, base)); err != nil {
		b.Fatal(err)
	}
	at := base.Add(2 * time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		node := 0
		for pb.Next() {
			node++
			d := ctl.Recommend(node&255, at, float64(node&8191))
			if d.Node != node&255 {
				// Fatal is not allowed off the benchmark goroutine.
				b.Error("wrong node answered")
				return
			}
		}
	})
}

// BenchmarkControllerRecommendSerial is the single-caller baseline for the
// parallel bench above.
func BenchmarkControllerRecommendSerial(b *testing.B) {
	ctl := NewController(servingPolicy(b))
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	if _, err := ctl.ObserveBatch(context.Background(), benchEvents(4096, 256, base)); err != nil {
		b.Fatal(err)
	}
	at := base.Add(2 * time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.Recommend(i&255, at, float64(i&8191))
	}
}

// BenchmarkControllerTick measures the fused decision tick a learner
// serves every non-UE event through: ingest, Eq. 2 features, the policy's
// decision (Q-network forward included) and the attached guard's charge,
// in one shard-lock hold.
func BenchmarkControllerTick(b *testing.B) {
	ctl := NewController(servingPolicy(b))
	NewGuard(ctl, WithNodeCheckpointBudget(0.1, time.Hour))
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	evs := benchEvents(4096, 256, base)
	span := evs[len(evs)-1].Time.Sub(evs[0].Time) + time.Second
	var d Decision
	var norm [FeatureDim]float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &evs[i&4095]
		ctl.TickInto(&d, *e, float64(i&8191), &norm)
		// Keep per-node timestamps advancing across laps of the stream.
		e.Time = e.Time.Add(span)
	}
}

// zeroAllocs runs loop, the benchmark's timed b.N operations, on one P,
// stops the timer, and fails b if loop allocated at all. Race
// instrumentation and the CPU profiler's writer goroutine allocate on
// their own, so neither is checked.
//
// MemStats.Mallocs counts the whole process, and the runtime allocates on
// its own now and then: the background scavenger's timer grows a P's
// timer heap (1 object), and at more than one P, waking an idle P can find
// no idle OS thread, so runtime.newm allocates a new one's m, stacks and
// profiling buffers (5 objects). The loop therefore runs at GOMAXPROCS 1,
// as testing.AllocsPerRun does (set here because the testing package
// resets GOMAXPROCS to the -cpu value before each sub-benchmark's b.N
// loop), and with every allocation profiled: when Mallocs moved, only the
// allocations whose call stacks leave the runtime count.
func zeroAllocs(b *testing.B, what string, loop func()) {
	b.Helper()
	b.StopTimer()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	pre := allocSites()
	b.StartTimer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loop()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if after.Mallocs == before.Mallocs || raceEnabled || flag.Lookup("test.cpuprofile").Value.String() != "" {
		return
	}
	var n int64
	for stk, objs := range allocSites() {
		if objs > pre[stk] && !runtimeOwn(stk) {
			n += objs - pre[stk]
		}
	}
	if n != 0 {
		b.Fatalf("%s allocated %d times over %d ops, want 0", what, n, b.N)
	}
}

// allocSites returns the heap profile's allocated-object count per call
// stack. The two collections publish every allocation made before it.
func allocSites() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	sites := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		sites[r.Stack0] += r.AllocObjects
	}
	return sites
}

// runtimeOwn reports whether an allocation's call stack stays inside the
// runtime, or is allocSites' own. A stack that fills the record may be
// cut short, so it never counts as the runtime's.
func runtimeOwn(stk [32]uintptr) bool {
	end := slices.Index(stk[:], 0)
	if end < 0 {
		return false
	}
	frames := runtime.CallersFrames(stk[:end])
	for {
		f, more := frames.Next()
		if f.Function == "repro.allocSites" {
			return true
		}
		if !strings.HasPrefix(f.Function, "runtime.") && !strings.HasPrefix(f.Function, "internal/runtime/") {
			return false
		}
		if !more {
			return true
		}
	}
}

// rlDecideSink keeps BenchmarkRLDecide's decisions live.
var rlDecideSink bool

// BenchmarkRLDecide measures one served RL decision, rlPolicy.Decide:
// the input normalization, the stack forward pass and the Decision, at
// the online learner's 32-16 network and the paper's 256-256-128-64 one.
// Any allocation fails it; it runs on one P (see zeroAllocs).
func BenchmarkRLDecide(b *testing.B) {
	for _, shape := range []struct {
		name   string
		hidden []int
	}{{"learner", []int{32, 16}}, {"paper", []int{256, 256, 128, 64}}} {
		b.Run(shape.name, func(b *testing.B) {
			net := nn.New(nn.Config{Inputs: features.Dim, Hidden: shape.hidden, Outputs: 2, Dueling: true, Seed: 1})
			p, err := newRLPolicy(net, nil)
			if err != nil {
				b.Fatal(err)
			}
			s := Snapshot{Node: 7, Time: time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)}
			s.Features = [FeatureDim]float64{3, 812, 2, 5, 41, 17, 1, 0, 96.5, 4, 1.5, 0.25, 0, 0.5, 0}
			b.ReportAllocs()
			b.ResetTimer()
			zeroAllocs(b, "rlPolicy.Decide", func() {
				for i := 0; i < b.N; i++ {
					s.Features[features.UECost] = float64(i & 8191)
					rlDecideSink = p.Decide(s).Mitigate()
				}
			})
		})
	}
}

// BenchmarkLearnerProcess measures a guarded learner's decision tick —
// the lifecycle-drift workload's per-event path — in steady state. A fixed
// drifting slice (the CE rate steps up mid-slice, realized UEs land in the
// degraded phase) replays through OnlineLearner.Process over an RL-serving
// controller with the learner's 32-16 net, its timestamps advancing lap by
// lap. The drift threshold is out of reach, so no lifecycle event lands in
// the timed laps. An op is one lap; ns/event is the tick cost, and any
// allocation in the timed laps fails the benchmark. The timed laps run on
// one P (see zeroAllocs).
func BenchmarkLearnerProcess(b *testing.B) {
	net := nn.New(nn.Config{Inputs: features.Dim, Hidden: []int{32, 16}, Outputs: 2, Dueling: true, Seed: 1})
	p, err := newRLPolicy(net, nil)
	if err != nil {
		b.Fatal(err)
	}
	ctl := NewController(p)
	g := NewGuard(ctl, WithNodeCheckpointBudget(0.1, time.Hour))
	l := NewServingLearner(ctl, WithGuard(g), WithLearnerSeed(1), WithCostSource(ConstantCost(4200)),
		WithDriftDetection(math.MaxFloat64, 512), WithExperienceCapacity(2048))
	evs := driftingTelemetry(64, 512, 512)
	span := evs[len(evs)-1].Time.Sub(evs[0].Time) + 30*time.Second
	lap := func() {
		processAll(l, evs)
		for i := range evs {
			evs[i].Time = evs[i].Time.Add(span)
		}
	}
	// Warm up: grow the trackers, the pending steps and the experience
	// stream to the slice's working shape.
	for i := 0; i < 4; i++ {
		lap()
	}
	events := len(l.Events())
	b.ReportAllocs()
	b.ResetTimer()
	zeroAllocs(b, "OnlineLearner.Process", func() {
		for i := 0; i < b.N; i++ {
			lap()
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
	if got := len(l.Events()); got != events {
		b.Fatalf("the timed laps recorded %d lifecycle events, want none", got-events)
	}
}

// BenchmarkTelemetryFullScale generates the full 3056-node two-year log,
// the paper's actual population.
func BenchmarkTelemetryFullScale(b *testing.B) {
	cfg := telemetry.Default()
	for i := 0; i < b.N; i++ {
		l := telemetry.Generate(cfg)
		if len(l.Events) == 0 {
			b.Fatal("empty log")
		}
	}
}
