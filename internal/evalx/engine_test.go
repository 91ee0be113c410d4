package evalx

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/errlog"
	"repro/internal/features"
	"repro/internal/jobs"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/policies"
	"repro/internal/rf"
	"repro/internal/rl"
	"repro/internal/telemetry"
)

// engineFixture builds a realistic tick stream (synthetic MN3-scale log),
// a heavy-tailed job trace, and the full §4.2 decider set: Never, Always,
// SC20-RF at an optimal-ish threshold plus the 2% and 5% perturbed
// variants, Myopic-RF, the RL agent, and the Oracle — eight approaches,
// exactly what evaluateSplit replays.
func engineFixture(t testing.TB) ([][]errlog.Tick, *jobs.Sampler, []policies.Decider) {
	t.Helper()
	tcfg := telemetry.Default().Scale(0.02)
	tcfg.SignaledUEs, tcfg.SuddenUEs = 12, 4
	log := telemetry.Generate(tcfg)
	pre := errlog.Preprocess(log)
	byNode := env.GroupTicks(errlog.Merge(pre, errlog.MergeWindow))

	jcfg := jobs.Default()
	jcfg.Count = 800
	sampler := jobs.NewSampler(jobs.Generate(jcfg))

	// A forest trained on the stream's own early window, so its scores are
	// non-degenerate on the evaluation ticks.
	first, last := pre.Span()
	trainTo := first.Add(time.Duration(float64(last.Sub(first)) * 0.5))
	ds := BuildRFDataset(TicksUpTo(byNode, trainTo), time.Time{}, trainTo)
	if len(ds.X) == 0 || ds.Positives() == 0 {
		t.Fatal("fixture produced a degenerate RF dataset")
	}
	fc := rf.DefaultForestConfig()
	fc.Trees = 25
	forest := rf.TrainForest(ds.X, ds.Y, fc)

	// An RL policy over untrained weights: identical inference cost and
	// non-trivial decisions without paying for training.
	agent := rl.NewAgent(rl.AgentConfig{
		StateLen: features.Dim, NumActions: env.NumActions,
		Hidden: []int{16, 8}, Dueling: true, DoubleDQN: true,
		Gamma: 0.95, LearningRate: 1e-3, BatchSize: 8, Seed: 7,
	}, rl.NewUniformReplay(64))

	dsAll := []policies.Decider{
		policies.Never{},
		policies.Always{},
		&policies.RFThreshold{Forest: forest, Threshold: 0.4},
		&policies.RFThreshold{Forest: forest, Threshold: PerturbThreshold(0.4, 0.02), Label: "SC20-RF-2%"},
		&policies.RFThreshold{Forest: forest, Threshold: PerturbThreshold(0.4, 0.05), Label: "SC20-RF-5%"},
		&policies.MyopicRF{Forest: forest, MitigationCostNodeHours: env.DefaultConfig().MitigationCostNodeHours()},
		&policies.RL{Policy: agent.SnapshotPolicy()},
		policies.NewOracle(OraclePoints(byNode, time.Time{}, time.Time{})),
	}
	return byNode, sampler, dsAll
}

// requireIdentical asserts two Results are bit-identical in every field
// the replay produces (TrainingCost is caller-assigned, not replayed).
func requireIdentical(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Policy != want.Policy {
		t.Fatalf("%s: policy %q != %q", label, got.Policy, want.Policy)
	}
	if got.UECost != want.UECost {
		t.Errorf("%s/%s: UECost %v != %v", label, got.Policy, got.UECost, want.UECost)
	}
	if got.MitigationCost != want.MitigationCost {
		t.Errorf("%s/%s: MitigationCost %v != %v", label, got.Policy, got.MitigationCost, want.MitigationCost)
	}
	if got.Decisions != want.Decisions || got.UEs != want.UEs {
		t.Errorf("%s/%s: counts (%d,%d) != (%d,%d)", label, got.Policy,
			got.Decisions, got.UEs, want.Decisions, want.UEs)
	}
	if got.Metrics != want.Metrics {
		t.Errorf("%s/%s: metrics %+v != %+v", label, got.Policy, got.Metrics, want.Metrics)
	}
}

// TestReplayAllMatchesLegacyPerPolicy is the engine's hard correctness
// bar: the single-pass multi-policy walk must reproduce referenceReplay's
// one-policy-per-walk accounting bit for bit, for all eight §4.2
// approaches, across restartable/non-restartable mitigation and
// accounting windows.
func TestReplayAllMatchesLegacyPerPolicy(t *testing.T) {
	byNode, sampler, ds := engineFixture(t)

	base := env.DefaultConfig()
	var windowFrom time.Time
	for _, ticks := range byNode {
		if len(ticks) > 0 && (windowFrom.IsZero() || ticks[0].Time.Before(windowFrom)) {
			windowFrom = ticks[0].Time
		}
	}
	cases := []struct {
		name string
		cfg  ReplayConfig
	}{
		{"restartable", ReplayConfig{Env: base, JobSeed: 1}},
		{"non-restartable", ReplayConfig{Env: func() env.Config { c := base; c.Restartable = false; return c }(), JobSeed: 1}},
		{"cost-10nm", ReplayConfig{Env: func() env.Config { c := base; c.MitigationCostNodeMinutes = 10; return c }(), JobSeed: 5}},
		{"windowed", ReplayConfig{Env: base, JobSeed: 9, From: windowFrom.Add(90 * 24 * time.Hour), To: windowFrom.Add(400 * 24 * time.Hour)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := ReplayAll(ds, byNode, sampler, tc.cfg)
			if len(got) != len(ds) {
				t.Fatalf("results = %d, want %d", len(got), len(ds))
			}
			for i, d := range ds {
				requireIdentical(t, tc.name, got[i], referenceReplay(d, byNode, sampler, tc.cfg))
			}
		})
	}
}

// TestReplayAllCostOverrideMatchesLegacy covers the Table 2 cost-range
// mode: the synthetic cost draws must line up with the reference
// per-policy RNG streams.
func TestReplayAllCostOverrideMatchesLegacy(t *testing.T) {
	byNode, sampler, ds := engineFixture(t)
	cfg := ReplayConfig{Env: env.DefaultConfig(), JobSeed: 3}
	cfg.CostOverride = func(rng *mathx.RNG) float64 { return 10 + rng.Float64()*990 }
	got := ReplayAll(ds, byNode, sampler, cfg)
	for i, d := range ds {
		requireIdentical(t, "override", got[i], referenceReplay(d, byNode, sampler, cfg))
	}
}

// TestReplayAllParallelMatchesSerial: the node fan-out is a pure
// wall-clock knob. Every input replays to bit-identical Results at every
// worker count and GOMAXPROCS: the eight §4.2 deciders on the engine
// fixture, a synthetic many-node world with boots, warnings and UEs under
// three seeds, and the Table 2 path (accounting window plus cost
// override). Result is a comparable struct, so != is a full bitwise
// comparison of every accumulated float.
func TestReplayAllParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	type input struct {
		name    string
		byNode  [][]errlog.Tick
		sampler *jobs.Sampler
		ds      []policies.Decider
		cfg     ReplayConfig
	}
	byNode, sampler, ds := engineFixture(t)
	inputs := []input{{"fixture", byNode, sampler, ds, ReplayConfig{Env: env.DefaultConfig(), JobSeed: 2}}}
	for _, seed := range []int64{1, 7, 1234} {
		qnet := nn.New(nn.Config{Inputs: features.Dim, Hidden: []int{16, 8},
			Outputs: 2, Dueling: true, Seed: seed})
		cfg := replayCfg()
		cfg.JobSeed = seed
		inputs = append(inputs, input{fmt.Sprintf("synth-%d", seed), synthWorld(seed, 24), synthTrace(seed), []policies.Decider{
			policies.Never{},
			policies.Always{},
			&policies.FixedProb{Feature: 1, Bound: 20},
			&policies.RL{Policy: rl.NewSharedQPolicy(qnet)},
		}, cfg})
	}
	windowed := replayCfg()
	windowed.From = t0.Add(24 * time.Hour)
	windowed.To = t0.Add(10 * 24 * time.Hour)
	windowed.CostOverride = func(rng *mathx.RNG) float64 { return rng.Float64() * 5000 }
	inputs = append(inputs, input{"windowed-override", synthWorld(5, 16), synthTrace(5),
		[]policies.Decider{policies.Never{}, policies.Always{}}, windowed})

	for _, in := range inputs {
		cfg := in.cfg
		cfg.Parallelism = 1
		serial := ReplayAll(in.ds, in.byNode, in.sampler, cfg)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{0, 2, 3, 8} {
				cfg.Parallelism = workers
				got := ReplayAll(in.ds, in.byNode, in.sampler, cfg)
				for i := range got {
					if got[i] != serial[i] {
						t.Fatalf("%s policy %s procs %d workers %d: parallel result diverged\n got %+v\nwant %+v",
							in.name, got[i].Policy, procs, workers, got[i], serial[i])
					}
				}
			}
		}
	}
}

// statefulDecider mitigates on every k-th Decide call — not
// concurrency-safe, call-order dependent. It exercises the forced-serial
// path, which must still reproduce the reference walk exactly because
// per-node decision order is preserved.
type statefulDecider struct {
	k     int
	calls int
}

func (d *statefulDecider) Name() string { return fmt.Sprintf("every-%d", d.k) }
func (d *statefulDecider) Decide(*policies.Context) bool {
	d.calls++
	return d.calls%d.k == 0
}

func TestReplayAllStatefulFallbackMatchesLegacy(t *testing.T) {
	byNode, sampler, _ := engineFixture(t)
	cfg := ReplayConfig{Env: env.DefaultConfig(), JobSeed: 4}
	// Fresh decider instances per path: the stateful counter must see the
	// same call sequence in both.
	got := ReplayAll([]policies.Decider{policies.Always{}, &statefulDecider{k: 7}}, byNode, sampler, cfg)
	want := referenceReplay(&statefulDecider{k: 7}, byNode, sampler, cfg)
	requireIdentical(t, "stateful", got[1], want)
}

// TestReplayAllFallbackSeesEffectiveCost: the engine must hand each
// decider's Decide its own effective UE cost (diverged by its mitigation
// history under restartable mitigation), not the shared baseline. The
// stream ends with a UE and ticks inside the post-UE downtime, when no job
// runs: mitigating there must not charge the next job for time before it
// starts.
func TestReplayAllFallbackSeesEffectiveCost(t *testing.T) {
	ue := 11 * time.Hour
	ticks := [][]errlog.Tick{{
		mkTick(1, 0, errlog.CE),
		mkTick(1, 9*time.Hour, errlog.CE),
		mkTick(1, 10*time.Hour, errlog.CE),
		mkTick(1, ue, errlog.UE),
		mkTick(1, ue+time.Minute, errlog.CE),
		mkTick(1, ue+time.Hour, errlog.CE),
		mkTick(1, ue+env.UEDowntime+time.Hour, errlog.CE),
	}}
	sampler := fixedSampler(5, 1000)
	cfg := replayCfg() // restartable

	var batchCosts, refCosts []float64
	record := func(out *[]float64) policies.Decider {
		return policyProbe{func(ctx *policies.Context) bool {
			*out = append(*out, ctx.Features[features.UECost])
			return true // mitigate every tick, diverging from the baseline
		}}
	}
	ReplayAll([]policies.Decider{policies.Never{}, record(&batchCosts)}, ticks, sampler, cfg)
	referenceReplay(record(&refCosts), ticks, sampler, cfg)
	if len(batchCosts) != len(refCosts) {
		t.Fatalf("call counts differ: %d vs %d", len(batchCosts), len(refCosts))
	}
	for i := range batchCosts {
		if batchCosts[i] != refCosts[i] {
			t.Fatalf("cost %d: engine %v != reference %v", i, batchCosts[i], refCosts[i])
		}
	}
	// Sanity: the diverged costs must actually differ from the shared
	// no-mitigation baseline. After the 9h mitigation the 10h decision
	// sees 5 nodes × 1h = 5, not the baseline 5 × 10h = 50.
	if batchCosts[2] != 5 {
		t.Fatalf("expected baseline reset after mitigation (restartable), got %v", batchCosts[2])
	}
	// In the downtime nothing is at risk; an hour after the next job
	// starts, 5 nodes × 1h is.
	if got, want := batchCosts[3:], []float64{0, 0, 5}; !slices.Equal(got, want) {
		t.Fatalf("costs around the downtime = %v, want %v", got, want)
	}
}

// TestOptimalThresholdMatchesLegacyGrid: the one-pass grid scoring must
// select the same threshold at the same cost as replaying each candidate.
func TestOptimalThresholdMatchesLegacyGrid(t *testing.T) {
	byNode, sampler, ds := engineFixture(t)
	forest := ds[2].(*policies.RFThreshold).Forest
	cfg := ReplayConfig{Env: env.DefaultConfig(), JobSeed: 1}

	gotThr, gotCost := OptimalThreshold(forest, nil, byNode, sampler, cfg)

	// Reference: one full replay per grid point.
	best, bestCost, first := 0.0, 0.0, true
	for _, thr := range DefaultThresholdGrid {
		res := referenceReplay(&policies.RFThreshold{Forest: forest, Threshold: thr}, byNode, sampler, cfg)
		if first || res.TotalCost() < bestCost {
			best, bestCost, first = thr, res.TotalCost(), false
		}
	}
	if gotThr != best || gotCost != bestCost {
		t.Fatalf("single-pass threshold (%v, %v) != reference (%v, %v)", gotThr, gotCost, best, bestCost)
	}
}

// TestReplayAllEmptyAndDegenerate covers the trivial shapes.
func TestReplayAllEmptyAndDegenerate(t *testing.T) {
	sampler := fixedSampler(1, 1)
	if out := ReplayAll(nil, ueScenario(), sampler, replayCfg()); len(out) != 0 {
		t.Fatalf("nil deciders -> %d results", len(out))
	}
	out := ReplayAll([]policies.Decider{policies.Never{}}, nil, sampler, replayCfg())
	if len(out) != 1 || out[0].Decisions != 0 || out[0].Policy != "Never-mitigate" {
		t.Fatalf("empty ticks: %+v", out)
	}
	// Nodes with empty tick slices are skipped.
	out = ReplayAll([]policies.Decider{policies.Always{}},
		[][]errlog.Tick{{}, ueScenario()[0], {}}, sampler, replayCfg())
	want := referenceReplay(policies.Always{}, ueScenario(), sampler, replayCfg())
	requireIdentical(t, "degenerate", out[0], want)
}

// TestContextRFProbMemoization: one forest evaluation serves every
// threshold variant at a decision point; a different forest invalidates
// the memo, and so does a new Context literal.
func TestContextRFProbMemoization(t *testing.T) {
	x := [][]float64{make([]float64, features.PredictorDim), make([]float64, features.PredictorDim)}
	for i := range x[1] {
		x[1][i] = 1
	}
	fc := rf.DefaultForestConfig()
	fc.Trees = 5
	f1 := rf.TrainForest(x, []bool{false, true}, fc)
	fc.Seed = 99
	f2 := rf.TrainForest(x, []bool{true, false}, fc)

	var v features.Vector
	for i := range v {
		v[i] = 1
	}
	s := policies.Context{Node: 1, Time: t0, Features: v}
	p1 := s.RFProb(f1)
	if p1 != f1.PredictProb(v[:features.PredictorDim]) {
		t.Fatal("memoized prob differs from direct evaluation")
	}
	if s.RFProb(f1) != p1 {
		t.Fatal("second lookup changed")
	}
	if s.RFProb(f2) != f2.PredictProb(v[:features.PredictorDim]) {
		t.Fatal("forest switch not detected")
	}
	s = policies.Context{Node: 1, Time: t0}
	if s.RFProb(f2) != f2.PredictProb(make([]float64, features.PredictorDim)) {
		t.Fatal("a new Context did not invalidate the memo")
	}
}
