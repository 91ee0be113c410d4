package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/errlog"
	"repro/internal/evalx"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/jobs"
	"repro/internal/policies"
	"repro/internal/rf"
)

// fig3Recorded maps a seed to the fingerprint of the Fig. 3 numbers that
// seed produced when it was recorded (see fig3Fingerprint).
//
//go:embed testdata/fig3.json
var fig3Recorded []byte

// fig3Fingerprint hashes every deterministic Fig. 3 column: per
// mitigation cost and approach, the UE and mitigation node-hours, the
// decision and UE counts and the §4.4 confusion counts. TrainingCost is
// wall-clock time and is left out.
func fig3Fingerprint(res experiments.Fig3Result) string {
	h := sha256.New()
	for i, cv := range res.Runs {
		for _, t := range cv.Totals {
			fmt.Fprintf(h, "%g|%s|%s|%s|%d|%d|%+v\n", res.MitigationCosts[i], t.Policy,
				strconv.FormatFloat(t.UECost, 'g', -1, 64), strconv.FormatFloat(t.MitigationCost, 'g', -1, 64),
				t.Decisions, t.UEs, t.Metrics)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fig3World is the CI world (the default seed's MN3 error log, the one
// BenchmarkFig3CostBenefit uses) with the job trace and the evaluation
// protocol's seed — job sequences, forest and DQN training — drawn from
// the workload seed. The log's size sets how much work a run does, so it
// stays fixed and run times stay comparable across seeds.
func fig3World(seed int64) *experiments.World {
	w := experiments.BuildWorld(experiments.ScaleFor(evalx.PresetCI))
	w.Scale.Seed = seed
	w.JCfg.Seed = seed + 1
	w.Trace = jobs.Generate(w.JCfg)
	return w
}

// runPaperFig3 regenerates Figure 3 on the CI world in closed loop, one
// cold run after another (the world's artifact cache is reset before
// each run, as in BenchmarkFig3CostBenefit).
func runPaperFig3(cfg config, r *result) error {
	var w *experiments.World
	// The CI world builds in tens of milliseconds, so more repeats keep
	// the setup median steady.
	setup, _ := timeSetup(7, func() error {
		w = fig3World(cfg.seed)
		return nil
	})
	r.set("setup_s", setup)
	note("world: CI log (%d events), %d jobs and protocol seed %d", len(w.Log.Events), len(w.Trace), cfg.seed)

	recorded := map[string]string{}
	if err := json.Unmarshal(fig3Recorded, &recorded); err != nil {
		return fmt.Errorf("reading recorded Fig. 3 fingerprints: %w", err)
	}
	want, haveRecord := recorded[strconv.FormatInt(cfg.seed, 10)]

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	var (
		runs              []float64
		total             time.Duration
		decisions, allocs float64
		first             string
		lost              float64
	)
	start := time.Now()
	for len(runs) == 0 || time.Since(start).Seconds() < seconds {
		w.ResetCache()
		runtime.GC()
		m0 := mallocs()
		t0 := time.Now()
		res := experiments.RunFig3(w)
		d := time.Since(t0)
		allocs += float64(mallocs() - m0)
		fp := fig3Fingerprint(res)
		switch {
		case first == "":
			first = fp
			if haveRecord && fp != want {
				return gatef("Fig. 3 numbers for seed %d do not match the recorded ones (%s, recorded %s)", cfg.seed, fp, want)
			}
		case fp != first:
			return gatef("Fig. 3 run %d differs from run 0 on the same seed", len(runs))
		}
		for _, cv := range res.Runs {
			for _, t := range cv.Totals {
				decisions += float64(t.Decisions)
			}
		}
		rl, ok := res.Runs[0].Find("RL")
		if !ok {
			return gatef("Fig. 3 has no RL row")
		}
		lost = rl.UECost + rl.MitigationCost
		runs = append(runs, us(d))
		total += d
		r.attempted++
	}
	logEvents := float64(len(w.Log.Events))
	heap := retainedMiB(func() { w = nil }, runs)
	// w is dropped for the heap reading; rebuild it for the stage trace.
	if cfg.trace {
		w = fig3World(cfg.seed)
	}

	r.set("events_per_s", logEvents*float64(len(runs))/total.Seconds())
	r.set("decisions_per_s", decisions/total.Seconds())
	r.set("latency_p50_us", median(runs))
	r.set("latency_p99_us", slices.Max(runs))
	r.set("heap_mb", heap)
	r.set("lost_node_hours", lost)
	r.set("failed_frac", 0)
	r.set("allocs_per_event", allocs/(logEvents*float64(len(runs))))
	record := "no recorded value for this seed"
	if haveRecord {
		record = "matches the recorded value"
	}
	note("fig3: %d runs; fig3_s=%.4f (median), slowest %.4f s; latency_p99_us is the slowest run (fewer than 100 samples)",
		len(runs), median(runs)/1e6, slices.Max(runs)/1e6)
	note("fig3: fingerprint seed=%d %s (%s)", cfg.seed, first, record)
	note("fig3: RL row at 2 node-min lost_node_hours=%.4f (UE + mitigation, training cost excluded)", lost)
	if cfg.trace {
		fig3Stages(w, r)
		r.set("trace.events_per_s", logEvents*float64(len(runs))/total.Seconds())
		r.set("trace.overhead_pct", 0)
	}
	return nil
}

// fig3Stages times the public stages of one cross-validation split (the
// second of RunCV's splits: train on the first part, test on the second)
// on a fresh artifact cache.
func fig3Stages(w *experiments.World, r *result) {
	cfg := evalx.DefaultCVConfig(w.Scale.Preset)
	cfg.Parts = w.Scale.Parts
	cfg.Seed = w.Scale.Seed
	cfg.Cache = evalx.NewCache()
	stage := func(name string, f func()) {
		t0 := time.Now()
		f()
		r.set(name, time.Since(t0).Seconds())
	}

	var art *evalx.TickArtifacts
	stage("evalx.ticks_s", func() { art = cfg.Cache.Ticks(w.Log) })
	sampler := cfg.Cache.Sampler(w.Trace)
	bounds := errlog.SplitParts(art.Pre, cfg.Parts)
	trainTo, testTo := bounds[1], bounds[2]
	replayCfg := evalx.ReplayConfig{Env: cfg.Env, JobSeed: cfg.Seed + 101, From: trainTo, To: testTo}

	var forest *rf.Forest
	stage("rf.train_s", func() {
		ds := evalx.BuildRFDataset(art.ByNode, time.Time{}, trainTo)
		fc := cfg.Forest
		fc.Seed = cfg.Seed + 1
		if len(ds.X) == 0 || ds.Positives() == 0 {
			// As in RunCV: no positives yet, so a forest that never fires.
			ds.X, ds.Y = [][]float64{make([]float64, features.PredictorDim)}, []bool{false}
		}
		forest = rf.TrainForest(ds.X, ds.Y, fc)
	})
	var thr float64
	stage("evalx.threshold_s", func() { thr, _ = evalx.OptimalThreshold(forest, nil, art.ByNode, sampler, replayCfg) })

	// TrainSingleSplit fits the forest, its threshold and the agent; fit
	// the forest first so the timed call trains only the agent.
	cfg.IncludeRL = false
	evalx.TrainSingleSplit(w.Log, w.Trace, cfg, 0.75)
	cfg.IncludeRL = true
	var split evalx.SingleSplit
	stage("rl.train_s", func() { split = evalx.TrainSingleSplit(w.Log, w.Trace, cfg, 0.75) })

	deciders := []policies.Decider{
		policies.Never{},
		policies.Always{},
		&policies.RFThreshold{Forest: forest, Threshold: thr},
		&policies.MyopicRF{Forest: forest, MitigationCostNodeHours: cfg.Env.MitigationCostNodeHours()},
		&policies.RL{Policy: split.Policy},
	}
	stage("evalx.replay_all_s", func() { evalx.ReplayAll(deciders, art.ByNode, sampler, replayCfg) })
	note("trace: fig3 stages timed once each on split 1 of %d (replay over %s .. %s)", cfg.Parts, trainTo.Format(time.DateOnly), testTo.Format(time.DateOnly))
}
