package evalx

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/errlog"
	"repro/internal/jobs"
	"repro/internal/mathx"
	"repro/internal/policies"
	"repro/internal/telemetry"
)

// synthWorld builds a deterministic many-node tick world with a mix of CE
// streams, boots, warnings and UEs so the parallel replay exercises every
// accounting path.
func synthWorld(seed int64, nodes int) [][]errlog.Tick {
	rng := mathx.NewRNG(seed)
	byNode := make([][]errlog.Tick, nodes)
	for n := 0; n < nodes; n++ {
		nrng := rng.Fork()
		var ticks []errlog.Tick
		at := time.Duration(nrng.Intn(120)) * time.Minute
		events := 20 + nrng.Intn(60)
		for i := 0; i < events; i++ {
			ty := errlog.CE
			switch {
			case nrng.Bool(0.03):
				ty = errlog.UE
			case nrng.Bool(0.05):
				ty = errlog.Boot
			case nrng.Bool(0.05):
				ty = errlog.UEWarning
			}
			tk := errlog.Tick{Time: t0.Add(at), Node: n}
			tk.Events = append(tk.Events, errlog.Event{
				Time: t0.Add(at), Node: n, Type: ty, Count: 1 + nrng.Intn(5),
				Rank: nrng.Intn(4), Bank: nrng.Intn(16), Row: nrng.Intn(4096), Col: nrng.Intn(1024),
				DIMM: nrng.Intn(8),
			})
			ticks = append(ticks, tk)
			at += time.Duration(10+nrng.Intn(600)) * time.Minute
		}
		byNode[n] = ticks
	}
	return byNode
}

func synthTrace(seed int64) *jobs.Sampler {
	cfg := jobs.Default()
	cfg.Seed = seed
	cfg.Count = 200
	return jobs.NewSampler(jobs.Generate(cfg))
}

// TestTrainRLParallelCandidatesDeterministic: the parallel hyperparameter
// search (PresetDefault trains 3 candidates concurrently) must select the
// same model — and therefore produce identical evaluation results — for
// any GOMAXPROCS value.
func TestTrainRLParallelCandidatesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test in short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	tcfg := telemetry.Default().Scale(0.02)
	jcfg := jobs.Default()
	jcfg.Count = 1000
	trace := jobs.Generate(jcfg)
	cfg := DefaultCVConfig(PresetDefault)
	cfg.Parts = 2
	cfg.RLEpisodes = 20 // keep the 3-candidate search fast

	runtime.GOMAXPROCS(1)
	a := RunCV(telemetry.Generate(tcfg), trace, cfg)
	runtime.GOMAXPROCS(4)
	b := RunCV(telemetry.Generate(tcfg), trace, cfg)

	for i := range a.Totals {
		// Training cost is wallclock-measured, so compare the rest.
		if a.Totals[i].Policy != b.Totals[i].Policy ||
			a.Totals[i].UECost != b.Totals[i].UECost ||
			a.Totals[i].MitigationCost != b.Totals[i].MitigationCost ||
			a.Totals[i].Metrics != b.Totals[i].Metrics {
			t.Fatalf("policy %s not deterministic across GOMAXPROCS:\n got %+v\nwant %+v",
				a.Totals[i].Policy, b.Totals[i], a.Totals[i])
		}
	}
}

// TestReplayUnsafeDeciderFallsBackToSerial: a stateful decider that does
// not declare itself concurrency-safe must still replay correctly (the
// engine serializes it) — and produce the same result as an explicit
// serial run.
func TestReplayUnsafeDeciderFallsBackToSerial(t *testing.T) {
	byNode := synthWorld(11, 12)
	sampler := synthTrace(11)

	cfg := replayCfg()
	cfg.Parallelism = 8
	got := ReplayAll([]policies.Decider{&statefulDecider{k: 7}}, byNode, sampler, cfg)[0]
	cfg.Parallelism = 1
	want := ReplayAll([]policies.Decider{&statefulDecider{k: 7}}, byNode, sampler, cfg)[0]
	if got != want {
		t.Fatalf("stateful decider replay diverged:\n got %+v\nwant %+v", got, want)
	}
}
