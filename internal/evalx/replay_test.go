package evalx

import (
	"math"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/errlog"
	"repro/internal/features"
	"repro/internal/jobs"
	"repro/internal/mathx"
	"repro/internal/policies"
)

var t0 = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)

func mkTick(node int, at time.Duration, types ...errlog.EventType) errlog.Tick {
	tk := errlog.Tick{Time: t0.Add(at), Node: node}
	for _, ty := range types {
		tk.Events = append(tk.Events, errlog.Event{
			Time: t0.Add(at), Node: node, Type: ty, Count: 1,
		})
	}
	return tk
}

func fixedSampler(nodes int, hours float64) *jobs.Sampler {
	return jobs.NewSampler([]jobs.Job{{
		ID: 1, Nodes: nodes, Duration: time.Duration(hours * float64(time.Hour)),
	}})
}

func replayCfg() ReplayConfig {
	c := env.DefaultConfig()
	return ReplayConfig{Env: c, JobSeed: 1}
}

// Scenario: CE at 0h, CE at 9h, UE at 10h on a 5-node job.
func ueScenario() [][]errlog.Tick {
	return [][]errlog.Tick{{
		mkTick(1, 0, errlog.CE),
		mkTick(1, 9*time.Hour, errlog.CE),
		mkTick(1, 10*time.Hour, errlog.UE),
	}}
}

func TestReplayNever(t *testing.T) {
	res := ReplayAll([]policies.Decider{policies.Never{}}, ueScenario(), fixedSampler(5, 1000), replayCfg())[0]
	if math.Abs(res.UECost-50) > 1e-9 {
		t.Fatalf("UE cost = %v, want 50", res.UECost)
	}
	if res.MitigationCost != 0 || res.Metrics.Mitigations != 0 {
		t.Fatal("Never must not mitigate")
	}
	if res.Metrics.TPs != 0 || res.Metrics.FNs != 1 {
		t.Fatalf("metrics = %+v", res.Metrics)
	}
	if res.Metrics.Recall() != 0 {
		t.Fatal("recall should be 0")
	}
	if res.UEs != 1 || res.Decisions != 2 {
		t.Fatalf("UEs=%d decisions=%d", res.UEs, res.Decisions)
	}
}

func TestReplayAlways(t *testing.T) {
	res := ReplayAll([]policies.Decider{policies.Always{}}, ueScenario(), fixedSampler(5, 1000), replayCfg())[0]
	// Mitigations at 0h and 9h; UE at 10h costs 5 nodes x 1h = 5.
	if math.Abs(res.UECost-5) > 1e-9 {
		t.Fatalf("UE cost = %v, want 5", res.UECost)
	}
	wantMit := 2 * replayCfg().Env.MitigationCostNodeHours()
	if math.Abs(res.MitigationCost-wantMit) > 1e-9 {
		t.Fatalf("mitigation cost = %v, want %v", res.MitigationCost, wantMit)
	}
	// The 9h mitigation completed within the 24h window before the UE: TP.
	if res.Metrics.TPs != 1 || res.Metrics.FNs != 0 {
		t.Fatalf("metrics = %+v", res.Metrics)
	}
	// One of the two mitigations is redundant: FP.
	if res.Metrics.FPs != 1 {
		t.Fatalf("FPs = %d, want 1", res.Metrics.FPs)
	}
	if res.Metrics.Recall() != 1 {
		t.Fatal("recall should be 1")
	}
}

func TestReplayMitigationOverheadExcluded(t *testing.T) {
	// A mitigation initiated less than the overhead before the UE has not
	// completed and must not count as a TP (§4.4).
	ticks := [][]errlog.Tick{{
		mkTick(1, 0, errlog.CE),
		mkTick(1, 10*time.Hour-time.Minute, errlog.CE), // 1 min before UE < 2 min overhead
		mkTick(1, 10*time.Hour, errlog.UE),
	}}
	d := &policies.FixedProb{Feature: features.CEsTotal, Bound: 1.5} // mitigates on 2nd CE only
	res := ReplayAll([]policies.Decider{d}, ticks, fixedSampler(5, 1000), replayCfg())[0]
	if res.Metrics.Mitigations != 1 {
		t.Fatalf("mitigations = %d, want 1", res.Metrics.Mitigations)
	}
	if res.Metrics.TPs != 0 || res.Metrics.FNs != 1 {
		t.Fatalf("incomplete mitigation counted as TP: %+v", res.Metrics)
	}
}

func TestReplayUEOutsidePredictionWindow(t *testing.T) {
	// Mitigation 30h before the UE is outside the 1-day window: FN, and
	// the UE has no event within the preceding day, so it also counts an
	// implicit non-mitigation.
	ticks := [][]errlog.Tick{{
		mkTick(1, 0, errlog.CE),
		mkTick(1, 40*time.Hour, errlog.UE),
	}}
	res := ReplayAll([]policies.Decider{policies.Always{}}, ticks, fixedSampler(5, 1000), replayCfg())[0]
	if res.Metrics.TPs != 0 || res.Metrics.FNs != 1 {
		t.Fatalf("metrics = %+v", res.Metrics)
	}
	if res.Metrics.NonMitigations != 1 {
		t.Fatalf("implicit non-mitigation missing: %+v", res.Metrics)
	}
	// TNs = non-mitigations - FNs = 0.
	if res.Metrics.TNs != 0 {
		t.Fatalf("TNs = %d", res.Metrics.TNs)
	}
}

func TestReplayAccountingWindow(t *testing.T) {
	cfg := replayCfg()
	cfg.From = t0.Add(5 * time.Hour)
	res := ReplayAll([]policies.Decider{policies.Always{}}, ueScenario(), fixedSampler(5, 1000), cfg)[0]
	// Only the 9h decision and the 10h UE are accounted.
	if res.Decisions != 1 || res.UEs != 1 {
		t.Fatalf("decisions=%d UEs=%d", res.Decisions, res.UEs)
	}
	if math.Abs(res.MitigationCost-cfg.Env.MitigationCostNodeHours()) > 1e-9 {
		t.Fatalf("mitigation cost = %v", res.MitigationCost)
	}
	// The 0h mitigation still reset the baseline (warm-up decisions act):
	// UE cost = 5 nodes x 1h since the 9h mitigation.
	if math.Abs(res.UECost-5) > 1e-9 {
		t.Fatalf("UE cost = %v, want 5", res.UECost)
	}
}

func TestReplayIdenticalWorkloadAcrossPolicies(t *testing.T) {
	// With the same JobSeed, Never and Always see identical job sequences:
	// Always's UE cost can only be <= Never's.
	gen := mathx.NewRNG(3)
	trace := make([]jobs.Job, 50)
	for i := range trace {
		trace[i] = jobs.Job{ID: i, Nodes: 1 + gen.Intn(20),
			Duration: time.Duration(1+gen.Intn(48)) * time.Hour}
	}
	sampler := jobs.NewSampler(trace)
	ticks := ueScenario()
	res := ReplayAll([]policies.Decider{policies.Never{}, policies.Always{}}, ticks, sampler, replayCfg())
	never, always := res[0], res[1]
	if always.UECost > never.UECost+1e-9 {
		t.Fatalf("Always UE cost %v > Never %v under identical workload",
			always.UECost, never.UECost)
	}
}

func TestOraclePoints(t *testing.T) {
	ticks := [][]errlog.Tick{{
		mkTick(1, 0, errlog.CE),
		mkTick(1, 9*time.Hour, errlog.CE),
		mkTick(1, 10*time.Hour, errlog.UE),
		mkTick(1, 20*time.Hour, errlog.CE),
	}}
	pts := OraclePoints(ticks, time.Time{}, time.Time{})
	if len(pts) != 1 {
		t.Fatalf("oracle points = %d, want 1", len(pts))
	}
	if !pts[policies.OracleKey{Node: 1, Time: t0.Add(9 * time.Hour)}] {
		t.Fatal("oracle should mitigate at the last event before the UE")
	}
}

func TestOraclePointsWindow(t *testing.T) {
	ticks := ueScenario()
	pts := OraclePoints(ticks, t0.Add(20*time.Hour), time.Time{})
	if len(pts) != 0 {
		t.Fatal("UE outside window must not create oracle points")
	}
}

func TestReplayOracleBeatsEveryone(t *testing.T) {
	ticks := ueScenario()
	sampler := fixedSampler(5, 1000)
	oracle := policies.NewOracle(OraclePoints(ticks, time.Time{}, time.Time{}))
	res := ReplayAll([]policies.Decider{oracle, policies.Never{}, policies.Always{}}, ticks, sampler, replayCfg())
	resO, resN, resA := res[0], res[1], res[2]
	if resO.TotalCost() > resN.TotalCost() || resO.TotalCost() > resA.TotalCost() {
		t.Fatalf("oracle %v not optimal (never %v, always %v)",
			resO.TotalCost(), resN.TotalCost(), resA.TotalCost())
	}
	if resO.Metrics.FPs != 0 || resO.Metrics.Precision() != 1 {
		t.Fatalf("oracle precision must be 1: %+v", resO.Metrics)
	}
}

func TestReplayCostOverride(t *testing.T) {
	cfg := replayCfg()
	cfg.CostOverride = func(*mathx.RNG) float64 { return 42 }
	seen := 0.0
	d := policies.Decider(policyProbe{func(ctx *policies.Context) bool {
		seen = ctx.Features[features.UECost]
		return false
	}})
	res := ReplayAll([]policies.Decider{d}, ueScenario(), fixedSampler(5, 1000), cfg)[0]
	if seen != 42 {
		t.Fatalf("override not visible in features: %v", seen)
	}
	if math.Abs(res.UECost-42) > 1e-9 {
		t.Fatalf("override not used for accounting: %v", res.UECost)
	}
}

// policyProbe adapts a func to Decider for tests.
type policyProbe struct {
	f func(*policies.Context) bool
}

func (policyProbe) Name() string                      { return "probe" }
func (p policyProbe) Decide(c *policies.Context) bool { return p.f(c) }

func TestMLMetricsDerived(t *testing.T) {
	m := MLMetrics{TPs: 3, FNs: 1, FPs: 7, TNs: 89}
	if math.Abs(m.Recall()-0.75) > 1e-12 {
		t.Fatalf("recall = %v", m.Recall())
	}
	if math.Abs(m.Precision()-0.3) > 1e-12 {
		t.Fatalf("precision = %v", m.Precision())
	}
	var zero MLMetrics
	if zero.Recall() != 0 || zero.Precision() != 0 {
		t.Fatal("undefined metrics should return 0")
	}
}

func TestResultAdd(t *testing.T) {
	a := Result{Policy: "x", UECost: 10, MitigationCost: 2, TrainingCost: 1,
		Decisions: 5, UEs: 1, Metrics: MLMetrics{TPs: 1, FNs: 2, FPs: 3, TNs: 4}}
	b := a
	a.Add(b)
	if a.UECost != 20 || a.TotalCost() != 26 || a.Metrics.TPs != 2 {
		t.Fatalf("Add wrong: %+v", a)
	}
}
