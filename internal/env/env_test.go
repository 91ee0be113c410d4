package env

import (
	"math"
	"testing"
	"time"

	"repro/internal/errlog"
	"repro/internal/features"
	"repro/internal/jobs"
	"repro/internal/mathx"
)

var t0 = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)

func fixedSampler(nodes int, hours float64) *jobs.Sampler {
	return jobs.NewSampler([]jobs.Job{{
		ID: 1, Nodes: nodes, Duration: time.Duration(hours * float64(time.Hour)),
	}})
}

func TestTimelineCostGrowsWithElapsed(t *testing.T) {
	tl := NewTimeline(fixedSampler(10, 100), mathx.NewRNG(1), true, t0)
	tl.AdvanceTo(t0.Add(3 * time.Hour))
	if got := tl.CostAt(t0.Add(3 * time.Hour)); math.Abs(got-30) > 1e-9 {
		t.Fatalf("cost = %v, want 30 (10 nodes x 3h)", got)
	}
}

func TestTimelineMitigationResetsBaseline(t *testing.T) {
	tl := NewTimeline(fixedSampler(10, 100), mathx.NewRNG(1), true, t0)
	tl.AdvanceTo(t0.Add(5 * time.Hour))
	tl.Mitigate(t0.Add(5 * time.Hour))
	if got := tl.CostAt(t0.Add(7 * time.Hour)); math.Abs(got-20) > 1e-9 {
		t.Fatalf("cost after mitigation = %v, want 20", got)
	}
}

func TestTimelineNonRestartableIgnoresMitigation(t *testing.T) {
	tl := NewTimeline(fixedSampler(10, 100), mathx.NewRNG(1), false, t0)
	tl.AdvanceTo(t0.Add(5 * time.Hour))
	tl.Mitigate(t0.Add(5 * time.Hour))
	if got := tl.CostAt(t0.Add(7 * time.Hour)); math.Abs(got-70) > 1e-9 {
		t.Fatalf("non-restartable cost = %v, want 70 (since job start)", got)
	}
}

func TestTimelineJobRollover(t *testing.T) {
	tl := NewTimeline(fixedSampler(10, 2), mathx.NewRNG(1), true, t0)
	// Jobs last 2h back-to-back; at t=5h we are 1h into the third job.
	tl.AdvanceTo(t0.Add(5 * time.Hour))
	if got := tl.CostAt(t0.Add(5 * time.Hour)); math.Abs(got-10) > 1e-9 {
		t.Fatalf("cost after rollover = %v, want 10", got)
	}
	if !tl.JobStart().Equal(t0.Add(4 * time.Hour)) {
		t.Fatalf("job start = %v", tl.JobStart())
	}
}

func TestTimelineUEKillsJobAndCostsFullWindow(t *testing.T) {
	tl := NewTimeline(fixedSampler(10, 100), mathx.NewRNG(1), true, t0)
	tl.AdvanceTo(t0.Add(2 * time.Hour))
	tl.Mitigate(t0.Add(2 * time.Hour))
	cost := tl.OnUE(t0.Add(6 * time.Hour))
	// Full time between last mitigation and the UE: 4h x 10 nodes.
	if math.Abs(cost-40) > 1e-9 {
		t.Fatalf("UE cost = %v, want 40", cost)
	}
	// Next job starts after the one-week test downtime.
	if !tl.JobStart().Equal(t0.Add(6*time.Hour + UEDowntime)) {
		t.Fatalf("next job start = %v", tl.JobStart())
	}
	// During downtime, cost is zero.
	if got := tl.CostAt(t0.Add(7 * time.Hour)); got != 0 {
		t.Fatalf("cost during downtime = %v, want 0", got)
	}
}

func mkTick(node int, at time.Duration, types ...errlog.EventType) errlog.Tick {
	tk := errlog.Tick{Time: t0.Add(at), Node: node}
	for _, ty := range types {
		tk.Events = append(tk.Events, errlog.Event{
			Time: t0.Add(at), Node: node, Type: ty, Count: 1,
		})
	}
	return tk
}

func TestGroupTicks(t *testing.T) {
	ticks := []errlog.Tick{
		mkTick(1, 0, errlog.CE), mkTick(2, time.Minute, errlog.CE),
		mkTick(1, 2*time.Minute, errlog.CE),
	}
	groups := GroupTicks(ticks)
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if len(groups[0]) != 2 || groups[0][0].Node != 1 {
		t.Fatalf("node 1 group wrong: %+v", groups[0])
	}
}

func TestEnvEpisodeNoUE(t *testing.T) {
	ticks := [][]errlog.Tick{{
		mkTick(1, 0, errlog.CE),
		mkTick(1, time.Hour, errlog.CE),
		mkTick(1, 2*time.Hour, errlog.CE),
	}}
	cfg := DefaultConfig()
	e := NewMitigationEnv(cfg, ticks, fixedSampler(5, 1000))
	s := e.Reset()
	if len(s) != features.Dim {
		t.Fatalf("state dim %d", len(s))
	}
	// One step per decision tick; rewards must be 0 (no UE, no mitigation).
	_, r1, done := e.Step(ActionNone)
	if r1 != 0 || done {
		t.Fatalf("step 1: r=%v done=%v", r1, done)
	}
	_, r2, done := e.Step(ActionNone)
	if r2 != 0 || done {
		t.Fatalf("step 2: r=%v done=%v", r2, done)
	}
	_, r3, done := e.Step(ActionNone)
	if r3 != 0 || !done {
		t.Fatalf("step 3: r=%v done=%v, want done", r3, done)
	}
}

func TestEnvMitigationCost(t *testing.T) {
	ticks := [][]errlog.Tick{{
		mkTick(1, 0, errlog.CE),
		mkTick(1, time.Hour, errlog.CE),
	}}
	cfg := DefaultConfig()
	cfg.RewardScale = 1
	e := NewMitigationEnv(cfg, ticks, fixedSampler(5, 1000))
	e.Reset()
	_, r, _ := e.Step(ActionMitigate)
	want := -cfg.MitigationCostNodeHours()
	if math.Abs(r-want) > 1e-12 {
		t.Fatalf("mitigation reward = %v, want %v", r, want)
	}
}

func TestEnvUEReward(t *testing.T) {
	// CE at t=0 (decision point), UE at t=10h. Without mitigation the UE
	// costs 5 nodes x 10h = 50 node-hours.
	ticks := [][]errlog.Tick{{
		mkTick(1, 0, errlog.CE),
		mkTick(1, 10*time.Hour, errlog.UE),
	}}
	cfg := DefaultConfig()
	cfg.RewardScale = 1
	e := NewMitigationEnv(cfg, ticks, fixedSampler(5, 1000))
	e.Reset()
	_, r, done := e.Step(ActionNone)
	if !done {
		t.Fatal("episode should end after the final UE")
	}
	if math.Abs(r+50) > 1e-9 {
		t.Fatalf("UE reward = %v, want -50", r)
	}
}

func TestEnvMitigationReducesUEReward(t *testing.T) {
	ticks := [][]errlog.Tick{{
		mkTick(1, 0, errlog.CE),
		mkTick(1, 9*time.Hour, errlog.CE),
		mkTick(1, 10*time.Hour, errlog.UE),
	}}
	cfg := DefaultConfig()
	cfg.RewardScale = 1
	run := func(second int) float64 {
		e := NewMitigationEnv(cfg, ticks, fixedSampler(5, 1000))
		e.Reset()
		total := 0.0
		_, r, _ := e.Step(ActionNone)
		total += r
		_, r, _ = e.Step(second)
		total += r
		return total
	}
	noMit := run(ActionNone)
	mit := run(ActionMitigate)
	// Mitigating at t=9h cuts the UE cost from 50 to 5 nodes x 1h = 5,
	// plus the 2 node-minute mitigation cost.
	if math.Abs(noMit+50) > 1e-9 {
		t.Fatalf("no-mitigation total = %v, want -50", noMit)
	}
	want := -5.0 - cfg.MitigationCostNodeHours()
	if math.Abs(mit-want) > 1e-9 {
		t.Fatalf("mitigation total = %v, want %v", mit, want)
	}
}

func TestEnvUEBeforeFirstDecisionIgnored(t *testing.T) {
	// A UE with no preceding event never invokes the agent (§3.2.3) and
	// must not leak reward into the first step.
	ticks := [][]errlog.Tick{{
		mkTick(1, 0, errlog.UE),
		mkTick(1, 10*time.Hour, errlog.CE),
		mkTick(1, 11*time.Hour, errlog.CE),
	}}
	cfg := DefaultConfig()
	cfg.RewardScale = 1
	e := NewMitigationEnv(cfg, ticks, fixedSampler(5, 1000))
	e.Reset()
	_, r, _ := e.Step(ActionNone)
	if r != 0 {
		t.Fatalf("leaked reward %v from pre-decision UE", r)
	}
}

func TestEnvStatesCarryCostFeature(t *testing.T) {
	ticks := [][]errlog.Tick{{
		mkTick(1, 0, errlog.CE),
		mkTick(1, 10*time.Hour, errlog.CE),
	}}
	cfg := DefaultConfig()
	e := NewMitigationEnv(cfg, ticks, fixedSampler(5, 1000))
	e.Reset()
	s, _, _ := e.Step(ActionNone)
	// At t=10h the job (5 nodes, started at t=0) has cost 50 node-hours;
	// normalized = log1p(50).
	if math.Abs(s[features.UECost]-math.Log1p(50)) > 1e-9 {
		t.Fatalf("cost feature = %v, want log1p(50)", s[features.UECost])
	}
}

func TestEnvPanicsOnBadAction(t *testing.T) {
	ticks := [][]errlog.Tick{{mkTick(1, 0, errlog.CE), mkTick(1, 1, errlog.CE)}}
	e := NewMitigationEnv(DefaultConfig(), ticks, fixedSampler(1, 1))
	e.Reset()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Step(7)
}

func TestEnvPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMitigationEnv(DefaultConfig(), nil, fixedSampler(1, 1))
}

// TestEnvDeterministicEpisodes: environments with the same seed replay
// identical episodes — states, rewards and episode lengths.
func TestEnvDeterministicEpisodes(t *testing.T) {
	ticks := [][]errlog.Tick{
		{mkTick(1, 0, errlog.CE), mkTick(1, time.Hour, errlog.CE)},
		{mkTick(2, 0, errlog.CE), mkTick(2, 2*time.Hour, errlog.CE)},
	}
	run := func() []float64 {
		e := NewMitigationEnv(DefaultConfig(), ticks, fixedSampler(3, 10))
		var out []float64
		for ep := 0; ep < 10; ep++ {
			out = append(out, e.Reset()...)
			for {
				s, r, done := e.Step(ActionMitigate)
				out = append(out, r)
				if done {
					break
				}
				out = append(out, s...)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("episode streams have %d and %d values", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("env not reproducible at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestEnvStatePingPong: consecutive Reset/Step states must come from two
// alternating buffers — the previous state stays valid for exactly one more
// step (the caller hands it to the replay buffer, which copies), and the
// step loop allocates no per-step state vectors.
func TestEnvStatePingPong(t *testing.T) {
	ticks := [][]errlog.Tick{{
		mkTick(1, 0, errlog.CE),
		mkTick(1, time.Hour, errlog.CE),
		mkTick(1, 2*time.Hour, errlog.CE),
		mkTick(1, 3*time.Hour, errlog.CE),
	}}
	e := NewMitigationEnv(DefaultConfig(), ticks, fixedSampler(5, 1000))
	s0 := e.Reset()
	s1, _, _ := e.Step(ActionNone)
	if &s0[0] == &s1[0] {
		t.Fatal("Step returned the same buffer as Reset; previous state was clobbered")
	}
	prev := append([]float64(nil), s1...)
	s2, _, _ := e.Step(ActionNone)
	if &s2[0] != &s0[0] {
		t.Fatal("Step did not ping-pong back to the first buffer")
	}
	for i := range prev {
		if s1[i] != prev[i] {
			t.Fatal("previous state mutated before the next step returned")
		}
	}
}

// TestEnvStepNoStateAllocs: after warmup, stepping must not allocate state
// vectors (the pre-interning implementation leaked ~130 B per step into the
// replay buffer's working set).
func TestEnvStepNoStateAllocs(t *testing.T) {
	var ts []errlog.Tick
	for i := 0; i < 4096; i++ {
		ts = append(ts, mkTick(1, time.Duration(i)*time.Minute, errlog.CE))
	}
	e := NewMitigationEnv(DefaultConfig(), [][]errlog.Tick{ts}, fixedSampler(5, 1e6))
	e.Reset()
	allocs := testing.AllocsPerRun(500, func() {
		if _, _, done := e.Step(ActionNone); done {
			e.Reset()
		}
	})
	// The timeline and tracker may allocate occasionally (job rollovers);
	// per-step state vectors alone were ~2 allocations every step.
	if allocs > 0.1 {
		t.Fatalf("Step allocates %v times per call, want ~0", allocs)
	}
}
