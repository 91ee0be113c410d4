package evalx

import (
	"sync"
	"time"

	"repro/internal/env"
	"repro/internal/errlog"
	"repro/internal/features"
	"repro/internal/jobs"
	"repro/internal/mathx"
	"repro/internal/parx"
	"repro/internal/policies"
)

// This file is the replay engine. ReplayAll is the one implementation of
// the §4.3 cost–benefit replay and the §4.4 classification accounting;
// every caller goes through it, whether it scores one policy or many. It
// walks each node's tick stream exactly once for all N policies and
// produces Results bit-identical to replaying each policy on its own. That
// plain one-policy-per-walk replay is kept only as the test oracle,
// referenceReplay in reference_test.go.
//
// What makes a single shared walk possible:
//
//   - The feature tracker's state depends only on the tick stream, never on
//     the supplied potential UE cost (which only fills the returned
//     vector's UECost slot), so one tracker serves every policy.
//   - The job timeline's job sequence and RNG draws depend only on time and
//     UE events; a mitigation moves nothing but the cost baseline
//     (env.Timeline.Mitigate). The engine keeps one mitigation-free
//     timeline and reconstructs each policy's effective cost as
//     nodes × (t − max(jobStart, lastMitigation)) — exactly the value a
//     per-policy timeline would report. A mitigation in the post-UE
//     downtime, before the next job starts, leaves that job's baseline at
//     its start.
//   - A policy replayed on its own would reseed from JobSeed, so every
//     policy under one ReplayConfig consumes identical RNG streams and
//     forking once per node reproduces every policy's draws.
//
// Per decision point the engine materializes one policies.Context and hands
// it to every decider's Decide, writing only that decider's own potential
// UE cost into it between calls. The forest policies share one memoized
// forest score through it (policies.Context.RFProb), so a threshold grid
// costs one ensemble evaluation per tick.

// policyState is the per-(node, policy) divergent replay state: the §4.4
// mitigation window and the cost baseline of the latest mitigation.
type policyState struct {
	mitigations []time.Time
	lastMit     time.Time
	hasMit      bool
}

// engineScratch holds the reusable per-worker state of the single-pass
// engine, recycled across nodes through a pool.
type engineScratch struct {
	tracker *features.Tracker
	ps      []policyState
	ctx     policies.Context
}

var engineScratchPool = sync.Pool{New: func() any {
	return &engineScratch{tracker: features.NewTracker()}
}}

// reset prepares the scratch for a node replayed against np policies.
func (sc *engineScratch) reset(np int) {
	sc.tracker.Reset()
	if cap(sc.ps) < np {
		sc.ps = make([]policyState, np)
	}
	sc.ps = sc.ps[:np]
	for i := range sc.ps {
		sc.ps[i].mitigations = sc.ps[i].mitigations[:0]
		sc.ps[i].lastMit = time.Time{}
		sc.ps[i].hasMit = false
	}
}

// ReplayAll replays the deciders ds over the per-node tick sequences under
// identical workloads, accounting costs and classification metrics inside
// the configured window; the i-th Result belongs to ds[i]. For each node
// the tick stream is walked once: the decision Context, job context and
// (lazily) the RF score are materialized once per decision point, and
// every decider's Decide reads that shared state. Results are
// bit-identical to replaying each decider on its own — the equivalence
// tests in engine_test.go check them against referenceReplay.
//
// Nodes are independent worlds, so they fan out across a bounded worker
// pool (ReplayConfig.Parallelism). Determinism holds by construction:
// per-node RNGs are forked serially in node order before any worker
// starts, each worker accumulates into its own per-node Results, and the
// partials reduce in node order, so serial and parallel runs produce
// bit-identical Results. If any decider is not concurrency-safe the whole
// set replays serially (decisions for all policies are interleaved on one
// worker, which preserves each decider's own call order).
func ReplayAll(ds []policies.Decider, ticksByNode [][]errlog.Tick, sampler *jobs.Sampler, cfg ReplayConfig) []Result {
	out := make([]Result, len(ds))
	for i, d := range ds {
		out[i] = Result{Policy: d.Name()}
	}
	if len(ds) == 0 {
		return out
	}

	rng := mathx.NewRNG(cfg.JobSeed)
	type nodeWork struct {
		ticks []errlog.Tick
		rng   *mathx.RNG
	}
	work := make([]nodeWork, 0, len(ticksByNode))
	for _, ticks := range ticksByNode {
		if len(ticks) == 0 {
			continue
		}
		work = append(work, nodeWork{ticks: ticks, rng: rng.Fork()})
	}

	workers := parx.Workers(cfg.Parallelism)
	for _, d := range ds {
		if !policies.IsConcurrentSafe(d) {
			workers = 1
			break
		}
	}

	partials := make([][]Result, len(work))
	flat := make([]Result, len(work)*len(ds))
	for i := range partials {
		partials[i] = flat[i*len(ds) : (i+1)*len(ds)]
	}
	parx.For(len(work), workers, func(i int) {
		sc := engineScratchPool.Get().(*engineScratch)
		sc.reset(len(ds))
		replayNodeAll(ds, work[i].ticks, sampler, cfg, work[i].rng, sc, partials[i])
		engineScratchPool.Put(sc)
	})

	// Reduce in node order per policy: the same accumulation order as a
	// per-policy replay, so sums match bit for bit.
	for _, part := range partials {
		for pi := range part {
			out[pi].Add(part[pi])
		}
	}
	for pi := range out {
		out[pi].Metrics.FPs = out[pi].Metrics.Mitigations - out[pi].Metrics.TPs
		out[pi].Metrics.TNs = out[pi].Metrics.NonMitigations - out[pi].Metrics.FNs
	}
	return out
}

// replayNodeAll replays one node's tick sequence for every decider at
// once, accumulating each decider's partial Result into out.
func replayNodeAll(ds []policies.Decider, ticks []errlog.Tick, sampler *jobs.Sampler, cfg ReplayConfig, rng *mathx.RNG, sc *engineScratch, out []Result) {
	tracker := sc.tracker
	tl := env.NewTimeline(sampler, rng.Fork(), cfg.Env.Restartable, ticks[0].Time)
	costRNG := rng.Fork()
	mitCost := cfg.Env.MitigationCostNodeHours()
	overhead := time.Duration(cfg.Env.MitigationCostNodeMinutes * float64(time.Minute))
	restartable := cfg.Env.Restartable
	override := cfg.CostOverride != nil

	ps := sc.ps
	var lastEvent time.Time
	var haveEvent bool
	lastOverride := 0.0

	for _, tick := range ticks {
		tl.AdvanceTo(tick.Time)
		if tick.HasUE() {
			ut := ueEventTime(tick)
			// Capture the job context before OnUE replaces the job, then
			// let the shared (mitigation-free) timeline account the UE: its
			// cost is the no-mitigation baseline every policy shares unless
			// its own mitigation moved the baseline forward.
			jobNodes := float64(tl.Job().Nodes)
			jobStart := tl.JobStart()
			sharedCost := tl.OnUE(ut)
			tracker.Observe(tick, 0, nil)
			if cfg.inWindow(ut) {
				unreachable := !haveEvent || ut.Sub(lastEvent) > PredictionWindow
				for pi := range ps {
					st := &ps[pi]
					cost := sharedCost
					if override {
						cost = lastOverride
					} else if restartable && st.hasMit && st.lastMit.After(jobStart) {
						lost := ut.Sub(st.lastMit)
						if lost < 0 {
							lost = 0
						}
						cost = jobNodes * lost.Hours()
					}
					res := &out[pi]
					res.UEs++
					res.UECost += cost
					// §4.4: TP if a mitigation completed within the
					// preceding 24 h (initiated at least the mitigation
					// overhead before the UE); otherwise FN. A UE with no
					// event in the preceding window also counts an
					// implicit non-mitigation.
					mitigated := false
					for i := len(st.mitigations) - 1; i >= 0; i-- {
						dt := ut.Sub(st.mitigations[i])
						if dt > PredictionWindow {
							break
						}
						if dt >= overhead {
							mitigated = true
							break
						}
					}
					if mitigated {
						res.Metrics.TPs++
					} else {
						res.Metrics.FNs++
						if unreachable {
							res.Metrics.NonMitigations++
						}
					}
				}
			}
			lastEvent, haveEvent = ut, true
			continue
		}

		sharedCost := tl.CostAt(tick.Time)
		if override {
			sharedCost = cfg.CostOverride(costRNG)
			lastOverride = sharedCost
		}
		// The literal also clears the previous tick's RFProb memo.
		sc.ctx = policies.Context{Node: tick.Node, Time: tick.Time}
		tracker.Observe(tick, sharedCost, &sc.ctx.Features)
		jobNodes := float64(tl.Job().Nodes)
		jobStart := tl.JobStart()
		inWin := cfg.inWindow(tick.Time)
		for pi := range ps {
			st := &ps[pi]
			cost := sharedCost
			if !override && restartable && st.hasMit && st.lastMit.After(jobStart) {
				lost := tick.Time.Sub(st.lastMit)
				if lost < 0 {
					lost = 0
				}
				cost = jobNodes * lost.Hours()
			}
			sc.ctx.Features[features.UECost] = cost
			mitigate := ds[pi].Decide(&sc.ctx)
			if mitigate {
				st.lastMit, st.hasMit = tick.Time, true
				st.mitigations = append(st.mitigations, tick.Time)
				// Trim the window to bound memory.
				if len(st.mitigations) > 64 {
					st.mitigations = st.mitigations[len(st.mitigations)-64:]
				}
			}
			if inWin {
				res := &out[pi]
				res.Decisions++
				if mitigate {
					res.MitigationCost += mitCost
					res.Metrics.Mitigations++
				} else {
					res.Metrics.NonMitigations++
				}
			}
		}
		lastEvent, haveEvent = tick.Time, true
	}
}
