package evalx

import (
	"time"

	"repro/internal/env"
	"repro/internal/errlog"
	"repro/internal/features"
	"repro/internal/jobs"
	"repro/internal/mathx"
	"repro/internal/parx"
	"repro/internal/policies"
)

// referenceReplay is the equivalence oracle for ReplayAll: the §4.3/§4.4
// replay written the plain way, one policy per full walk of every node's
// ticks, with its own feature tracker and its own job timeline whose
// mitigations move the cost baseline directly. ReplayAll must reproduce it
// bit for bit for every decider; engine_test.go and threshold_test.go
// check exactly that.
//
// Nodes replay across the same bounded worker pool as ReplayAll: per-node
// RNGs are forked serially in node order before any worker starts, each
// worker accumulates into its own per-node Result, and the partials reduce
// in node order.
func referenceReplay(d policies.Decider, ticksByNode [][]errlog.Tick, sampler *jobs.Sampler, cfg ReplayConfig) Result {
	res := Result{Policy: d.Name()}
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
	if !policies.IsConcurrentSafe(d) {
		workers = 1
	}
	partials := make([]Result, len(work))
	parx.For(len(work), workers, func(i int) {
		referenceReplayNode(d, work[i].ticks, sampler, cfg, work[i].rng, &partials[i])
	})
	for i := range partials {
		res.Add(partials[i])
	}
	res.Metrics.FPs = res.Metrics.Mitigations - res.Metrics.TPs
	res.Metrics.TNs = res.Metrics.NonMitigations - res.Metrics.FNs
	return res
}

// referenceReplayNode replays one node's tick sequence.
func referenceReplayNode(d policies.Decider, ticks []errlog.Tick, sampler *jobs.Sampler, cfg ReplayConfig, rng *mathx.RNG, res *Result) {
	tracker := features.NewTracker()
	tl := env.NewTimeline(sampler, rng.Fork(), cfg.Env.Restartable, ticks[0].Time)
	costRNG := rng.Fork()
	mitCost := cfg.Env.MitigationCostNodeHours()
	overhead := time.Duration(cfg.Env.MitigationCostNodeMinutes * float64(time.Minute))

	// Recent mitigation times (for the §4.4 prediction window) and the
	// last event time (to detect UEs with no event in the preceding day).
	var mitigations []time.Time
	var lastEvent time.Time
	var haveEvent bool
	lastOverride := 0.0

	for _, tick := range ticks {
		tl.AdvanceTo(tick.Time)
		if tick.HasUE() {
			ut := ueEventTime(tick)
			cost := tl.OnUE(ut)
			if cfg.CostOverride != nil {
				cost = lastOverride
			}
			tracker.Observe(tick, 0, nil)
			if cfg.inWindow(ut) {
				res.UEs++
				res.UECost += cost
				// §4.4: TP if a mitigation completed within the preceding
				// 24 h (initiated at least the mitigation overhead before
				// the UE); otherwise FN. UEs with no event in the window
				// are implicit "no-mitigate" false negatives.
				mitigated := false
				for i := len(mitigations) - 1; i >= 0; i-- {
					dt := ut.Sub(mitigations[i])
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
					if !haveEvent || ut.Sub(lastEvent) > PredictionWindow {
						// Implicit non-mitigation for the unreachable UE.
						res.Metrics.NonMitigations++
					}
				}
			}
			lastEvent, haveEvent = ut, true
			continue
		}

		ueCost := tl.CostAt(tick.Time)
		if cfg.CostOverride != nil {
			ueCost = cfg.CostOverride(costRNG)
			lastOverride = ueCost
		}
		var v features.Vector
		tracker.Observe(tick, ueCost, &v)
		mitigate := d.Decide(&policies.Context{Node: tick.Node, Time: tick.Time, Features: v})
		if mitigate {
			// A mitigation in the post-UE downtime precedes the next job,
			// so it must not move that job's cost baseline before its
			// start.
			if tick.Time.After(tl.JobStart()) {
				tl.Mitigate(tick.Time)
			}
			mitigations = append(mitigations, tick.Time)
			// Trim the window to bound memory.
			if len(mitigations) > 64 {
				mitigations = mitigations[len(mitigations)-64:]
			}
		}
		if cfg.inWindow(tick.Time) {
			res.Decisions++
			if mitigate {
				res.MitigationCost += mitCost
				res.Metrics.Mitigations++
			} else {
				res.Metrics.NonMitigations++
			}
		}
		lastEvent, haveEvent = tick.Time, true
	}
}
