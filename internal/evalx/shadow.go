package evalx

import "time"

// ShadowConfig parameterizes a streaming shadow evaluation.
type ShadowConfig struct {
	// MitigationCostNodeHours is the per-action cost charged to a
	// mitigate decision.
	MitigationCostNodeHours float64
	// Restartable reports whether a mitigation establishes a restart
	// point: if true, a UE caught by an in-window mitigation charges no
	// UE cost (the work since the restart point is the mitigation
	// overhead, already charged); if false, the full realized cost is
	// charged regardless — mitigation then only helps through the
	// operational response it triggers, as in the paper's §5.5 ablation.
	Restartable bool
}

// ShadowEval scores one policy's decision stream against realized UE
// outcomes with the same rolling accounting the replay engine uses, but
// online: decisions and UEs arrive one at a time from live traffic
// instead of from a recorded log. It is how candidate models are scored
// against the incumbent during shadow deployment — both see identical
// traffic, only their decisions differ, so their Results are directly
// comparable.
//
// The accounting mirrors replayNodeAll: every mitigate decision charges the
// mitigation cost; a UE whose node saw a mitigation complete within the
// prediction window is a true positive (UE cost forgiven when
// restartable), otherwise a false negative charging the full realized
// cost. Unlike offline replay there is no workload timeline, so the
// realized UE cost is supplied by the caller (the serving layer's
// potential-cost source at the UE instant).
//
// ShadowEval is not safe for concurrent use; the learning loop owns it.
type ShadowEval struct {
	cfg       ShadowConfig
	res       Result
	recent    map[int][]time.Time
	lastEvent map[int]time.Time
}

// NewShadowEval builds a scorer for the named policy.
func NewShadowEval(name string, cfg ShadowConfig) *ShadowEval {
	return &ShadowEval{
		cfg:       cfg,
		res:       Result{Policy: name},
		recent:    map[int][]time.Time{},
		lastEvent: map[int]time.Time{},
	}
}

// Decision records one decision for node at time at.
func (s *ShadowEval) Decision(node int, at time.Time, mitigate bool) {
	s.res.Decisions++
	s.lastEvent[node] = at
	if !mitigate {
		s.res.Metrics.NonMitigations++
		return
	}
	s.res.MitigationCost += s.cfg.MitigationCostNodeHours
	s.res.Metrics.Mitigations++
	times := append(s.recent[node], at)
	// Bound per-node memory exactly like the replay engine.
	if len(times) > 64 {
		times = times[len(times)-64:]
	}
	s.recent[node] = times
}

// UE records a realized uncorrected error on node at time at with the
// given realized cost in node–hours.
func (s *ShadowEval) UE(node int, at time.Time, costNodeHours float64) {
	s.res.UEs++
	mitigated := false
	times := s.recent[node]
	for i := len(times) - 1; i >= 0; i-- {
		dt := at.Sub(times[i])
		if dt > PredictionWindow {
			break
		}
		if dt >= OracleOverhead {
			mitigated = true
			break
		}
	}
	if mitigated {
		s.res.Metrics.TPs++
		if !s.cfg.Restartable {
			s.res.UECost += costNodeHours
		}
	} else {
		s.res.Metrics.FNs++
		s.res.UECost += costNodeHours
		// §4.4 parity with replayNodeAll: a UE with no event on its node in
		// the preceding prediction window is an implicit "no-mitigate"
		// decision — count the non-mitigation so the confusion matrix
		// balances exactly as offline replay reports it.
		last, seen := s.lastEvent[node]
		if !seen || at.Sub(last) > PredictionWindow {
			s.res.Metrics.NonMitigations++
		}
	}
	s.lastEvent[node] = at
}

// Result returns the accumulated rolling result with the derived
// FP/TN counts filled in, exactly as Replay reports them.
func (s *ShadowEval) Result() Result {
	res := s.res
	res.Metrics.FPs = res.Metrics.Mitigations - res.Metrics.TPs
	res.Metrics.TNs = res.Metrics.NonMitigations - res.Metrics.FNs
	return res
}

// Duel scores a serving policy against a counterfactual on identical
// traffic: every served decision is scored beside what the counterfactual
// would have decided on the same feature snapshot, and every realized UE
// is charged to both, each side's own mitigation history deciding whether
// it caught it. It is the one node-hour comparison behind every lifecycle
// verdict — the shadow gate before a promotion (the incumbent serves, the
// candidate is the counterfactual) and probation after it (the promoted
// model serves, the replaced incumbent is the counterfactual).
//
// Duel is not safe for concurrent use; its owner provides locking.
type Duel struct {
	served, counter *ShadowEval
}

// NewDuel starts a comparison between the named serving and
// counterfactual policies under one accounting configuration.
func NewDuel(served, counter string, cfg ShadowConfig) *Duel {
	return &Duel{served: NewShadowEval(served, cfg), counter: NewShadowEval(counter, cfg)}
}

// Decision scores one served decision: served is what the serving policy
// did, counter what the counterfactual would have done.
func (d *Duel) Decision(node int, at time.Time, served, counter bool) {
	d.served.Decision(node, at, served)
	d.counter.Decision(node, at, counter)
}

// UE scores one realized uncorrected error against both sides.
func (d *Duel) UE(node int, at time.Time, costNodeHours float64) {
	d.served.UE(node, at, costNodeHours)
	d.counter.UE(node, at, costNodeHours)
}

// Results returns both rolling scoreboards.
func (d *Duel) Results() (served, counter Result) {
	return d.served.Result(), d.counter.Result()
}
