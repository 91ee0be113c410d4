package evalx

// ProbationConfig parameterizes a post-promotion probation window.
type ProbationConfig struct {
	// Shadow sets the node-hour accounting both sides are scored with
	// (mitigation cost, restartability, prediction window) — the same
	// parameters the pre-promotion shadow evaluation used.
	Shadow ShadowConfig
	// MinDecisions is the probation window length in served decisions: a
	// promoted model that survives this many decisions without regressing
	// passes probation.
	MinDecisions int
	// ToleranceNodeHours is the regression tolerance: probation fails as
	// soon as the promoted model's total cost exceeds the reference's by
	// more than this, in node-hours. Zero means any strictly positive
	// regression fails — note that one extra mitigation then already
	// counts, so real deployments leave headroom for spend jitter.
	ToleranceNodeHours float64
}

// ProbationVerdict is the current judgement of a probation window.
type ProbationVerdict struct {
	// Decided reports that probation is over: either the promoted model
	// regressed past tolerance (Regressed true — roll back) or it
	// survived MinDecisions (Regressed false — it stays).
	Decided bool
	// Regressed reports a rollback-worthy regression.
	Regressed bool
	// MarginNodeHours is promoted-minus-reference total cost so far;
	// positive means the promoted model is doing worse.
	MarginNodeHours float64
	// Decisions and UEs count the probation traffic scored so far.
	Decisions int
	UEs       int
}

// Probation scores a freshly promoted model against its replaced
// incumbent on identical post-promotion traffic: a Duel — the same
// accounting that gated the promotion — with the roles flipped, the
// promoted model now serving and the incumbent running as the
// counterfactual. The caller feeds every served decision (with the
// incumbent's counterfactual choice on the same feature snapshot) and
// every realized UE, and polls Verdict; a regression past tolerance
// within the window is the rollback trigger the promotion-time shadow
// gate cannot provide, because the traffic that exposes the regression
// (e.g. an adversarial error burst) may only arrive after the swap.
//
// Probation is not safe for concurrent use; its owner provides locking.
type Probation struct {
	*Duel
	cfg ProbationConfig
}

// NewProbation starts a probation window.
func NewProbation(cfg ProbationConfig) *Probation {
	if cfg.MinDecisions <= 0 {
		cfg.MinDecisions = 256
	}
	return &Probation{Duel: NewDuel("promoted", "reference", cfg.Shadow), cfg: cfg}
}

// Verdict reports the probation state after the traffic fed so far.
func (p *Probation) Verdict() ProbationVerdict {
	prom, ref := p.Results()
	v := ProbationVerdict{
		MarginNodeHours: prom.TotalCost() - ref.TotalCost(),
		Decisions:       prom.Decisions,
		UEs:             prom.UEs,
	}
	switch {
	case v.MarginNodeHours > p.cfg.ToleranceNodeHours:
		v.Decided, v.Regressed = true, true
	case prom.Decisions >= p.cfg.MinDecisions:
		v.Decided = true
	}
	return v
}
