package uerl

import (
	"fmt"
	"time"

	"repro/internal/evalx"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/policies"
	"repro/internal/rf"
	"repro/internal/rl"
)

// PolicyKind names one of the §4.2 policy families.
type PolicyKind string

const (
	// PolicyNever never mitigates (the no-mitigation baseline).
	PolicyNever PolicyKind = "never"
	// PolicyAlways mitigates on every telemetry event.
	PolicyAlways PolicyKind = "always"
	// PolicySC20RF thresholds the SC'20 random-forest UE score.
	PolicySC20RF PolicyKind = "sc20-rf"
	// PolicyMyopicRF mitigates when RF score × potential UE cost exceeds
	// the mitigation cost.
	PolicyMyopicRF PolicyKind = "myopic-rf"
	// PolicyRL is the paper's dueling double DQN agent.
	PolicyRL PolicyKind = "rl"
	// PolicyOracle mitigates exactly on the last event before each UE
	// (future knowledge; not realizable, not serializable).
	PolicyOracle PolicyKind = "oracle"
)

// PolicyKinds lists every kind TrainPolicy accepts, in §4.2 order.
func PolicyKinds() []PolicyKind {
	return []PolicyKind{PolicyNever, PolicyAlways, PolicySC20RF, PolicyMyopicRF, PolicyRL, PolicyOracle}
}

// ParsePolicyKind converts a CLI string to a PolicyKind.
func ParsePolicyKind(s string) (PolicyKind, error) {
	for _, k := range PolicyKinds() {
		if s == string(k) {
			return k, nil
		}
	}
	return "", fmt.Errorf("uerl: unknown policy kind %q (want one of %v)", s, PolicyKinds())
}

// Policy is the unified serving interface over every §4.2 approach: a
// decision function from a node state Snapshot to a Decision, plus the
// identity a serving layer needs (kind, report name, artifact version).
//
// Implementations served by a Controller must be safe for concurrent use;
// all policies returned by this package are. Custom implementations are
// welcome — any Policy can be served by NewController and scored by
// System.EvaluatePolicy — but only the built-in kinds can be persisted
// with SaveModel.
type Policy interface {
	// Kind reports the policy family.
	Kind() PolicyKind
	// Name identifies the policy in reports.
	Name() string
	// Version identifies the model artifact (content-addressed for
	// trained kinds, so two identical weight sets share a version).
	Version() string
	// Decide maps a raw Table 1 feature snapshot to a decision. The
	// returned Decision must have Action and Score set; the serving layer
	// fills the bookkeeping fields.
	Decide(s Snapshot) Decision
}

// ---- Never / Always ----

// staticPolicy is a trivial constant policy (Never / Always).
type staticPolicy struct {
	kind    PolicyKind
	name    string
	version string
	act     Action
	score   float64
}

// NeverPolicy returns the Never-mitigate baseline as a servable Policy.
func NeverPolicy() Policy {
	return &staticPolicy{kind: PolicyNever, name: policies.Never{}.Name(), version: staticVersion(PolicyNever), act: ActionNone, score: -1}
}

// AlwaysPolicy returns the Always-mitigate baseline as a servable Policy.
func AlwaysPolicy() Policy {
	return &staticPolicy{kind: PolicyAlways, name: policies.Always{}.Name(), version: staticVersion(PolicyAlways), act: ActionMitigate, score: 1}
}

func (p *staticPolicy) Kind() PolicyKind { return p.kind }
func (p *staticPolicy) Name() string     { return p.name }
func (p *staticPolicy) Version() string  { return p.version }

func (p *staticPolicy) Decide(s Snapshot) (d Decision) {
	p.decideInto(&d, s.Node, s.Time, (*features.Vector)(&s.Features))
	return d
}

// decideInto fills d with the constant decision on v for node at time at.
//
//uerl:hotpath
func (p *staticPolicy) decideInto(d *Decision, node int, at time.Time, v *features.Vector) {
	// Zeroed, then filled, in place: assigning a composite literal
	// through d would build it on the stack and copy it.
	*d = Decision{}
	d.Node, d.Time, d.Action, d.Score = node, at, p.act, p.score
	d.Features = *v
	d.Policy, d.ModelVersion = p.name, p.version
}

// ---- Trained kinds ----

// lineage is the model-artifact identity every trained kind (sc20-rf,
// myopic-rf, rl) carries: its content-addressed version, the lineage
// parent (ModelHeader.Parent) and the producing configuration.
type lineage struct {
	version  string
	parent   string
	training *TrainingInfo
}

func (l *lineage) Version() string        { return l.version }
func (l *lineage) modelLineage() *lineage { return l }

// trainedPolicy is implemented by the policies that embed a lineage.
type trainedPolicy interface{ modelLineage() *lineage }

// ---- SC20-RF ----

// rfPolicy serves the SC20-RF threshold policy.
type rfPolicy struct {
	d *policies.RFThreshold
	lineage
}

func newRFPolicy(forest *rf.Forest, threshold float64, info *TrainingInfo) (*rfPolicy, error) {
	version, err := forestVersion(PolicySC20RF, forest, threshold)
	if err != nil {
		return nil, err
	}
	return &rfPolicy{
		d:       &policies.RFThreshold{Forest: forest, Threshold: threshold},
		lineage: lineage{version: version, training: info},
	}, nil
}

func (p *rfPolicy) Kind() PolicyKind { return PolicySC20RF }
func (p *rfPolicy) Name() string     { return p.d.Name() }

func (p *rfPolicy) Decide(s Snapshot) Decision {
	ctx := policies.Context{Node: s.Node, Time: s.Time, Features: s.vector()}
	// One forest inference: the score's zero crossing IS the decision
	// boundary (probability margin over the threshold). Score is called on
	// the concrete type so ctx stays on the stack.
	score := p.d.Score(&ctx)
	return decisionFor(p, s, actionOf(score > 0), score)
}

// ---- Myopic-RF ----

// myopicPolicy serves the cost-aware Myopic-RF policy.
type myopicPolicy struct {
	d *policies.MyopicRF
	lineage
}

func newMyopicPolicy(forest *rf.Forest, mitigationCostNodeHours float64, info *TrainingInfo) (*myopicPolicy, error) {
	version, err := forestVersion(PolicyMyopicRF, forest, mitigationCostNodeHours)
	if err != nil {
		return nil, err
	}
	return &myopicPolicy{
		d:       &policies.MyopicRF{Forest: forest, MitigationCostNodeHours: mitigationCostNodeHours},
		lineage: lineage{version: version, training: info},
	}, nil
}

func (p *myopicPolicy) Kind() PolicyKind { return PolicyMyopicRF }
func (p *myopicPolicy) Name() string     { return p.d.Name() }

func (p *myopicPolicy) Decide(s Snapshot) Decision {
	ctx := policies.Context{Node: s.Node, Time: s.Time, Features: s.vector()}
	// One forest inference, as in rfPolicy: score > 0 is the decision.
	score := p.d.Score(&ctx)
	return decisionFor(p, s, actionOf(score > 0), score)
}

// ---- RL ----

// rlPolicy serves the trained Q-network. Each decision runs the network's
// forward pass on its own stack (rl.SharedQPolicy) and normalizes into a
// buffer its caller owns: Decide's stack, or the Controller's tick, which
// hands the buffer on to the online learner as the tick's experience
// state, so an RL-served tick normalizes once. One instance serves all
// controller shards concurrently and a decision allocates nothing.
type rlPolicy struct {
	q *rl.SharedQPolicy
	lineage
}

// newRLPolicy wraps a frozen network (the policy takes ownership; Clone
// first if the source keeps training).
func newRLPolicy(net *nn.Network, info *TrainingInfo) (*rlPolicy, error) {
	if got := net.Config().Inputs; got != features.Dim {
		return nil, fmt.Errorf("uerl: model expects %d inputs, this build uses %d", got, features.Dim)
	}
	// Decide reads exactly [Q(none), Q(mitigate)]; reject any artifact with
	// a different action count rather than silently comparing garbage.
	if got := net.Config().Outputs; got != 2 {
		return nil, fmt.Errorf("uerl: model has %d outputs, this serving layer decides over 2 actions", got)
	}
	version, err := networkVersion(PolicyRL, net)
	if err != nil {
		return nil, err
	}
	return &rlPolicy{q: rl.NewSharedQPolicy(net), lineage: lineage{version: version, training: info}}, nil
}

func (p *rlPolicy) Kind() PolicyKind { return PolicyRL }
func (p *rlPolicy) Name() string     { return "RL" }

func (p *rlPolicy) Decide(s Snapshot) (d Decision) {
	var norm [FeatureDim]float64
	p.decideInto(&d, s.Node, s.Time, (*features.Vector)(&s.Features), &norm)
	return d
}

// decideInto fills d with the decision on v for node at time at and
// leaves the network input, v normalized, in norm. Every pointer stays on
// its caller's stack: QValuesInto is a concrete call that does not retain
// its input. Ties (and NaN Q-values) go to ActionNone, the first action,
// as in rl.SharedQPolicy.Action.
//
//uerl:hotpath
func (p *rlPolicy) decideInto(d *Decision, node int, at time.Time, v *features.Vector, norm *[FeatureDim]float64) {
	var qv [2]float64
	p.q.QValuesInto(qv[:], v.NormalizedInto(norm[:]))
	*d = Decision{} // in place, as in staticPolicy.decideInto
	d.Node, d.Time = node, at
	d.Action, d.Score, d.QValues, d.HasQ = actionOf(qv[1] > qv[0]), qv[1]-qv[0], qv, true
	d.Features = *v
	d.Policy, d.ModelVersion = p.Name(), p.Version()
}

// ---- Oracle ----

// oraclePolicy serves the future-knowledge Oracle over a fixed point set.
type oraclePolicy struct {
	d *policies.Oracle
}

func (p *oraclePolicy) Kind() PolicyKind { return PolicyOracle }
func (p *oraclePolicy) Name() string     { return p.d.Name() }
func (p *oraclePolicy) Version() string  { return oracleVersion }

func (p *oraclePolicy) Decide(s Snapshot) Decision {
	ctx := policies.Context{Node: s.Node, Time: s.Time, Features: s.vector()}
	mit := p.d.Decide(&ctx)
	score := -1.0
	if mit {
		score = 1
	}
	return decisionFor(p, s, actionOf(mit), score)
}

// ---- shared helpers ----

// actionOf converts a Decider boolean to an Action.
func actionOf(mitigate bool) Action {
	if mitigate {
		return ActionMitigate
	}
	return ActionNone
}

// decisionFor assembles the Decision a policy returns from Decide.
func decisionFor(p Policy, s Snapshot, act Action, score float64) Decision {
	return Decision{
		Node:         s.Node,
		Time:         s.Time,
		Action:       act,
		Score:        score,
		Features:     s.Features,
		Policy:       p.Name(),
		ModelVersion: p.Version(),
	}
}

// trainingInfo snapshots the system configuration that produced a model.
func (s *System) trainingInfo() *TrainingInfo {
	return &TrainingInfo{
		Budget:                    s.cfg.Budget.String(),
		Seed:                      s.cfg.Seed,
		MitigationCostNodeMinutes: s.cfg.MitigationCostNodeMinutes,
		Restartable:               s.cfg.Restartable,
		KernelVersion:             nn.KernelFast,
	}
}

// TrainPolicy trains (when the kind needs fitting) and returns the kind's
// policy, ready to be served by a Controller, persisted with SaveModel
// (Oracle excepted), or scored with EvaluatePolicy. Trained kinds share
// one cached single-split fit (first 75% of the log, the §4.1 protocol),
// so training several kinds costs one training run.
func (s *System) TrainPolicy(kind PolicyKind) (Policy, error) {
	switch kind {
	case PolicyNever:
		return NeverPolicy(), nil
	case PolicyAlways:
		return AlwaysPolicy(), nil
	case PolicySC20RF:
		sp := s.trainedSplit()
		return newRFPolicy(sp.Forest, sp.Threshold, s.trainingInfo())
	case PolicyMyopicRF:
		sp := s.trainedSplit()
		return newMyopicPolicy(sp.Forest, sp.Env.MitigationCostNodeHours(), s.trainingInfo())
	case PolicyRL:
		sp := s.trainedSplit()
		if sp.Net == nil {
			return nil, fmt.Errorf("uerl: split trained without an RL agent")
		}
		return newRLPolicy(sp.Net.Clone(), s.trainingInfo())
	case PolicyOracle:
		pts := s.world.Cache().Ticks(s.world.Log).OraclePoints(time.Time{}, time.Time{})
		return &oraclePolicy{d: policies.NewOracle(pts)}, nil
	}
	return nil, fmt.Errorf("uerl: unknown policy kind %q (want one of %v)", kind, PolicyKinds())
}

// policyDecider adapts a serving Policy back to the replay engine's
// Decider interface so EvaluatePolicy can account it like any §4.2
// approach.
type policyDecider struct{ p Policy }

func (d policyDecider) Name() string { return d.p.Name() }

func (d policyDecider) Decide(ctx *policies.Context) bool {
	return d.p.Decide(Snapshot{Node: ctx.Node, Time: ctx.Time, Features: ctx.Features}).Mitigate()
}

// ConcurrentSafe implements policies.ConcurrentDecider. Every policy this
// package constructs is safe for concurrent Decide calls, so the replay
// engine may fan them out across workers. Custom Policy implementations
// are only required to be concurrency-safe when served by a Controller,
// so they replay serially unless they opt in via a
// `ConcurrentSafe() bool` method.
func (d policyDecider) ConcurrentSafe() bool {
	switch d.p.(type) {
	case *staticPolicy, *rfPolicy, *myopicPolicy, *rlPolicy, *oraclePolicy:
		return true
	}
	if cs, ok := d.p.(interface{ ConcurrentSafe() bool }); ok {
		return cs.ConcurrentSafe()
	}
	return false
}

// EvaluatePolicy replays one policy — built-in or custom — over the
// system's world under the standard workload model and accounts costs on
// the held-out final 25% of the log span (the same window the single-split
// trained policies are fitted against), so results are comparable across
// policies and with TrainPolicy artifacts.
func (s *System) EvaluatePolicy(p Policy) (PolicyCost, error) {
	if p == nil {
		return PolicyCost{}, fmt.Errorf("uerl: nil policy")
	}
	cfg := s.cvConfig()
	art := cfg.Cache.Ticks(s.world.Log)
	res := evalx.ReplayAll([]policies.Decider{policyDecider{p: p}}, art.ByNode, cfg.Cache.Sampler(s.world.Trace), evalx.ReplayConfig{
		Env:     cfg.Env,
		JobSeed: cfg.Seed,
		From:    art.Boundary(trainFrac),
	})
	return costOf(res[0]), nil
}
