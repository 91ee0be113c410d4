package env

import (
	"fmt"
	"time"

	"repro/internal/errlog"
	"repro/internal/features"
	"repro/internal/jobs"
	"repro/internal/mathx"
	"repro/internal/rl"
)

// Action values of the MDP (§3.2.2): the agent either does nothing or
// requests a mitigation.
const (
	ActionNone     = 0
	ActionMitigate = 1
	NumActions     = 2
)

// Config parameterizes the mitigation MDP.
type Config struct {
	// MitigationCostNodeMinutes is the fixed cost of one mitigation action
	// in node–minutes (2 in the paper's main results; 5 and 10 in Fig. 3).
	MitigationCostNodeMinutes float64
	// Restartable selects whether mitigation establishes a restart point
	// (checkpoint-like). It is one of the paper's two user parameters.
	Restartable bool
	// RewardScale divides rewards before they reach the agent, keeping TD
	// targets in a numerically comfortable range. Costs are still
	// accounted in raw node–hours everywhere outside the agent.
	RewardScale float64
	// UENodeBoost multiplies the episode-sampling weight of nodes whose
	// history contains a UE. The paper samples nodes uniformly (§3.3.3)
	// over 20,000 episodes; at laptop-scale budgets uniform sampling
	// starves the agent of UE experience, so the scaled-down presets
	// boost failing nodes. 0 or 1 keeps the paper's uniform sampling.
	//
	// Boosting inflates the apparent UE probability by roughly the boost
	// factor, which would teach the agent to over-mitigate; as an
	// importance correction, the training reward's mitigation penalty is
	// inflated by the same factor, preserving the decision boundary
	// P(UE|state)·saving ≷ mitigation_cost. Evaluation always uses true
	// costs.
	UENodeBoost float64
	// FocusUEWindow, when positive, starts episodes on UE nodes at a
	// random decision tick within this many ticks before the node's first
	// UE instead of at the beginning of the history. The tracker and job
	// timeline are fast-forwarded silently, so the features at the first
	// decision are identical to a full replay — only the wasted decisions
	// far from any UE are skipped. This concentrates the scarce
	// pre-failure experience that the mitigation advantage is learned
	// from; the paper's full 20,000-episode budget does not need it.
	FocusUEWindow int
	// Seed drives node selection and job sequences, drawn from the
	// O(copy)-forkable PCG source (mathx.NewFastRNG), part of the
	// nn.KernelFast training stream. Evaluation replay does not use it.
	Seed int64
}

// DefaultConfig returns the paper's main configuration.
func DefaultConfig() Config {
	return Config{
		MitigationCostNodeMinutes: 2,
		Restartable:               true,
		RewardScale:               0.01,
		Seed:                      1,
	}
}

// MitigationCostNodeHours converts the configured cost to node–hours.
func (c Config) MitigationCostNodeHours() float64 {
	return c.MitigationCostNodeMinutes / 60
}

// MitigationEnv is the training environment: each episode replays one
// node's event history (chosen uniformly at random, §3.3.3) against a
// freshly sampled node-weighted job sequence. It implements
// rl.Environment.
type MitigationEnv struct {
	cfg     Config
	nodes   [][]errlog.Tick
	weights []float64
	sampler *jobs.Sampler
	rng     *mathx.RNG

	ticks   []errlog.Tick
	idx     int
	tracker *features.Tracker
	tl      *Timeline
	state   []float64
	// sbuf/sflip ping-pong the state vector between two buffers so a step
	// allocates nothing: the slice returned by the previous Reset/Step stays
	// valid exactly one more step — long enough for the caller to hand it to
	// the replay buffer (which copies, see rl.Transition interning) as S
	// while this step's output becomes NextS.
	sbuf  [2][]float64
	sflip int
}

// NewMitigationEnv builds an environment over the given per-node tick
// sequences. ticksByNode must contain at least one non-empty sequence.
func NewMitigationEnv(cfg Config, ticksByNode [][]errlog.Tick, sampler *jobs.Sampler) *MitigationEnv {
	var nodes [][]errlog.Tick
	for _, ts := range ticksByNode {
		if len(ts) > 0 {
			nodes = append(nodes, ts)
		}
	}
	if len(nodes) == 0 {
		panic("env: no ticks to replay")
	}
	if cfg.RewardScale <= 0 {
		cfg.RewardScale = 0.01
	}
	e := &MitigationEnv{
		cfg:     cfg,
		nodes:   nodes,
		sampler: sampler,
		rng:     mathx.NewFastRNG(cfg.Seed),
		tracker: features.NewTracker(),
	}
	if cfg.UENodeBoost > 1 {
		e.weights = make([]float64, len(nodes))
		for i, ts := range nodes {
			e.weights[i] = 1
			for _, t := range ts {
				if t.HasUE() {
					e.weights[i] = cfg.UENodeBoost
					break
				}
			}
		}
	}
	return e
}

// GroupTicks splits a merged tick stream per node, preserving order.
func GroupTicks(ticks []errlog.Tick) [][]errlog.Tick {
	byNode := map[int][]errlog.Tick{}
	var order []int
	for _, t := range ticks {
		if _, ok := byNode[t.Node]; !ok {
			order = append(order, t.Node)
		}
		byNode[t.Node] = append(byNode[t.Node], t)
	}
	out := make([][]errlog.Tick, 0, len(order))
	for _, n := range order {
		out = append(out, byNode[n])
	}
	return out
}

// Reset implements rl.Environment: it picks a random node and advances to
// the first decision point.
func (e *MitigationEnv) Reset() []float64 {
	if e.weights != nil {
		e.ticks = e.nodes[e.rng.WeightedChoice(e.weights)]
	} else {
		e.ticks = e.nodes[e.rng.Intn(len(e.nodes))]
	}
	e.idx = 0
	e.tracker.Reset()
	e.tl = NewTimeline(e.sampler, e.rng.Fork(), e.cfg.Restartable, e.ticks[0].Time)

	// With FocusUEWindow set, fast-forward episodes on UE nodes to shortly
	// before the first UE: ticks before the start index update the tracker
	// and timeline but produce no decisions.
	skipUntil := 0
	if e.cfg.FocusUEWindow > 0 {
		ueIdx := -1
		for i, t := range e.ticks {
			if t.HasUE() {
				ueIdx = i
				break
			}
		}
		if ueIdx > 1 {
			lo := ueIdx - e.cfg.FocusUEWindow
			if lo < 0 {
				lo = 0
			}
			span := ueIdx - 1 - lo
			if span > 0 {
				skipUntil = lo + e.rng.Intn(span)
			}
		}
	}

	// Walk to the first decision tick at or after skipUntil; UEs before
	// any action carry no reward (the agent was never invoked, §3.2.3).
	for e.idx < len(e.ticks) {
		tick := e.ticks[e.idx]
		e.tl.AdvanceTo(tick.Time)
		if tick.HasUE() {
			e.tracker.Observe(tick, 0, nil)
			e.tl.OnUE(ueTime(tick))
			e.idx++
			continue
		}
		if e.idx < skipUntil {
			e.tracker.Observe(tick, 0, nil)
			e.idx++
			continue
		}
		var v features.Vector
		e.tracker.Observe(tick, e.tl.CostAt(tick.Time), &v)
		e.state = v.NormalizedInto(e.nextStateBuf())
		return e.state
	}
	// Degenerate: the node's ticks are all UEs. Produce a terminal-ish
	// state; the first Step will end the episode.
	e.state = e.nextStateBuf()
	for i := range e.state {
		e.state[i] = 0
	}
	return e.state
}

// nextStateBuf flips to the other ping-pong state buffer, allocating it on
// first use.
func (e *MitigationEnv) nextStateBuf() []float64 {
	e.sflip ^= 1
	if e.sbuf[e.sflip] == nil {
		e.sbuf[e.sflip] = make([]float64, features.Dim)
	}
	return e.sbuf[e.sflip]
}

// ueTime returns the timestamp of the first UE event in the tick (more
// precise than the tick's window-start time for cost accounting, §3.2.5).
func ueTime(t errlog.Tick) time.Time {
	for _, ev := range t.Events {
		if ev.Type == errlog.UE {
			return ev.Time
		}
	}
	return t.Time
}

// Step implements rl.Environment with the reward of Eq. 4:
// R = -a·mitigation_cost - UE_occurred·UE_cost.
func (e *MitigationEnv) Step(action int) ([]float64, float64, bool) {
	if action != ActionNone && action != ActionMitigate {
		panic(fmt.Sprintf("env: invalid action %d", action))
	}
	reward := 0.0
	if e.idx < len(e.ticks) {
		now := e.ticks[e.idx].Time
		if action == ActionMitigate {
			penalty := e.cfg.MitigationCostNodeHours()
			if e.cfg.UENodeBoost > 1 {
				penalty *= e.cfg.UENodeBoost
			}
			reward -= penalty
			e.tl.Mitigate(now)
		}
	}
	e.idx++
	for e.idx < len(e.ticks) {
		tick := e.ticks[e.idx]
		e.tl.AdvanceTo(tick.Time)
		if tick.HasUE() {
			e.tracker.Observe(tick, 0, nil)
			reward -= e.tl.OnUE(ueTime(tick))
			e.idx++
			continue
		}
		var v features.Vector
		e.tracker.Observe(tick, e.tl.CostAt(tick.Time), &v)
		e.state = v.NormalizedInto(e.nextStateBuf())
		return e.state, reward * e.cfg.RewardScale, false
	}
	// Episode over.
	return e.state, reward * e.cfg.RewardScale, true
}

var _ rl.Environment = (*MitigationEnv)(nil)
