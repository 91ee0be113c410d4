package rl

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

func TestEpsilonSchedule(t *testing.T) {
	e := EpsilonSchedule{Start: 1, End: 0.1, DecaySteps: 100}
	if e.At(0) != 1 {
		t.Fatalf("At(0) = %v", e.At(0))
	}
	if got := e.At(50); math.Abs(got-0.55) > 1e-12 {
		t.Fatalf("At(50) = %v", got)
	}
	if e.At(100) != 0.1 || e.At(9999) != 0.1 {
		t.Fatal("schedule should clamp at End")
	}
	fixed := EpsilonSchedule{Start: 0.5, End: 0.2, DecaySteps: 0}
	if fixed.At(0) != 0.2 {
		t.Fatal("DecaySteps=0 should pin at End")
	}
}

func TestAgentConfigValidate(t *testing.T) {
	base := AgentConfig{StateLen: 4, NumActions: 2, Gamma: 0.9,
		LearningRate: 0.001, BatchSize: 8}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []AgentConfig{
		{StateLen: 0, NumActions: 2, Gamma: 0.9, LearningRate: 0.1, BatchSize: 1},
		{StateLen: 4, NumActions: 1, Gamma: 0.9, LearningRate: 0.1, BatchSize: 1},
		{StateLen: 4, NumActions: 2, Gamma: 1.5, LearningRate: 0.1, BatchSize: 1},
		{StateLen: 4, NumActions: 2, Gamma: 0.9, LearningRate: 0, BatchSize: 1},
		{StateLen: 4, NumActions: 2, Gamma: 0.9, LearningRate: 0.1, BatchSize: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// banditEnv is a two-armed contextual bandit: the context is a single
// feature x in {-1, +1}; action 1 pays +1 when x > 0 and -1 otherwise;
// action 0 always pays 0. Episodes are one step.
type banditEnv struct {
	rng *mathx.RNG
	x   float64
}

func (b *banditEnv) Reset() []float64 {
	if b.rng.Bool(0.5) {
		b.x = 1
	} else {
		b.x = -1
	}
	return []float64{b.x}
}

func (b *banditEnv) Step(action int) ([]float64, float64, bool) {
	r := 0.0
	if action == 1 {
		r = b.x
	}
	return []float64{b.x}, r, true
}

func TestAgentLearnsContextualBandit(t *testing.T) {
	env := &banditEnv{rng: mathx.NewRNG(1)}
	cfg := AgentConfig{
		StateLen: 1, NumActions: 2,
		Hidden: []int{16}, Dueling: true, DoubleDQN: true,
		Gamma: 0, LearningRate: 0.01, BatchSize: 16,
		TrainEvery: 1, SyncEvery: 50,
		Epsilon: EpsilonSchedule{Start: 1, End: 0.05, DecaySteps: 500},
		Seed:    7,
	}
	agent := NewAgent(cfg, NewPrioritizedReplay(PERConfig{Capacity: 1024}))
	res := Train(agent, env, TrainOptions{Episodes: 1500})
	if res.Episodes != 1500 {
		t.Fatalf("episodes = %d", res.Episodes)
	}
	pol := agent.SnapshotPolicy()
	if pol.Action([]float64{1}) != 1 {
		t.Error("should pull arm 1 in +1 context")
	}
	if pol.Action([]float64{-1}) != 0 {
		t.Error("should pull arm 0 in -1 context")
	}
}

// chainEnv is a deterministic 4-state chain: the agent starts at state 0;
// action 1 moves right, action 0 terminates with reward 0.1 (a tempting
// immediate exit). Reaching state 3 terminates with reward +1. Optimal play
// walks the chain, requiring multi-step credit assignment through gamma.
type chainEnv struct {
	pos int
}

func (c *chainEnv) state() []float64 {
	s := make([]float64, 4)
	s[c.pos] = 1
	return s
}

func (c *chainEnv) Reset() []float64 {
	c.pos = 0
	return c.state()
}

func (c *chainEnv) Step(action int) ([]float64, float64, bool) {
	if action == 0 {
		return c.state(), 0.1, true
	}
	c.pos++
	if c.pos >= 3 {
		return c.state(), 1, true
	}
	return c.state(), 0, false
}

func TestAgentLearnsChainMDP(t *testing.T) {
	env := &chainEnv{}
	cfg := AgentConfig{
		StateLen: 4, NumActions: 2,
		Hidden: []int{24}, Dueling: true, DoubleDQN: true,
		Gamma: 0.95, LearningRate: 0.01, BatchSize: 16,
		TrainEvery: 1, SyncEvery: 100,
		Epsilon: EpsilonSchedule{Start: 1, End: 0.02, DecaySteps: 2000},
		Seed:    11,
	}
	agent := NewAgent(cfg, NewPrioritizedReplay(PERConfig{Capacity: 2048}))
	Train(agent, env, TrainOptions{Episodes: 1200, MaxStepsPerEpisode: 10})
	pol := agent.SnapshotPolicy()
	// Optimal: keep walking right from every chain position.
	for pos := 0; pos < 3; pos++ {
		s := make([]float64, 4)
		s[pos] = 1
		if pol.Action(s) != 1 {
			t.Errorf("position %d: expected walk-right", pos)
		}
	}
}

func TestAgentDeterministicAcrossRuns(t *testing.T) {
	mk := func() *Agent {
		return NewAgent(AgentConfig{
			StateLen: 1, NumActions: 2, Hidden: []int{8},
			Gamma: 0.9, LearningRate: 0.01, BatchSize: 4,
			Epsilon: EpsilonSchedule{Start: 0.5, End: 0.5},
			Seed:    3,
		}, NewUniformReplay(64))
	}
	a, b := mk(), mk()
	envA := &banditEnv{rng: mathx.NewRNG(5)}
	envB := &banditEnv{rng: mathx.NewRNG(5)}
	Train(a, envA, TrainOptions{Episodes: 100})
	Train(b, envB, TrainOptions{Episodes: 100})
	qa := a.online.ForwardInto(a.scr, []float64{1})
	qb := b.online.ForwardInto(b.scr, []float64{1})
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("non-deterministic training: %v vs %v", qa, qb)
		}
	}
}

func TestAgentSetOnline(t *testing.T) {
	cfg := AgentConfig{StateLen: 2, NumActions: 2, Hidden: []int{4},
		Gamma: 0.9, LearningRate: 0.01, BatchSize: 4, Seed: 1}
	a := NewAgent(cfg, NewUniformReplay(16))
	b := NewAgent(cfg, NewUniformReplay(16))
	b.Online().Params()[0].W[0] = 42
	a.SetOnline(b.Online().Clone())
	if a.Online().Params()[0].W[0] != 42 {
		t.Fatal("SetOnline did not install weights")
	}
}

func TestGreedyVsSnapshotPolicy(t *testing.T) {
	cfg := AgentConfig{StateLen: 1, NumActions: 2, Hidden: []int{4},
		Gamma: 0, LearningRate: 0.05, BatchSize: 4,
		Epsilon: EpsilonSchedule{Start: 1, End: 1}, Seed: 2}
	agent := NewAgent(cfg, NewUniformReplay(64))
	frozen := agent.SnapshotPolicy()
	before := frozen.Action([]float64{1})
	// Heavy training may flip the live policy; the snapshot must not move.
	env := &banditEnv{rng: mathx.NewRNG(9)}
	Train(agent, env, TrainOptions{Episodes: 500})
	if frozen.Action([]float64{1}) != before {
		t.Fatal("snapshot policy changed after training")
	}
}

func TestObserveTrainsAfterWarmup(t *testing.T) {
	cfg := AgentConfig{StateLen: 1, NumActions: 2, Gamma: 0.9,
		LearningRate: 0.01, BatchSize: 4, WarmupSteps: 8, Seed: 1}
	agent := NewAgent(cfg, NewUniformReplay(32))
	trained := 0
	for i := 0; i < 20; i++ {
		_, didTrain := agent.Observe(Transition{
			S: []float64{1}, A: 0, R: 1, NextS: []float64{1}, Done: true})
		if didTrain {
			trained++
		}
		if i < 7 && didTrain {
			t.Fatalf("trained during warmup at step %d", i)
		}
	}
	if trained == 0 {
		t.Fatal("never trained after warmup")
	}
}

func TestUniformVsPERConvergenceOnImbalanced(t *testing.T) {
	// A crude ablation: with heavily imbalanced rewards (rare informative
	// transitions), PER should reach a good policy at least as reliably as
	// uniform replay. We assert PER solves the task.
	if testing.Short() {
		t.Skip("short mode")
	}
	mkEnv := func(seed int64) Environment {
		return &rareEventEnv{rng: mathx.NewRNG(seed)}
	}
	cfg := AgentConfig{
		StateLen: 2, NumActions: 2, Hidden: []int{16}, Dueling: true,
		DoubleDQN: true, Gamma: 0, LearningRate: 0.005, BatchSize: 16,
		Epsilon: EpsilonSchedule{Start: 1, End: 0.05, DecaySteps: 1500},
		Seed:    21,
	}
	per := NewAgent(cfg, NewPrioritizedReplay(PERConfig{Capacity: 4096, Alpha: 0.7}))
	Train(per, mkEnv(31), TrainOptions{Episodes: 3000})
	pol := per.SnapshotPolicy()
	if pol.Action([]float64{1, 1}) != 1 {
		t.Error("PER agent failed to mitigate in the danger state")
	}
	if pol.Action([]float64{0, 0}) != 0 {
		t.Error("PER agent mitigates in the safe state")
	}
}

// rareEventEnv mimics the paper's imbalance: the danger context (1,1)
// appears ~2% of the time. In danger, action 1 (mitigate) pays -0.1,
// action 0 pays -10; in safe contexts mitigation wastes -0.1 vs 0.
type rareEventEnv struct {
	rng    *mathx.RNG
	danger bool
}

func (e *rareEventEnv) Reset() []float64 {
	e.danger = e.rng.Bool(0.02)
	if e.danger {
		return []float64{1, 1}
	}
	return []float64{0, 0}
}

func (e *rareEventEnv) Step(action int) ([]float64, float64, bool) {
	var r float64
	switch {
	case e.danger && action == 1:
		r = -0.1
	case e.danger && action == 0:
		r = -10
	case action == 1:
		r = -0.1
	default:
		r = 0
	}
	s := []float64{0, 0}
	if e.danger {
		s = []float64{1, 1}
	}
	return s, r, true
}
