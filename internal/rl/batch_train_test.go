package rl

import (
	"testing"

	"repro/internal/mathx"
)

// walkEnv is a deterministic 5-state random-walk MDP used to exercise the
// training path: action 1 moves right (+reward at the end), action
// 0 moves left. Multi-step episodes produce plenty of non-terminal
// transitions, so the double-DQN bootstrap path is exercised too.
type walkEnv struct {
	pos int
	rng *mathx.RNG
}

func (w *walkEnv) Reset() []float64 {
	w.pos = 2
	return w.state()
}

func (w *walkEnv) state() []float64 {
	s := make([]float64, 5)
	s[w.pos] = 1
	return s
}

func (w *walkEnv) Step(action int) ([]float64, float64, bool) {
	if action == 1 {
		w.pos++
	} else {
		w.pos--
	}
	// Occasional random slip keeps the state distribution rich.
	if w.rng.Bool(0.1) && w.pos > 0 {
		w.pos--
	}
	switch {
	case w.pos <= 0:
		return w.state(), -0.1, true
	case w.pos >= 4:
		return w.state(), 1, true
	default:
		return w.state(), -0.01, false
	}
}

// batchParityConfig builds a config that exercises dueling + double DQN +
// PER.
func batchParityConfig() AgentConfig {
	return AgentConfig{
		StateLen:     5,
		NumActions:   2,
		Hidden:       []int{16, 8},
		Dueling:      true,
		DoubleDQN:    true,
		Gamma:        0.95,
		LearningRate: 1e-2,
		BatchSize:    8,
		TrainEvery:   2,
		SyncEvery:    25,
		WarmupSteps:  8,
		GradClip:     5,
		Epsilon:      EpsilonSchedule{Start: 1, End: 0.1, DecaySteps: 100},
		Seed:         42,
	}
}

// TestTrainStepZeroAlloc: a steady-state explicit TrainStep must not
// allocate (PER sampling, batched forwards, backward and Adam included),
// here on the vanilla-DQN bootstrap path.
func TestTrainStepZeroAlloc(t *testing.T) {
	cfg := batchParityConfig()
	cfg.DoubleDQN = false
	agent := NewAgent(cfg, NewPrioritizedReplay(PERConfig{Capacity: 1 << 10}))
	env := &walkEnv{rng: mathx.NewRNG(3)}
	Train(agent, env, TrainOptions{Episodes: 30, MaxStepsPerEpisode: 64})

	allocs := testing.AllocsPerRun(50, func() {
		agent.TrainStep()
	})
	if allocs != 0 {
		t.Fatalf("batched train step allocates %v times per run, want 0", allocs)
	}
}
