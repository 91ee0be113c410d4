package rl

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/mathx"
)

// marshalWeights serializes the agent's online network for byte comparison.
func marshalWeights(t *testing.T, a *Agent) []byte {
	t.Helper()
	b, err := json.Marshal(a.Online())
	if err != nil {
		t.Fatalf("marshal online net: %v", err)
	}
	return b
}

// perConfig is the prioritized replay the pinned trajectories train with.
func perConfig() PERConfig {
	return PERConfig{Capacity: 1 << 10, Alpha: 0.6, Beta: 0.4, BetaSteps: 1000}
}

// weightsHash is the SHA-256 of the agent's serialized online network.
func weightsHash(t *testing.T, a *Agent) string {
	t.Helper()
	sum := sha256.Sum256(marshalWeights(t, a))
	return hex.EncodeToString(sum[:])
}

// TestChunkedTrainTrajectoryPinned pins the nn.KernelFast training stream:
// the fixed trainChunkSize chunk geometry and the chunk-index-order
// gradient reduction define the rounding, so the trained weights must hash
// to the recorded values. Batch 8 is one chunk; batch 20 is two full
// chunks and a partial one, so it also pins the reduction order. The
// constants were recorded when chunks were still spread over a worker
// pool, with one worker.
func TestChunkedTrainTrajectoryPinned(t *testing.T) {
	for _, tc := range []struct {
		batch int
		want  string
	}{
		{8, "f0425ca6f8fa919af5b13f56f55b5e434bbc8cb2ceb419f8fa3090ffd6d13a66"},
		{20, "785fe8525ba687d20c977c98b213018ca247cc9ab08840899163469349899012"},
	} {
		cfg := batchParityConfig()
		cfg.BatchSize = tc.batch
		agent := NewAgent(cfg, NewPrioritizedReplay(perConfig()))
		env := &walkEnv{rng: mathx.NewRNG(9)}
		Train(agent, env, TrainOptions{Episodes: 40, MaxStepsPerEpisode: 64})
		if got := weightsHash(t, agent); got != tc.want {
			t.Errorf("batch %d: KernelFast Train weights hash %s, want %s", tc.batch, got, tc.want)
		}
	}
}

// TestTrainVecTrajectoryPinned pins the vectorized trainer under
// nn.KernelFast: weights, step count and total reward must match the values
// recorded when environment steps were still spread over a worker pool,
// with one worker.
func TestTrainVecTrajectoryPinned(t *testing.T) {
	const (
		wantHash   = "46e6010b368622e29b8878c567d07348c26d0f846f233921cf1b0b304036286a"
		wantSteps  = 137
		wantReward = 33.52999999999998
	)
	agent := NewAgent(batchParityConfig(), NewPrioritizedReplay(perConfig()))
	envs := make([]Environment, DefaultEnvFanout)
	for i := range envs {
		envs[i] = &walkEnv{rng: mathx.NewRNG(100 + int64(i))}
	}
	res := TrainVec(agent, envs, TrainOptions{Episodes: 40, MaxStepsPerEpisode: 64})
	if res.Episodes != 40 || len(res.EpisodeRewards) != 40 {
		t.Fatalf("TrainVec ran %d episodes with %d rewards, want 40", res.Episodes, len(res.EpisodeRewards))
	}
	if res.Steps != wantSteps || res.TotalReward != wantReward {
		t.Fatalf("TrainVec steps %d reward %v, want %d and %v", res.Steps, res.TotalReward, wantSteps, wantReward)
	}
	if got := weightsHash(t, agent); got != wantHash {
		t.Fatalf("KernelFast TrainVec weights hash %s, want %s", got, wantHash)
	}
}

// TestChunkedTrainLearns: sanity that the v2 stream still solves the walk
// MDP (the determinism tests alone would pass for a broken learner).
func TestChunkedTrainLearns(t *testing.T) {
	cfg := batchParityConfig()
	agent := NewAgent(cfg, NewPrioritizedReplay(PERConfig{Capacity: 1 << 10}))
	env := &walkEnv{rng: mathx.NewRNG(5)}
	Train(agent, env, TrainOptions{Episodes: 150, MaxStepsPerEpisode: 64})
	// A trained agent should walk right from the start state.
	state := []float64{0, 0, 1, 0, 0}
	if got := agent.Greedy(state); got != 1 {
		t.Fatalf("greedy action from start = %d, want 1 (right)", got)
	}
}

// TestChunkedTrainStepZeroAlloc: the chunked train step must stay
// allocation-free in steady state.
func TestChunkedTrainStepZeroAlloc(t *testing.T) {
	agent := NewAgent(batchParityConfig(), NewPrioritizedReplay(PERConfig{Capacity: 1 << 10}))
	env := &walkEnv{rng: mathx.NewRNG(3)}
	Train(agent, env, TrainOptions{Episodes: 30, MaxStepsPerEpisode: 64})

	allocs := testing.AllocsPerRun(50, func() {
		agent.trainBatch()
	})
	if allocs != 0 {
		t.Fatalf("chunked train step allocates %v times per run, want 0", allocs)
	}
}
