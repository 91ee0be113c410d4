package lifecycle

import (
	"testing"

	"repro/internal/features"
	"repro/internal/mathx"
	"repro/internal/rl"
)

// BenchmarkLearnerEpoch measures the retrain rung: one OnlineTrainer.Epoch
// at the online learner's shape (15 features, 32-16 dueling double DQN,
// batch 32, 64 gradient steps) that first drains 512 fresh transitions
// into a warm replay buffer. It fails unless the epoch allocates nothing.
func BenchmarkLearnerEpoch(b *testing.B) {
	tr := NewOnlineTrainer(TrainerConfig{
		Agent: rl.AgentConfig{
			StateLen: features.Dim, NumActions: 2, Hidden: []int{32, 16},
			Dueling: true, DoubleDQN: true, Gamma: 0.99, LearningRate: 3e-3,
			BatchSize: 32, GradClip: 10, HuberDelta: 1, Seed: 1,
		},
		StepsPerEpoch: 64,
	})
	rng := mathx.NewRNG(5)
	batch := make([]rl.Transition, 512)
	for i := range batch {
		s := make([]float64, features.Dim)
		ns := make([]float64, features.Dim)
		for j := range s {
			s[j], ns[j] = rng.NormFloat64(), rng.NormFloat64()
		}
		batch[i] = rl.Transition{S: s, A: i % 2, R: -rng.Float64(), NextS: ns, Done: i%61 == 0}
	}
	epoch := func() {
		for _, t := range batch {
			tr.Ingest(t)
		}
		if res := tr.Epoch(); res.Steps != 64 {
			b.Fatalf("epoch took %d steps, want 64", res.Steps)
		}
	}
	// Fill the replay buffer past its growth phase so every timed epoch is
	// steady state.
	for i := 0; i < 70; i++ {
		epoch()
	}
	if allocs := testing.AllocsPerRun(3, epoch); allocs != 0 {
		b.Fatalf("learner epoch allocates %v times, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch()
	}
}
