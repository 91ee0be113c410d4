package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/env"
	"repro/internal/evalx"
	"repro/internal/features"
	"repro/internal/policies"
	"repro/internal/rl"
)

// AblationResult compares the agent's design choices: PER vs
// uniform replay (§3.3.4), dueling+double vs vanilla DQN (§3.1), and the
// potential-UE-cost feature vs a cost-blind agent (the paper's adaptivity
// claim). All variants are trained on the same single split with identical
// budgets and evaluated on the held-out tail.
type AblationResult struct {
	Variants []string
	Results  []evalx.Result
}

// RunAblation trains and evaluates the ablation variants.
func RunAblation(w *World) AblationResult {
	cfg := w.CVConfig(2)
	art := w.cache.Ticks(w.Log)
	byNode := art.ByNode
	sampler := w.cache.Sampler(w.Trace)
	first, last := art.Pre.Span()
	trainTo := first.Add(time.Duration(float64(last.Sub(first)) * 0.6))
	trainTicks := evalx.TicksUpTo(byNode, trainTo)

	episodes := ablationEpisodes(w.Scale.Preset)
	base := rl.AgentConfig{
		StateLen: features.Dim, NumActions: env.NumActions,
		Hidden: []int{32, 16}, Dueling: true, DoubleDQN: true,
		Gamma: 0.95, LearningRate: 3e-3, BatchSize: 32,
		SyncEvery: 200, HuberDelta: 1, GradClip: 10,
		Epsilon: rl.EpsilonSchedule{Start: 1, End: 0.02, DecaySteps: 4000},
		Seed:    w.Scale.Seed,
	}

	type variant struct {
		name     string
		cfg      rl.AgentConfig
		replay   rl.Replay
		maskCost bool
	}
	variants := []variant{
		{name: "DDDQN+PER (paper)", cfg: base,
			replay: rl.NewPrioritizedReplay(rl.PERConfig{Capacity: 1 << 15})},
		{name: "uniform replay", cfg: base,
			replay: rl.NewUniformReplay(1 << 15)},
		{name: "vanilla DQN", cfg: vanilla(base),
			replay: rl.NewPrioritizedReplay(rl.PERConfig{Capacity: 1 << 15})},
		{name: "no cost feature", cfg: base, maskCost: true,
			replay: rl.NewPrioritizedReplay(rl.PERConfig{Capacity: 1 << 15})},
	}

	// Train every variant, then score all of them in one replay walk. The
	// masked variant's maskPolicy is not concurrency-safe, so that walk
	// runs serially.
	res := AblationResult{}
	ds := make([]policies.Decider, len(variants))
	for i, v := range variants {
		envCfg := cfg.Env
		envCfg.Seed = cfg.Seed + int64(i)*17
		if w.Scale.Preset != evalx.PresetPaper {
			envCfg.UENodeBoost = 50
		}
		var trainEnv rl.Environment = env.NewMitigationEnv(envCfg, trainTicks, sampler)
		if v.maskCost {
			trainEnv = &maskedEnv{inner: trainEnv, index: features.UECost}
		}
		agent := rl.NewAgent(v.cfg, v.replay)
		rl.Train(agent, trainEnv, rl.TrainOptions{Episodes: episodes, MaxStepsPerEpisode: 4096})
		pol := agent.SnapshotPolicy()
		if v.maskCost {
			pol = maskPolicy(pol, features.UECost)
		}
		ds[i] = &policies.RL{Policy: pol, Label: v.name}
		res.Variants = append(res.Variants, v.name)
	}
	res.Results = evalx.ReplayAll(ds, byNode, sampler, evalx.ReplayConfig{
		Env: cfg.Env, JobSeed: cfg.Seed + 5, From: trainTo,
	})
	return res
}

func vanilla(c rl.AgentConfig) rl.AgentConfig {
	c.Dueling = false
	c.DoubleDQN = false
	return c
}

func ablationEpisodes(p evalx.Preset) int {
	switch p {
	case evalx.PresetPaper:
		return 20000
	case evalx.PresetDefault:
		return 500
	default:
		return 120
	}
}

// maskedEnv zeroes one state feature, hiding it from the agent.
type maskedEnv struct {
	inner rl.Environment
	index int
}

func (m *maskedEnv) Reset() []float64 {
	s := m.inner.Reset()
	s[m.index] = 0
	return s
}

func (m *maskedEnv) Step(a int) ([]float64, float64, bool) {
	s, r, done := m.inner.Step(a)
	s[m.index] = 0
	return s, r, done
}

// maskPolicy zeroes a feature before delegating, so evaluation matches the
// masked training distribution.
func maskPolicy(p rl.Policy, index int) rl.Policy {
	buf := make([]float64, 0, features.Dim)
	return rl.PolicyFunc(func(s []float64) int {
		buf = append(buf[:0], s...)
		buf[index] = 0
		return p.Action(buf)
	})
}

// Render writes the comparison table.
func (r AblationResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Ablation: agent design choices, single split, identical budgets")
	header := []string{"variant", "total nh", "ue nh", "mitig nh", "mitigations", "recall"}
	var rows [][]string
	for _, res := range r.Results {
		rows = append(rows, []string{
			res.Policy, nh(res.TotalCost()), nh(res.UECost), nh(res.MitigationCost),
			fmt.Sprintf("%d", res.Metrics.Mitigations),
			fmt.Sprintf("%.0f%%", 100*res.Metrics.Recall()),
		})
	}
	writeTable(w, header, rows)
}
