package lifecycle

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/rl"
)

// TrainerConfig parameterizes an OnlineTrainer.
type TrainerConfig struct {
	// Agent is the DQN configuration of the continually trained agent.
	// StateLen/NumActions must match the serving feature layout.
	Agent rl.AgentConfig
	// StreamCapacity bounds the experience stream (default 1<<14).
	StreamCapacity int
	// StepsPerEpoch is the number of batched gradient steps one Epoch
	// runs after draining the stream (default 64).
	StepsPerEpoch int
}

const (
	// syncEvery hard-syncs the target network once per this many epoch
	// gradient steps (the final step of an epoch always syncs, so a
	// snapshot taken after Epoch serves the trained weights).
	syncEvery = 16
	// replayCapacity bounds the agent-side prioritized replay the stream
	// drains into.
	replayCapacity = 1 << 15
)

func (c TrainerConfig) withDefaults() TrainerConfig {
	if c.StreamCapacity <= 0 {
		c.StreamCapacity = 1 << 14
	}
	if c.StepsPerEpoch <= 0 {
		c.StepsPerEpoch = 64
	}
	return c
}

// EpochResult summarizes one training epoch.
type EpochResult struct {
	// Epoch is the 1-based epoch index.
	Epoch int
	// Drained is the number of stream transitions ingested this epoch.
	Drained int
	// Steps is the number of gradient steps taken (0 when the replay
	// buffer is still below one batch).
	Steps int
	// MeanLoss is the mean per-step loss over Steps (0 when Steps is 0).
	MeanLoss float64
}

// OnlineTrainer turns the live experience stream into incremental DQN
// updates. Ingest is called from the serving-side learning loop with
// completed transitions; Epoch drains everything buffered into the
// agent's prioritized replay and runs a fixed number of batched gradient
// steps (the same zero-alloc kernels offline training uses).
//
// Epochs are deterministic and seedable: given the same ingestion order,
// the same epoch schedule and the same TrainerConfig (including
// Agent.Seed), the resulting network weights are bit-identical across
// runs — the property the hot-swap lifecycle relies on for reproducible
// fleet scenarios. Ingest is safe to call concurrently with itself;
// Epoch and Network must be called from the single learning loop.
type OnlineTrainer struct {
	cfg    TrainerConfig
	agent  *rl.Agent
	stream *Stream
	epochs int
}

// NewOnlineTrainer builds a trainer. The agent starts from the seeded
// random initialization of cfg.Agent; use WarmStart to continue from a
// serving model's weights instead.
func NewOnlineTrainer(cfg TrainerConfig) *OnlineTrainer {
	cfg = cfg.withDefaults()
	agent := rl.NewAgent(cfg.Agent, rl.NewPrioritizedReplay(rl.PERConfig{
		Capacity: replayCapacity,
		Alpha:    0.6,
		Beta:     0.4,
		// Anneal importance correction over a horizon of explicit steps.
		BetaSteps: 64 * cfg.StepsPerEpoch,
	}))
	return &OnlineTrainer{cfg: cfg, agent: agent, stream: NewStream(cfg.StreamCapacity)}
}

// WarmStart replaces the online network with a clone of net (and re-syncs
// the target), continuing training from a deployed model's weights. The
// architecture must match cfg.Agent.
func (t *OnlineTrainer) WarmStart(net *nn.Network) {
	c := net.Config()
	if c.Inputs != t.cfg.Agent.StateLen || c.Outputs != t.cfg.Agent.NumActions {
		panic(fmt.Sprintf("lifecycle: warm-start network is %dx%d, trainer expects %dx%d",
			c.Inputs, c.Outputs, t.cfg.Agent.StateLen, t.cfg.Agent.NumActions))
	}
	t.agent.SetOnline(net.Clone())
}

// Ingest buffers one completed serving transition for the next epoch.
func (t *OnlineTrainer) Ingest(tr rl.Transition) { t.stream.Push(tr) }

// Stream exposes the experience stream (for observability).
func (t *OnlineTrainer) Stream() *Stream { return t.stream }

// Epochs reports the number of completed training epochs.
func (t *OnlineTrainer) Epochs() int { return t.epochs }

// Epoch drains the stream into the agent's replay buffer and runs the
// configured number of batched gradient steps, returning the epoch
// summary. The target network is synced on the syncEvery schedule and
// once more after the final step, so the post-epoch online network is
// exactly what a snapshot candidate serves.
func (t *OnlineTrainer) Epoch() EpochResult {
	t.epochs++
	res := EpochResult{Epoch: t.epochs}
	res.Drained = t.stream.Drain(func(tr rl.Transition) {
		t.agent.AddExperience(tr)
	})
	lossSum := 0.0
	for i := 0; i < t.cfg.StepsPerEpoch; i++ {
		loss, ok := t.agent.TrainStep()
		if !ok {
			break
		}
		lossSum += loss
		res.Steps++
		if res.Steps%syncEvery == 0 {
			t.agent.SyncTarget()
		}
	}
	if res.Steps > 0 {
		t.agent.SyncTarget()
		res.MeanLoss = lossSum / float64(res.Steps)
	}
	return res
}

// Network returns the current online network. Callers must Clone before
// serving it — further epochs keep training these weights.
func (t *OnlineTrainer) Network() *nn.Network { return t.agent.Online() }
