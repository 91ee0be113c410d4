package rl

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/nn"
)

// Environment is the MDP the agent interacts with (§3.2). An environment is
// episodic: Reset starts a new episode and returns the initial state; Step
// applies an action and returns the successor state, the reward, and
// whether the episode has terminated.
type Environment interface {
	Reset() []float64
	Step(action int) (next []float64, reward float64, done bool)
}

// Policy maps a state to an action. Both the trained agent and the paper's
// baseline approaches satisfy it.
type Policy interface {
	Action(state []float64) int
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(state []float64) int

// Action implements Policy.
func (f PolicyFunc) Action(state []float64) int { return f(state) }

// EpsilonSchedule is a linearly decaying exploration schedule: the
// exploration rate starts at Start and decays to End over DecaySteps agent
// steps.
type EpsilonSchedule struct {
	Start      float64
	End        float64
	DecaySteps int
}

// At returns epsilon after the given number of steps.
func (e EpsilonSchedule) At(step int) float64 {
	if e.DecaySteps <= 0 || step >= e.DecaySteps {
		return e.End
	}
	frac := float64(step) / float64(e.DecaySteps)
	return e.Start + (e.End-e.Start)*frac
}

// AgentConfig collects the hyperparameters tuned during the paper's random
// search (§4.1): learning rate, discount factor gamma, the two networks'
// update and synchronization frequencies, and the PER batch size. Every
// agent trains under the nn.KernelFast stream: the FMA kernels, reciprocal
// Adam, the PCG exploration RNG, and chunked training with in-order
// gradient reduction, deterministic and bit-identical at any GOMAXPROCS.
type AgentConfig struct {
	// StateLen and NumActions describe the MDP interface.
	StateLen   int
	NumActions int
	// Hidden is the MLP body; the paper uses {256, 256, 128, 64}.
	Hidden []int
	// Dueling enables the dueling value/advantage head (on in the paper).
	Dueling bool
	// DoubleDQN selects actions with the online network and evaluates them
	// with the target network (on in the paper).
	DoubleDQN bool
	// Gamma is the MDP discount factor.
	Gamma float64
	// LearningRate for the Adam optimizer.
	LearningRate float64
	// BatchSize is the replay mini-batch size.
	BatchSize int
	// TrainEvery trains once per this many environment steps.
	TrainEvery int
	// SyncEvery hard-syncs the target network once per this many
	// environment steps.
	SyncEvery int
	// WarmupSteps delays training until the buffer has this many
	// transitions.
	WarmupSteps int
	// Epsilon is the exploration schedule.
	Epsilon EpsilonSchedule
	// HuberDelta is the TD-error Huber transition point; 0 means 1.
	HuberDelta float64
	// GradClip caps the global gradient norm; 0 disables.
	GradClip float64
	// Seed drives weight init and exploration.
	Seed int64
}

// Validate reports configuration errors.
func (c AgentConfig) Validate() error {
	if c.StateLen <= 0 {
		return fmt.Errorf("rl: StateLen must be positive, got %d", c.StateLen)
	}
	if c.NumActions < 2 {
		return fmt.Errorf("rl: NumActions must be at least 2, got %d", c.NumActions)
	}
	if c.Gamma < 0 || c.Gamma > 1 {
		return fmt.Errorf("rl: Gamma must be in [0,1], got %v", c.Gamma)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("rl: BatchSize must be positive, got %d", c.BatchSize)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("rl: LearningRate must be positive, got %v", c.LearningRate)
	}
	return nil
}

// withDefaults fills optional fields.
func (c AgentConfig) withDefaults() AgentConfig {
	if c.TrainEvery <= 0 {
		c.TrainEvery = 1
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = 500
	}
	if c.HuberDelta <= 0 {
		c.HuberDelta = 1
	}
	if c.WarmupSteps < c.BatchSize {
		c.WarmupSteps = c.BatchSize
	}
	return c
}

// Agent is a dueling double deep Q-network agent with (optionally
// prioritized) experience replay — the paper's learner (§3.3).
type Agent struct {
	cfg    AgentConfig
	online *nn.Network
	target *nn.Network
	opt    *nn.Adam
	replay Replay
	rng    *mathx.RNG
	steps  int
	scr    *nn.Scratch // online-net scratch for greedy actions

	// Training state, preallocated so a train step allocates nothing. The
	// sampled minibatch splits into fixed trainChunkSize chunks, computed
	// in order; each chunk's gradients land in a weight-sharing shadow
	// network and reduce into the online network in chunk-index order.
	// The chunk scratches and buffers are sized for one chunk.
	sampTrs     []Transition
	sampHandles []int
	sampWs      []float64
	tdErrs      []float64
	shadow      *nn.Network
	chunkScr    *nn.BatchScratch // shadow scratch, sized 2*trainChunkSize
	chunkTgtScr *nn.BatchScratch // target scratch, sized trainChunkSize
	chunkXS     []float64        // gathered [S; NextS] chunk states
	chunkDOut   []float64        // chunk output gradient
	chunkNext   []float64        // chunk bootstrap values
}

// trainChunkSize is the fixed minibatch chunk width of the chunked
// trainer. It is a constant of the nn.KernelFast stream definition: changing
// it changes the gradient-reduction association and therefore the trained
// weights, so it must only move together with a kernel version bump.
const trainChunkSize = 8

// NewAgent builds an agent with the given replay buffer (pass
// NewPrioritizedReplay for the paper's configuration, NewUniformReplay for
// the ablation).
func NewAgent(cfg AgentConfig, replay Replay) *Agent {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	net := nn.New(nn.Config{
		Inputs:  cfg.StateLen,
		Hidden:  cfg.Hidden,
		Outputs: cfg.NumActions,
		Dueling: cfg.Dueling,
		Seed:    cfg.Seed,
	})
	a := &Agent{
		cfg:    cfg,
		online: net,
		target: net.Clone(),
		opt:    &nn.Adam{LR: cfg.LearningRate},
		replay: replay,
		// The PCG source forks in O(copy) (TrainVec's slot streams).
		rng: mathx.NewFastRNG(cfg.Seed + 1),
	}
	a.initBatchState()
	return a
}

// initBatchState (re)allocates the scratch and training buffers for the
// current networks.
func (a *Agent) initBatchState() {
	b := a.cfg.BatchSize
	a.scr = a.online.NewScratch()
	a.tdErrs = make([]float64, b)
	a.sampTrs = make([]Transition, b)
	a.sampHandles = make([]int, b)
	a.sampWs = make([]float64, b)
	a.shadow = a.online.GradShadow()
	a.chunkScr = a.shadow.NewBatchScratch(2 * trainChunkSize)
	a.chunkTgtScr = a.target.NewBatchScratch(trainChunkSize)
	a.chunkXS = make([]float64, 2*trainChunkSize*a.cfg.StateLen)
	a.chunkDOut = make([]float64, trainChunkSize*a.cfg.NumActions)
	a.chunkNext = make([]float64, trainChunkSize)
}

// Online exposes the online network (for serialization and inspection).
func (a *Agent) Online() *nn.Network { return a.online }

// SetOnline replaces the online network and re-syncs the target. The
// network's architecture must match the agent configuration. Used to warm-
// start an agent from a previously trained model (§4.1: each split trains a
// mix of previously trained and untrained models).
func (a *Agent) SetOnline(net *nn.Network) {
	c := net.Config()
	if c.Inputs != a.cfg.StateLen || c.Outputs != a.cfg.NumActions {
		panic("rl: SetOnline architecture mismatch")
	}
	a.online = net
	a.target = net.Clone()
	a.opt = &nn.Adam{LR: a.cfg.LearningRate}
	a.initBatchState()
}

// Epsilon returns the current exploration rate.
func (a *Agent) Epsilon() float64 { return a.cfg.Epsilon.At(a.steps) }

// Act selects an ε-greedy action for state.
func (a *Agent) Act(state []float64) int {
	if a.rng.Float64() < a.Epsilon() {
		return a.rng.Intn(a.cfg.NumActions)
	}
	return a.Greedy(state)
}

// Greedy returns argmax_a Q(state, a) under the online network.
func (a *Agent) Greedy(state []float64) int {
	q := a.online.ForwardInto(a.scr, state)
	return mathx.ArgMax(q)
}

// Observe records a transition and performs training/synchronization
// according to the configured frequencies. It returns the training loss if a
// training step ran, else NaN-free zero and false.
func (a *Agent) Observe(tr Transition) (loss float64, trained bool) {
	a.replay.Add(tr)
	a.steps++
	if a.steps%a.cfg.SyncEvery == 0 {
		a.target.CopyFrom(a.online)
	}
	if a.replay.Len() < a.cfg.WarmupSteps || a.steps%a.cfg.TrainEvery != 0 {
		return 0, false
	}
	return a.trainBatch(), true
}

// AddExperience stores a transition in the replay buffer without advancing
// the ε-greedy/TrainEvery schedule. It is the ingestion half of the
// externally driven training mode used by online continual learning: a
// lifecycle trainer drains logged serving experience into the buffer with
// AddExperience and then drives optimization explicitly with TrainStep,
// instead of interleaving both through Observe.
func (a *Agent) AddExperience(tr Transition) { a.replay.Add(tr) }

// TrainStep runs one batched optimization step against the current replay
// contents (the same batched kernels Observe uses) and returns the mean
// loss. It reports false without training when the buffer holds fewer
// transitions than a batch. Unlike Observe it never syncs the target
// network; callers sequencing explicit epochs use SyncTarget.
func (a *Agent) TrainStep() (loss float64, trained bool) {
	if a.replay.Len() < a.cfg.BatchSize {
		return 0, false
	}
	return a.trainBatch(), true
}

// SyncTarget hard-syncs the target network to the online network, the
// explicit-epoch counterpart of Observe's SyncEvery schedule.
func (a *Agent) SyncTarget() { a.target.CopyFrom(a.online) }

// trainBatch samples a mini-batch and takes one optimization step,
// returning the mean loss. TD targets follow double DQN when configured:
// y = r + gamma * Q_target(s', argmax_a Q_online(s', a)).
//
// The sampled minibatch splits into fixed trainChunkSize chunks, and in
// chunk-index order each chunk's gradients are computed into the
// weight-sharing shadow network (batched forwards, vectorized TD targets,
// one batched backward) and added into the online network; then one Adam
// step. The chunk geometry and the in-order reduction fix the
// floating-point association, which the nn.KernelFast version pin covers.
//
//uerl:hotpath
func (a *Agent) trainBatch() float64 {
	n := a.replay.SampleInto(a.rng, a.sampTrs, a.sampHandles, a.sampWs)
	if n == 0 {
		return 0
	}
	// Prewarm both packed-weight images; the chunks below only read them.
	a.online.EnsureFast()
	a.target.EnsureFast()
	a.online.ZeroGrad()
	totalLoss := 0.0
	for lo := 0; lo < n; lo += trainChunkSize {
		hi := min(lo+trainChunkSize, n)
		totalLoss += a.tdGrad(lo, hi, n)
		nn.AccumulateGrads(a.online.Params(), a.shadow.Params())
	}
	nn.ClipGradNorm(a.online.Params(), a.cfg.GradClip)
	a.opt.Step(a.online.Params())
	a.online.InvalidateFast()
	a.replay.UpdatePriorities(a.sampHandles[:n], a.tdErrs[:n])
	return totalLoss / float64(n)
}

// tdGrad zeroes the shadow network's gradients and accumulates into them
// the TD-loss gradients of samples [lo, hi) of an n-sample minibatch (at
// most trainChunkSize of them), returning their importance-weighted loss
// sum and writing their TD errors to tdErrs[lo:hi].
//
// One online launch covers both halves of [S; NextS] — per-sample outputs
// are independent, so each half is bit-identical to a separate forward,
// and the S activations land in scratch rows [0, m) where the backward
// pass reads them. Bootstrap values come from the target net on the NextS
// half; terminal rows hold stale buffer contents and their outputs are
// computed but never read.
//
//uerl:hotpath
func (a *Agent) tdGrad(lo, hi, n int) float64 {
	net, scr, tgtScr := a.shadow, a.chunkScr, a.chunkTgtScr
	xs, dOut, nextVal := a.chunkXS, a.chunkDOut, a.chunkNext
	m := hi - lo
	L, A := a.cfg.StateLen, a.cfg.NumActions
	trs := a.sampTrs[lo:hi]
	anyLive := false
	for i := range trs {
		copy(xs[i*L:(i+1)*L], trs[i].S)
		if !trs[i].Done {
			copy(xs[(m+i)*L:(m+i+1)*L], trs[i].NextS)
			anyLive = true
		}
	}
	net.ZeroGrad()
	var q []float64
	switch {
	case anyLive && a.cfg.DoubleDQN:
		qTgt := a.target.ForwardBatchInto(tgtScr, xs[m*L:2*m*L], m)
		qBoth := net.ForwardBatchInto(scr, xs[:2*m*L], 2*m)
		q = qBoth[:m*A]
		qNext := qBoth[m*A : 2*m*A]
		for i := range trs {
			if trs[i].Done {
				continue
			}
			best := mathx.ArgMax(qNext[i*A : (i+1)*A])
			nextVal[i] = qTgt[i*A+best]
		}
	case anyLive:
		// Vanilla DQN bootstraps from the target net alone, so only the S
		// half goes through the online network.
		qTgt := a.target.ForwardBatchInto(tgtScr, xs[m*L:2*m*L], m)
		q = net.ForwardBatchInto(scr, xs[:m*L], m)
		for i := range trs {
			if trs[i].Done {
				continue
			}
			row := qTgt[i*A : (i+1)*A]
			nextVal[i] = row[mathx.ArgMax(row)]
		}
	default:
		q = net.ForwardBatchInto(scr, xs[:m*L], m)
	}
	dOut = dOut[:m*A]
	for i := range dOut {
		dOut[i] = 0
	}
	loss := 0.0
	for i := range trs {
		target := trs[i].R
		if !trs[i].Done {
			target += a.cfg.Gamma * nextVal[i]
		}
		pred := q[i*A+trs[i].A]
		l, dPred := nn.HuberLoss(pred, target, a.cfg.HuberDelta)
		a.tdErrs[lo+i] = pred - target
		loss += l * a.sampWs[lo+i]
		dOut[i*A+trs[i].A] = dPred * (a.sampWs[lo+i] / float64(n))
	}
	net.BackwardBatch(scr, dOut, m)
	return loss
}

// SnapshotPolicy returns a frozen greedy policy over a deep copy of the
// current online network. The returned policy is a *SharedQPolicy, so it is
// safe for concurrent use (the parallel replay engine calls Decide from
// many workers at once).
func (a *Agent) SnapshotPolicy() Policy {
	return NewSharedQPolicy(a.online.Clone())
}
