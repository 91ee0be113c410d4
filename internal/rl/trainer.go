package rl

import "repro/internal/mathx"

// TrainResult summarizes a training run.
type TrainResult struct {
	Episodes    int
	Steps       int
	TotalReward float64
	// EpisodeRewards holds the undiscounted reward of each episode in
	// order, for convergence inspection.
	EpisodeRewards []float64
}

// TrainOptions controls Train.
type TrainOptions struct {
	// Episodes is the number of episodes to run.
	Episodes int
	// MaxStepsPerEpisode caps runaway episodes; 0 means unlimited.
	MaxStepsPerEpisode int
}

// Train runs the agent in env for the requested number of episodes,
// performing ε-greedy exploration and learning via the agent's replay
// buffer. Training is the paper's §3.3.3 loop: each episode replays one
// node's event history against a randomly sampled job sequence.
func Train(agent *Agent, env Environment, opts TrainOptions) TrainResult {
	res := TrainResult{}
	for range opts.Episodes {
		state := env.Reset()
		epReward := 0.0
		for step := 0; ; step++ {
			if opts.MaxStepsPerEpisode > 0 && step >= opts.MaxStepsPerEpisode {
				break
			}
			action := agent.Act(state)
			next, reward, done := env.Step(action)
			agent.Observe(Transition{S: state, A: action, R: reward, NextS: next, Done: done})
			epReward += reward
			res.Steps++
			if done {
				break
			}
			state = next
		}
		res.Episodes++
		res.TotalReward += epReward
		res.EpisodeRewards = append(res.EpisodeRewards, epReward)
	}
	return res
}

// DefaultEnvFanout is the environment count TrainVec callers use unless they
// have a reason to pick another: wide enough to amortize the batched greedy
// forward, narrow enough that the off-policy lag (experience gathered under
// weights up to one round old) stays negligible.
const DefaultEnvFanout = 4

// TrainVec trains the agent against several environments at once, one slot
// per environment. Each round every active slot picks an ε-greedy action
// (exploration from per-slot RNG streams pre-forked in slot order, greedy
// actions from one batched forward pass), then each slot in turn steps its
// environment and the agent observes the transition. Every agent-visible
// sequence (replay contents, training schedule, epsilon decay, RNG draws)
// therefore depends only on slot order. Slots whose episode ends start the
// next unstarted episode, so exactly opts.Episodes episodes run, and
// EpisodeRewards is indexed by episode as in Train.
//
// The schedule interleaves slots, so trajectories differ from running Train
// on one environment — callers choose TrainVec as a mode, not a drop-in
// speedup. Environments must not share mutable state.
func TrainVec(agent *Agent, envs []Environment, opts TrainOptions) TrainResult {
	res := TrainResult{}
	e := len(envs)
	if e == 0 || opts.Episodes <= 0 {
		return res
	}
	if e > opts.Episodes {
		envs = envs[:opts.Episodes]
		e = opts.Episodes
	}
	// Fork slot exploration streams up front, in slot order, so the draws a
	// slot consumes are independent of how episodes interleave elsewhere.
	slotRNG := make([]*mathx.RNG, e)
	for s := range slotRNG {
		slotRNG[s] = agent.rng.Fork()
	}
	numA := agent.cfg.NumActions
	stateL := agent.cfg.StateLen
	bs := agent.online.NewBatchScratch(e)
	xs := make([]float64, e*stateL)

	state := make([][]float64, e)
	stepCount := make([]int, e)
	epReward := make([]float64, e)
	episodeIdx := make([]int, e)
	active := make([]bool, e)
	actions := make([]int, e)
	activeSlots := make([]int, 0, e)
	greedySlots := make([]int, 0, e)

	res.EpisodeRewards = make([]float64, opts.Episodes)
	started := 0
	for s := 0; s < e; s++ {
		state[s] = envs[s].Reset()
		episodeIdx[s] = started
		started++
		active[s] = true
	}
	// finish closes slot s's episode and either starts the next unstarted
	// episode on the same environment or retires the slot.
	finish := func(s int) {
		res.Episodes++
		res.TotalReward += epReward[s]
		res.EpisodeRewards[episodeIdx[s]] = epReward[s]
		if started < opts.Episodes {
			state[s] = envs[s].Reset()
			episodeIdx[s] = started
			started++
			stepCount[s] = 0
			epReward[s] = 0
		} else {
			active[s] = false
		}
	}
	for {
		// Episodes that hit the step cap end without a terminal Observe,
		// matching Train's break-before-act.
		if opts.MaxStepsPerEpisode > 0 {
			for s := 0; s < e; s++ {
				if active[s] && stepCount[s] >= opts.MaxStepsPerEpisode {
					finish(s)
				}
			}
		}
		activeSlots = activeSlots[:0]
		for s := 0; s < e; s++ {
			if active[s] {
				activeSlots = append(activeSlots, s)
			}
		}
		if len(activeSlots) == 0 {
			break
		}
		// Action selection in slot order. Epsilon advances by the slot's
		// rank this round, mirroring the step-by-step decay a serial
		// interleaving of the same transitions would see.
		greedySlots = greedySlots[:0]
		for r, s := range activeSlots {
			eps := agent.cfg.Epsilon.At(agent.steps + r)
			if slotRNG[s].Float64() < eps {
				actions[s] = slotRNG[s].Intn(numA)
			} else {
				greedySlots = append(greedySlots, s)
			}
		}
		if len(greedySlots) > 0 {
			for i, s := range greedySlots {
				copy(xs[i*stateL:(i+1)*stateL], state[s])
			}
			q := agent.online.ForwardBatchInto(bs, xs[:len(greedySlots)*stateL], len(greedySlots))
			for i, s := range greedySlots {
				actions[s] = mathx.ArgMax(q[i*numA : (i+1)*numA])
			}
		}
		for _, s := range activeSlots {
			next, reward, done := envs[s].Step(actions[s])
			agent.Observe(Transition{S: state[s], A: actions[s], R: reward, NextS: next, Done: done})
			epReward[s] += reward
			res.Steps++
			stepCount[s]++
			if done {
				finish(s)
			} else {
				state[s] = next
			}
		}
	}
	return res
}
