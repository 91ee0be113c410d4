package rl

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// PERConfig configures prioritized experience replay. Sampling weights and
// priorities are powers computed as exp(p*log(x)) (mathx.FastPow), within
// a couple of ULPs of math.Pow: part of the nn.KernelFast stream.
type PERConfig struct {
	// Capacity is the maximum number of stored transitions.
	Capacity int
	// Alpha is the prioritization exponent: 0 is uniform, 1 is fully
	// proportional to |TD error|. Schaul et al. use 0.6-0.7.
	Alpha float64
	// Beta is the importance-sampling exponent correcting the sampling
	// bias; annealed from Beta towards 1 over BetaSteps samples.
	Beta float64
	// BetaSteps is the number of SampleInto calls over which beta anneals
	// to 1.
	// Zero keeps beta fixed.
	BetaSteps int
	// Eps is added to priorities so no transition starves. Default 1e-3.
	Eps float64
}

// PrioritizedReplay implements proportional prioritized experience replay
// (Schaul et al., 2015) using a sum tree. New transitions enter with maximal
// priority so each experience is replayed at least once; priorities are then
// updated to |TD error|^alpha after training visits them. The paper (§3.3.4)
// relies on PER to cope with the 3.5-orders-of-magnitude class imbalance
// between UEs and ordinary events.
type PrioritizedReplay struct {
	cfg     PERConfig
	tree    *sumTree
	slots   Slots
	next    int
	size    int
	maxPrio float64
	samples int
}

// NewPrioritizedReplay creates an empty prioritized buffer.
func NewPrioritizedReplay(cfg PERConfig) *PrioritizedReplay {
	if cfg.Capacity <= 0 {
		panic(fmt.Sprintf("rl: PER capacity must be positive, got %d", cfg.Capacity))
	}
	if cfg.Eps == 0 {
		cfg.Eps = 1e-3
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.6
	}
	if cfg.Beta == 0 {
		cfg.Beta = 0.4
	}
	return &PrioritizedReplay{
		cfg:     cfg,
		tree:    newSumTree(cfg.Capacity),
		slots:   NewSlots(cfg.Capacity),
		maxPrio: 1,
	}
}

// Add implements Replay. New transitions receive the current maximum
// priority. State vectors are copied into buffer-owned memory, so the
// caller keeps ownership of its slices.
//
//uerl:hotpath
func (p *PrioritizedReplay) Add(tr Transition) {
	p.slots.Put(p.next, tr)
	p.tree.set(p.next, p.maxPrio)
	p.next = (p.next + 1) % p.cfg.Capacity
	if p.size < p.cfg.Capacity {
		p.size++
	}
}

// Len implements Replay.
func (p *PrioritizedReplay) Len() int { return p.size }

// beta returns the current annealed importance-sampling exponent.
func (p *PrioritizedReplay) beta() float64 {
	if p.cfg.BetaSteps <= 0 {
		return p.cfg.Beta
	}
	frac := float64(p.samples) / float64(p.cfg.BetaSteps)
	if frac > 1 {
		frac = 1
	}
	return p.cfg.Beta + (1-p.cfg.Beta)*frac
}

// SampleInto implements Replay using stratified proportional sampling: the
// total priority mass is divided into n = len(trs) equal segments and one
// sample is drawn uniformly within each, which lowers sample variance
// versus independent draws.
//
//uerl:hotpath
func (p *PrioritizedReplay) SampleInto(rng *mathx.RNG, trs []Transition, handles []int, ws []float64) int {
	if p.size == 0 {
		return 0
	}
	n := len(trs)
	total := p.tree.total()
	if total <= 0 {
		// Degenerate: all priorities zero; fall back to uniform.
		for i := range trs {
			h := rng.Intn(p.size)
			trs[i], handles[i], ws[i] = p.slots.At(h), h, 1
		}
		return n
	}
	beta := p.beta()
	p.samples++
	seg := total / float64(n)
	maxW := 0.0
	for i := 0; i < n; i++ {
		mass := (float64(i) + rng.Float64()) * seg
		if mass >= total {
			mass = total * (1 - 1e-12)
		}
		h := p.tree.find(mass)
		if h >= p.size {
			// Rounded-up tree capacity can return an empty leaf when the
			// buffer is not yet full; clamp to a valid entry.
			h = rng.Intn(p.size)
		}
		prob := p.tree.get(h) / total
		if prob <= 0 {
			prob = 1e-12
		}
		w := mathx.FastPow(float64(p.size)*prob, -beta)
		trs[i], handles[i], ws[i] = p.slots.At(h), h, w
		if w > maxW {
			maxW = w
		}
	}
	if maxW > 0 {
		for i := range ws {
			ws[i] /= maxW
		}
	}
	return n
}

// UpdatePriorities implements Replay: priorities become
// (|TD error| + eps)^alpha.
func (p *PrioritizedReplay) UpdatePriorities(handles []int, priorities []float64) {
	for i, h := range handles {
		if h < 0 || h >= p.cfg.Capacity {
			continue
		}
		prio := mathx.FastPow(math.Abs(priorities[i])+p.cfg.Eps, p.cfg.Alpha)
		p.tree.set(h, prio)
		if prio > p.maxPrio {
			p.maxPrio = prio
		}
	}
}
