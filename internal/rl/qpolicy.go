package rl

import (
	"sync"

	"repro/internal/mathx"
	"repro/internal/nn"
)

// SharedQPolicy is a concurrency-safe greedy policy over a frozen network
// (Agent.SnapshotPolicy returns one). Unlike a greedy closure owning a
// single scratch buffer, which is single-goroutine, SharedQPolicy pools
// scratch space per call, so one instance can serve many goroutines (the
// sharded controller's Recommend path and the parallel replay engine).
//
// Concurrency contract:
//
//   - QValues / QValuesInto / Action may be called from any number of
//     goroutines simultaneously, without external locking; each call
//     draws its own scratch from an internal pool.
//   - The wrapped network is strictly read-only for the policy's
//     lifetime. The constructor's caller must hand over a network nobody
//     trains afterwards (Clone a training agent's online network first);
//     Net is exposed for serialization and must be treated as read-only.
//   - Continual-learning hot swaps therefore never mutate a served
//     SharedQPolicy: a retrained candidate is a new frozen network
//     wrapped in a new policy, and the swap replaces the whole policy
//     pointer atomically at the serving layer.
type SharedQPolicy struct {
	net  *nn.Network
	pool sync.Pool
}

// NewSharedQPolicy wraps a frozen network. The caller must not train the
// network afterwards; Clone it first if the source keeps learning.
func NewSharedQPolicy(net *nn.Network) *SharedQPolicy {
	p := &SharedQPolicy{net: net}
	p.pool.New = func() any { return net.NewScratch() }
	return p
}

// Net exposes the wrapped network (for serialization and inspection).
func (p *SharedQPolicy) Net() *nn.Network { return p.net }

// QValues appends the Q-values for state to out and returns the extended
// slice. Safe for concurrent use.
func (p *SharedQPolicy) QValues(out, state []float64) []float64 {
	scr := p.pool.Get().(*nn.Scratch)
	out = append(out, p.net.ForwardInto(scr, state)...)
	p.pool.Put(scr)
	return out
}

// QValuesInto writes the Q-values for state into dst (len >= the network's
// output count) without allocating. Safe for concurrent use.
//
//uerl:hotpath
func (p *SharedQPolicy) QValuesInto(dst, state []float64) {
	scr := p.pool.Get().(*nn.Scratch)
	copy(dst, p.net.ForwardInto(scr, state))
	p.pool.Put(scr)
}

// ConcurrentSafe marks the policy as safe for concurrent Decide/Action
// calls; the parallel replay engine keys off it.
func (p *SharedQPolicy) ConcurrentSafe() bool { return true }

// Action implements Policy: argmax_a Q(state, a). Safe for concurrent use.
func (p *SharedQPolicy) Action(state []float64) int {
	scr := p.pool.Get().(*nn.Scratch)
	a := mathx.ArgMax(p.net.ForwardInto(scr, state))
	p.pool.Put(scr)
	return a
}
