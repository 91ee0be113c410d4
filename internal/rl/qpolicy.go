package rl

import "repro/internal/nn"

// SharedQPolicy is a concurrency-safe greedy policy over a frozen network
// (Agent.SnapshotPolicy returns one). Unlike a greedy closure owning a
// single scratch buffer, which is single-goroutine, SharedQPolicy runs
// each call's forward pass on that call's own stack (nn.Inference), so
// one instance can serve many goroutines (the sharded controller's
// Recommend path and the parallel replay engine) with no shared scratch.
//
// Concurrency contract:
//
//   - QValuesInto / Action may be called from any number of
//     goroutines simultaneously, without external locking; each call
//     keeps its activations in a stack array and allocates nothing. A
//     network with a layer wider than the stack bound (256 units, the
//     paper's widest; no shipped or trained network is wider) runs the
//     same forward pass in a per-call buffer instead.
//   - The wrapped network is strictly read-only for the policy's
//     lifetime. The constructor's caller must hand over a network nobody
//     trains afterwards (Clone a training agent's online network first);
//     the constructor packs the output head once, and Net is exposed for
//     serialization and must be treated as read-only.
//   - Continual-learning hot swaps therefore never mutate a served
//     SharedQPolicy: a retrained candidate is a new frozen network
//     wrapped in a new policy, and the swap replaces the whole policy
//     pointer atomically at the serving layer.
type SharedQPolicy struct {
	net *nn.Network
	inf *nn.Inference
}

// NewSharedQPolicy wraps a frozen network. The caller must not train the
// network afterwards; Clone it first if the source keeps learning.
func NewSharedQPolicy(net *nn.Network) *SharedQPolicy {
	return &SharedQPolicy{net: net, inf: nn.NewInference(net)}
}

// Net exposes the wrapped network (for serialization and inspection).
func (p *SharedQPolicy) Net() *nn.Network { return p.net }

// QValuesInto writes the Q-values for state into dst (len >= the network's
// output count) without allocating. Safe for concurrent use.
//
//uerl:hotpath
func (p *SharedQPolicy) QValuesInto(dst, state []float64) {
	p.inf.QValuesInto(dst, state)
}

// ConcurrentSafe marks the policy as safe for concurrent Decide/Action
// calls; the parallel replay engine keys off it.
func (p *SharedQPolicy) ConcurrentSafe() bool { return true }

// Action implements Policy: argmax_a Q(state, a), the first action on
// ties. Safe for concurrent use.
func (p *SharedQPolicy) Action(state []float64) int {
	return p.inf.Action(state)
}
