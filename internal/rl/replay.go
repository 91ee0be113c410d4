// Package rl implements the reinforcement-learning machinery of the paper:
// MDP interfaces, experience replay (uniform and prioritized, Schaul et al.
// 2015), ε-greedy exploration schedules, and a dueling double deep
// Q-network agent (Mnih et al. 2013; van Hasselt et al. 2016; Wang et al.
// 2016) built on the nn package.
//
//uerl:deterministic
package rl

import (
	"fmt"

	"repro/internal/mathx"
)

// Transition is one step of experience: acting in state S with action A
// yielded reward R and next state NextS; Done marks terminal transitions
// (no bootstrapping from NextS).
type Transition struct {
	S     []float64
	A     int
	R     float64
	NextS []float64
	Done  bool
}

// Replay abstracts an experience buffer so the agent can run with either
// uniform sampling or prioritized sampling (the paper's configuration, and
// the ablation in BenchmarkAblationPER).
type Replay interface {
	// Add stores a transition.
	Add(tr Transition)
	// Len reports how many transitions are stored.
	Len() int
	// SampleInto draws len(trs) transitions without allocating: it fills
	// the caller-owned slices (all len(trs) long) with the transitions,
	// their buffer handles (for UpdatePriorities) and importance-sampling
	// weights normalized to max 1, and returns the number of transitions
	// written (0 when the buffer is empty).
	SampleInto(rng *mathx.RNG, trs []Transition, handles []int, ws []float64) int
	// UpdatePriorities sets new priorities (typically |TD error|) for the
	// sampled handles. Uniform buffers ignore it.
	UpdatePriorities(handles []int, priorities []float64)
}

// Slots is pointer-free, slot-owned transition storage, the one shape
// every experience buffer keeps: a slot's action, reward and done flag sit
// in a flat metadata array, and its state vectors are copied into flat
// backing arrays, so a stored transition never aliases caller buffers and
// the collector scans no per-slot pointers. Environments are then free to
// reuse ping-pong state buffers across steps (the vectorized trainer's
// envs do), and Put allocates nothing in steady state. The state dimension
// is learned from the first transition with a non-empty S; vectors of any
// other length are kept by reference in a side table made on first use.
// Slots does no locking.
type Slots struct {
	meta    []slotMeta
	s, next []float64
	dim     int
	// odd holds, per slot, the states whose length is not dim; nil until
	// such a state is stored.
	odd []oddStates
}

// slotMeta is one slot's pointer-free transition record; flatS and
// flatNext report which of its states live in the flat arrays.
type slotMeta struct {
	r                     float64
	a                     int
	done, flatS, flatNext bool
}

// oddStates holds a slot's by-reference states.
type oddStates struct{ s, next []float64 }

// NewSlots creates storage for capacity transitions.
func NewSlots(capacity int) Slots {
	return Slots{meta: make([]slotMeta, capacity)}
}

// Cap reports the number of slots.
func (st *Slots) Cap() int { return len(st.meta) }

// Put stores tr in slot, copying its states into slot-owned memory.
func (st *Slots) Put(slot int, tr Transition) {
	if st.dim == 0 && len(tr.S) > 0 {
		st.dim = len(tr.S)
		st.s = make([]float64, len(st.meta)*st.dim)
		st.next = make([]float64, len(st.meta)*st.dim)
	}
	m := slotMeta{r: tr.R, a: tr.A, done: tr.Done}
	var odd oddStates
	if m.flatS = st.dim > 0 && len(tr.S) == st.dim; m.flatS {
		copy(st.s[slot*st.dim:], tr.S)
	} else {
		odd.s = tr.S
	}
	if m.flatNext = st.dim > 0 && len(tr.NextS) == st.dim; m.flatNext {
		copy(st.next[slot*st.dim:], tr.NextS)
	} else {
		odd.next = tr.NextS
	}
	if st.odd == nil && (odd.s != nil || odd.next != nil) {
		st.odd = make([]oddStates, len(st.meta))
	}
	if st.odd != nil {
		st.odd[slot] = odd
	}
	st.meta[slot] = m
}

// At returns the transition in slot. Its state slices alias the slot's
// storage: they stay valid until the slot is next Put.
func (st *Slots) At(slot int) Transition {
	m := &st.meta[slot]
	lo, hi := slot*st.dim, (slot+1)*st.dim
	if m.flatS && m.flatNext {
		return Transition{S: st.s[lo:hi:hi], A: m.a, R: m.r, NextS: st.next[lo:hi:hi], Done: m.done}
	}
	tr := Transition{A: m.a, R: m.r, Done: m.done}
	if st.odd != nil {
		tr.S, tr.NextS = st.odd[slot].s, st.odd[slot].next
	}
	if m.flatS {
		tr.S = st.s[lo:hi:hi]
	}
	if m.flatNext {
		tr.NextS = st.next[lo:hi:hi]
	}
	return tr
}

// UniformReplay is a fixed-capacity ring buffer with uniform sampling.
// Stored transitions own their state memory (see Slots), so callers may
// reuse the slices they pass to Add.
type UniformReplay struct {
	slots Slots
	next  int
	full  bool
}

// NewUniformReplay creates a buffer holding at most capacity transitions.
func NewUniformReplay(capacity int) *UniformReplay {
	if capacity <= 0 {
		panic(fmt.Sprintf("rl: replay capacity must be positive, got %d", capacity))
	}
	return &UniformReplay{slots: NewSlots(capacity)}
}

// Add implements Replay. The transition's state vectors are copied into
// buffer-owned memory, so the caller keeps ownership of its slices.
//
//uerl:hotpath
func (u *UniformReplay) Add(tr Transition) {
	u.slots.Put(u.next, tr)
	u.next++
	if u.next == u.slots.Cap() {
		u.next = 0
		u.full = true
	}
}

// Len implements Replay.
func (u *UniformReplay) Len() int {
	if u.full {
		return u.slots.Cap()
	}
	return u.next
}

// SampleInto implements Replay. All importance weights are 1.
//
//uerl:hotpath
func (u *UniformReplay) SampleInto(rng *mathx.RNG, trs []Transition, handles []int, ws []float64) int {
	size := u.Len()
	if size == 0 {
		return 0
	}
	for i := range trs {
		idx := rng.Intn(size)
		trs[i] = u.slots.At(idx)
		handles[i] = idx
		ws[i] = 1
	}
	return len(trs)
}

// UpdatePriorities implements Replay (no-op for uniform sampling).
func (u *UniformReplay) UpdatePriorities([]int, []float64) {}
