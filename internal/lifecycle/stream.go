// Package lifecycle implements online continual learning for the serving
// layer: a bounded experience stream fed from live serving decisions and
// realized outcomes, an OnlineTrainer that turns that stream into
// deterministic incremental DQN updates (reusing the batched internal/rl
// kernels), and a drift detector over the rolling feature distribution
// that decides when retraining is warranted. The root package's
// OnlineLearner wires these into the Controller's drift → retrain →
// shadow-evaluate → hot-swap loop.
//
//uerl:deterministic
package lifecycle

import (
	"sync"

	"repro/internal/rl"
)

// Stream is a bounded FIFO of training transitions. When full, pushing
// drops the oldest buffered transition (live experience is perishable:
// the newest transitions reflect the distribution being learned), and the
// drop is counted so operators can size the buffer against their retrain
// cadence. Push copies each transition into slot-owned, pointer-free
// storage (rl.Slots), so callers may reuse their state buffers. Stream is
// safe for concurrent use: it is a mutex around the shared Ring core,
// which keeps the FIFO order and the counters while the slots hold the
// transitions.
type Stream struct {
	mu    sync.Mutex
	ring  *Ring[struct{}]
	slots rl.Slots
}

// NewStream creates a stream holding at most capacity transitions.
func NewStream(capacity int) *Stream {
	return &Stream{ring: NewRing[struct{}](capacity), slots: rl.NewSlots(capacity)}
}

// Push appends a transition, evicting the oldest when full.
func (s *Stream) Push(tr rl.Transition) {
	s.mu.Lock()
	s.ring.Push(struct{}{})
	s.slots.Put(s.ring.slot(s.ring.Len()-1), tr)
	s.mu.Unlock()
}

// Drain removes all buffered transitions in FIFO order, invoking f for
// each. The transition's state slices alias stream storage and are valid
// only during the call; the callback must not call back into the stream.
func (s *Stream) Drain(f func(rl.Transition)) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.ring.Len()
	for i := 0; i < n; i++ {
		f(s.slots.At(s.ring.slot(i)))
	}
	s.ring.Reset()
	return n
}

// Pushed reports the total number of transitions ever pushed.
func (s *Stream) Pushed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.Pushed()
}

// Dropped reports how many transitions were evicted unconsumed.
func (s *Stream) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.Dropped()
}
