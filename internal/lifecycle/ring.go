package lifecycle

import "fmt"

// Ring is a bounded drop-oldest FIFO: pushing into a full ring evicts the
// oldest element and counts the drop. It is the unsynchronized core shared
// by the experience Stream (which adds a mutex) and the fleet layer's
// per-node event journals (which replay the retained window to rebuild
// tracker state after a failover). The zero value is not usable; construct
// with NewRing.
//
// Ring does no locking: callers that share one across goroutines must
// synchronize around it.
type Ring[T any] struct {
	buf     []T
	head    int
	size    int
	pushed  uint64
	dropped uint64
}

// NewRing creates a ring holding at most capacity elements.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("lifecycle: ring capacity must be positive, got %d", capacity))
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v, evicting the oldest element when full.
func (r *Ring[T]) Push(v T) {
	if r.size == len(r.buf) {
		r.head = r.slot(1)
		r.size--
		r.dropped++
	}
	r.buf[r.slot(r.size)] = v
	r.size++
	r.pushed++
}

// At returns the i-th oldest retained element (0 = oldest). It panics when
// i is out of [0, Len()).
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.size {
		panic(fmt.Sprintf("lifecycle: ring index %d out of range [0,%d)", i, r.size))
	}
	return r.buf[r.slot(i)]
}

// slot returns the buffer index of the i-th oldest retained element (i in
// [0, Cap()]), so a caller can keep per-element data in storage parallel
// to the ring.
func (r *Ring[T]) slot(i int) int {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return j
}

// Reset drops all retained elements (the pushed/dropped counters keep
// their lifetime totals; reset elements do not count as dropped).
func (r *Ring[T]) Reset() {
	var zero T
	for i := 0; i < r.size; i++ {
		r.buf[r.slot(i)] = zero
	}
	r.head, r.size = 0, 0
}

// Len reports the number of retained elements.
func (r *Ring[T]) Len() int { return r.size }

// Cap reports the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Pushed reports the total number of elements ever pushed.
func (r *Ring[T]) Pushed() uint64 { return r.pushed }

// Dropped reports how many elements were evicted by Push.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }
