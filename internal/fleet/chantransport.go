package fleet

import (
	"fmt"
	"sync"
)

// chanEndpoint is the coordinator-side handle of one worker slot.
type chanEndpoint struct {
	// w is the slot's worker, nil once killed: its state is gone, and
	// Rejoin starts a fresh worker from the factory. Guarded by the
	// transport mutex, as is hung.
	w *Worker
	// hung is a fault-injection flag: the worker keeps its state but
	// every Call fails with ErrWorkerTimeout until Rejoin clears it.
	hung bool
	// incarnation counts the slot's restarts (Response.Incarnation).
	incarnation uint64
}

// ChanTransport runs N workers in process — the single-binary
// multi-worker mode. Call runs the worker synchronously on the caller's
// goroutine, and the transport mutex serializes every call with every
// other call and with Kill/Hang/Rejoin, so a worker never serves two
// requests at once. Faults are modeled deterministically: Kill, Hang and
// Rejoin flip per-worker flags, and calls against a faulted worker fail
// immediately with the matching error instead of waiting out wall-clock
// timeouts. Same call sequence + same fault schedule ⇒ same results,
// byte for byte, at any GOMAXPROCS.
type ChanTransport struct {
	mu      sync.Mutex
	factory func(id int) *Worker
	eps     []*chanEndpoint
}

// NewChanTransport starts n workers built by factory. The factory is
// retained: Rejoin after Kill uses it to start a replacement worker from
// scratch (fresh controller state — exactly what a restarted process
// would have).
func NewChanTransport(n int, factory func(id int) *Worker) *ChanTransport {
	if n <= 0 {
		panic(fmt.Sprintf("fleet: transport needs at least one worker, got %d", n))
	}
	if factory == nil {
		panic("fleet: NewChanTransport with nil worker factory")
	}
	t := &ChanTransport{factory: factory, eps: make([]*chanEndpoint, n)}
	for i := range t.eps {
		t.eps[i] = newEndpoint(factory(i), 0)
	}
	return t
}

// newEndpoint puts w in a slot, telling it its incarnation.
func newEndpoint(w *Worker, incarnation uint64) *chanEndpoint {
	w.incarnation = incarnation
	return &chanEndpoint{w: w, incarnation: incarnation}
}

// Workers reports the number of worker slots.
func (t *ChanTransport) Workers() int { return len(t.eps) }

// Call has worker w serve req on the caller's goroutine. Faulted workers
// fail immediately: ErrWorkerDown when killed, ErrWorkerTimeout when
// hung. The call holds the transport mutex throughout, which keeps the
// fault flags and the request atomic with respect to concurrent calls
// and Kill/Hang/Rejoin.
func (t *ChanTransport) Call(w int, req *Request, resp *Response) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w < 0 || w >= len(t.eps) {
		return fmt.Errorf("fleet: no worker %d (have %d)", w, len(t.eps))
	}
	ep := t.eps[w]
	switch {
	case ep.w == nil:
		return ErrWorkerDown
	case ep.hung:
		return ErrWorkerTimeout
	}
	ep.w.handle(req, resp)
	resp.Incarnation = ep.incarnation
	return nil
}

// Kill stops worker w: its state is gone. Calls fail with ErrWorkerDown
// until Rejoin starts a replacement.
func (t *ChanTransport) Kill(w int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.eps[w].w = nil
	t.eps[w].hung = false
}

// Hang makes worker w unresponsive without losing its state: calls fail
// with ErrWorkerTimeout until Rejoin clears the fault.
func (t *ChanTransport) Hang(w int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.eps[w].w != nil {
		t.eps[w].hung = true
	}
}

// Rejoin heals worker w: a hung worker resumes with its state intact; a
// killed worker is replaced by a factory-fresh one (empty controller
// state, initial policy, next incarnation), as a restarted process would
// be. The coordinator discovers the recovery on its next probe or
// delivery and rebuilds state through journal replay.
func (t *ChanTransport) Rejoin(w int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ep := t.eps[w]
	if ep.w == nil {
		t.eps[w] = newEndpoint(t.factory(w), ep.incarnation+1)
		return
	}
	ep.hung = false
}
