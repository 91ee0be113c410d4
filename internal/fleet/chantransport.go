package fleet

import (
	"fmt"
	"sync"
)

// rpc is one in-flight request/response pair handed across the worker
// channel boundary.
type rpc struct {
	req  *Request
	resp *Response
}

// chanEndpoint is the coordinator-side handle of one worker goroutine.
type chanEndpoint struct {
	reqCh chan rpc
	// done signals each reply; calls are serialized under the transport
	// mutex, so one channel made at start serves every call.
	done chan struct{}
	stop chan struct{}
	// killed and hung are fault-injection flags (guarded by the
	// transport mutex). A killed worker's goroutine has exited and its
	// state is gone — Rejoin starts a fresh worker from the factory. A
	// hung worker keeps its goroutine and state but every Call fails
	// with ErrWorkerTimeout until Rejoin clears the flag.
	killed bool
	hung   bool
	// incarnation counts the slot's restarts (Response.Incarnation).
	incarnation uint64
}

// ChanTransport runs N workers as goroutines behind channel request/reply
// boundaries — the single-binary multi-worker mode. Every request crosses
// a real goroutine handoff (so -race exercises the coordinator/worker
// interface exactly as a network transport would), yet calls are
// synchronous and faults are modeled deterministically: Kill, Hang and
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
		t.eps[i] = startEndpoint(factory(i), 0)
	}
	return t
}

// startEndpoint launches the serving goroutine for one worker, telling
// it its incarnation.
func startEndpoint(w *Worker, incarnation uint64) *chanEndpoint {
	w.incarnation = incarnation
	ep := &chanEndpoint{
		reqCh:       make(chan rpc),
		done:        make(chan struct{}),
		stop:        make(chan struct{}),
		incarnation: incarnation,
	}
	go func() {
		for {
			select {
			case <-ep.stop:
				return
			case c := <-ep.reqCh:
				w.handle(c.req, c.resp)
				ep.done <- struct{}{}
			}
		}
	}()
	return ep
}

// Workers reports the number of worker slots.
func (t *ChanTransport) Workers() int { return len(t.eps) }

// Call delivers req to worker w and waits for its reply. Faulted workers
// fail immediately: ErrWorkerDown when killed, ErrWorkerTimeout when
// hung. The call is serialized under the transport mutex, which keeps the
// fault flags and the request handoff atomic with respect to concurrent
// Kill/Hang/Rejoin.
func (t *ChanTransport) Call(w int, req *Request, resp *Response) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w < 0 || w >= len(t.eps) {
		return fmt.Errorf("fleet: no worker %d (have %d)", w, len(t.eps))
	}
	ep := t.eps[w]
	switch {
	case ep.killed:
		return ErrWorkerDown
	case ep.hung:
		return ErrWorkerTimeout
	}
	ep.reqCh <- rpc{req: req, resp: resp}
	<-ep.done
	resp.Incarnation = ep.incarnation
	return nil
}

// Kill stops worker w: its goroutine exits and its state is gone. Calls
// fail with ErrWorkerDown until Rejoin starts a replacement.
func (t *ChanTransport) Kill(w int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ep := t.eps[w]
	if ep.killed {
		return
	}
	ep.killed = true
	ep.hung = false
	close(ep.stop)
}

// Hang makes worker w unresponsive without losing its state: calls fail
// with ErrWorkerTimeout until Rejoin clears the fault.
func (t *ChanTransport) Hang(w int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.eps[w].killed {
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
	if ep.killed {
		t.eps[w] = startEndpoint(t.factory(w), ep.incarnation+1)
		return
	}
	ep.hung = false
}
