package fleet

import (
	"errors"
	"sync"
	"testing"
	"time"

	uerl "repro"
)

// TestChanTransportFaults pins the in-process transport's fault model,
// one slot state per row: what Call returns, and for a slot that answers,
// whether its worker kept its state (NodeCount) and which incarnation it
// answers from. Kill is idempotent, Hang on a killed slot is a no-op,
// Rejoin after a hang resumes the same worker, and Rejoin after a kill
// starts a factory-fresh one from the next incarnation. The neighbouring
// slot is never disturbed.
func TestChanTransportFaults(t *testing.T) {
	e := ev(3, time.Unix(1_700_000_000, 0).UTC(), 1)
	for _, tc := range []struct {
		name string
		ops  string // K = Kill(0), H = Hang(0), R = Rejoin(0), in order
		err  error
		// nodes and incarnation are checked only when err is nil.
		nodes       int
		incarnation uint64
	}{
		{name: "live", ops: "", nodes: 1},
		{name: "killed", ops: "K", err: ErrWorkerDown},
		{name: "killed twice", ops: "KK", err: ErrWorkerDown},
		{name: "hung", ops: "H", err: ErrWorkerTimeout},
		{name: "hung after kill", ops: "KH", err: ErrWorkerDown},
		{name: "killed while hung", ops: "HK", err: ErrWorkerDown},
		{name: "rejoined while live", ops: "R", nodes: 1},
		{name: "rejoined after hang", ops: "HR", nodes: 1},
		{name: "rejoined after kill", ops: "KR", nodes: 0, incarnation: 1},
		{name: "rejoined after double kill", ops: "KKR", nodes: 0, incarnation: 1},
		{name: "rejoined after hang on killed", ops: "KHR", nodes: 0, incarnation: 1},
		{name: "rejoined after kill while hung", ops: "HKR", nodes: 0, incarnation: 1},
		{name: "rejoined twice after kill", ops: "KRR", nodes: 0, incarnation: 1},
		{name: "restarted twice", ops: "KRKR", nodes: 0, incarnation: 2},
		{name: "hung after restart", ops: "KRH", err: ErrWorkerTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewChanTransport(2, func(id int) *Worker { return NewWorker(id, uerl.AlwaysPolicy()) })
			for w := range tr.Workers() {
				if err := tr.Call(w, &Request{Kind: ReqObserve, Event: e}, &Response{}); err != nil {
					t.Fatalf("observe on fresh worker %d: %v", w, err)
				}
			}
			for _, op := range tc.ops {
				switch op {
				case 'K':
					tr.Kill(0)
				case 'H':
					tr.Hang(0)
				case 'R':
					tr.Rejoin(0)
				}
			}
			for _, kind := range []ReqKind{ReqPing, ReqRecommend, ReqStats} {
				resp := Response{Incarnation: 99}
				err := tr.Call(0, &Request{Kind: kind, Node: e.Node, At: e.Time, Cost: 10}, &resp)
				if err != tc.err {
					t.Fatalf("kind %d: Call = %v, want %v", kind, err, tc.err)
				}
				if err != nil {
					if resp.Incarnation != 99 {
						t.Fatalf("kind %d: failed call stamped incarnation %d", kind, resp.Incarnation)
					}
					continue
				}
				if resp.Incarnation != tc.incarnation {
					t.Fatalf("kind %d: incarnation %d, want %d", kind, resp.Incarnation, tc.incarnation)
				}
				if kind == ReqStats && resp.Stats.Nodes != tc.nodes {
					t.Fatalf("NodeCount %d, want %d", resp.Stats.Nodes, tc.nodes)
				}
			}
			var resp Response
			if err := tr.Call(1, &Request{Kind: ReqStats}, &resp); err != nil || resp.Incarnation != 0 || resp.Stats.Nodes != 1 {
				t.Fatalf("neighbour slot disturbed: err %v, incarnation %d, nodes %d", err, resp.Incarnation, resp.Stats.Nodes)
			}
		})
	}

	tr := NewChanTransport(2, func(id int) *Worker { return NewWorker(id, uerl.AlwaysPolicy()) })
	for _, w := range []int{-1, 2} {
		err := tr.Call(w, &Request{Kind: ReqPing}, &Response{})
		if err == nil || errors.Is(err, ErrWorkerDown) || errors.Is(err, ErrWorkerTimeout) {
			t.Fatalf("Call(%d) on a 2-slot transport = %v, want an out-of-range error", w, err)
		}
	}
}

// TestChanTransportConcurrentFaults drives the transport from several
// goroutines while another cycles every slot through kill, rejoin, hang
// and rejoin. Each call must fail with exactly one of the two fault
// errors or answer from an incarnation no older than that caller saw
// last, and after the cycling each slot answers from the incarnation its
// kill count says. Run it under -race.
func TestChanTransportConcurrentFaults(t *testing.T) {
	const (
		workers = 3
		callers = 4
		calls   = 400
		cycles  = 60
	)
	tr := NewChanTransport(workers, func(id int) *Worker { return NewWorker(id, uerl.AlwaysPolicy()) })
	at := time.Unix(1_700_000_000, 0).UTC()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen [workers]uint64
			for i := range calls {
				w := (g + i) % workers
				req := Request{Kind: ReqPing}
				if i%2 == 1 {
					req = Request{Kind: ReqRecommend, Node: i, At: at, Cost: 10}
				}
				var resp Response
				switch err := tr.Call(w, &req, &resp); err {
				case ErrWorkerDown, ErrWorkerTimeout:
				case nil:
					if resp.Incarnation < seen[w] {
						errs <- errors.New("incarnation went backwards")
						return
					}
					seen[w] = resp.Incarnation
					if req.Kind == ReqRecommend && (resp.Decision.Node != i || resp.Decision.Degraded) {
						errs <- errors.New("recommend answered for the wrong node")
						return
					}
				default:
					errs <- err
					return
				}
			}
		}()
	}
	for i := range cycles {
		w := i % workers
		tr.Kill(w)
		tr.Rejoin(w)
		tr.Hang(w)
		tr.Rejoin(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := range workers {
		var resp Response
		if err := tr.Call(w, &Request{Kind: ReqPing}, &resp); err != nil {
			t.Fatalf("worker %d after cycling: %v", w, err)
		}
		if want := uint64(cycles / workers); resp.Incarnation != want {
			t.Fatalf("worker %d answers from incarnation %d, want %d", w, resp.Incarnation, want)
		}
	}
}
