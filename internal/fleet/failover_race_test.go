package fleet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	uerl "repro"
	"repro/internal/mathx"
)

// TestFleetFailoverParity is the fleet's end-to-end fault table (run
// under -race in the CI fleet-failover job): each row injects one fault
// arc into worker 1 mid-stream while concurrent probers hammer
// Recommend. The contract proved for every row:
//
//   - zero acked events are lost — once the arc has played out, every
//     node's tracker state is bit-identical to an uninterrupted
//     single-process Controller fed the same stream, both before and
//     after the closing Reconcile;
//   - serving stays live throughout — probers always get an answer, and
//     any degraded answer is a conservative ActionNone with a reason;
//   - the outage is visible — as degraded or stale answers, or as the
//     failover and rejoin counts the row expects.
func TestFleetFailoverParity(t *testing.T) {
	const nodes = 40
	events := genStream(7, nodes, 4000, 20*time.Second)

	// Uninterrupted single-process reference.
	ref := uerl.NewController(uerl.AlwaysPolicy())
	for _, e := range events {
		ref.ObserveEvent(e)
	}
	at := events[len(events)-1].Time.Add(time.Hour)
	checkParity := func(t *testing.T, coord *Coordinator, when string) {
		t.Helper()
		for n := 0; n < nodes; n++ {
			want := ref.Recommend(n, at, 100).Features
			d := coord.Recommend(n, at, 100)
			if d.Degraded {
				t.Fatalf("%s: node %d unanswerable", when, n)
			}
			if got := d.Features; got != want {
				t.Fatalf("%s: node %d state diverged:\n got %v\nwant %v", when, n, got, want)
			}
		}
	}

	kill := func(tr *ChanTransport) { tr.Kill(1) }
	hang := func(tr *ChanTransport) { tr.Hang(1) }
	rejoin := func(tr *ChanTransport) { tr.Rejoin(1) }
	third := len(events) / 3
	cases := []struct {
		name string
		// faults maps an event index to the fault injected before it.
		faults           map[int][]func(*ChanTransport)
		failureThreshold int
		// failovers and rejoins are exact; replays says whether any
		// journal replay traffic is expected.
		failovers, rejoins int
		replays            bool
	}{
		{
			name:      "kill-then-rejoin",
			faults:    map[int][]func(*ChanTransport){third: {kill}, 2 * third: {rejoin}},
			failovers: 1, rejoins: 1, replays: true,
		},
		{
			// A hang shorter than the failure threshold: suspect, then
			// live again with no failover. Every backlog is one event,
			// caught up as a plain observe rather than a replay.
			name:   "short-hang/backlog-1",
			faults: map[int][]func(*ChanTransport){third: {hang}, third + 8: {rejoin}},
		},
		{
			// A longer hang under a higher threshold leaves backlogs of
			// two or more events, caught up as replays.
			name:             "short-hang/backlog-2+",
			faults:           map[int][]func(*ChanTransport){third: {hang}, third + 40: {rejoin}},
			failureThreshold: 8,
			replays:          true,
		},
		{
			// Killed and restarted empty while the coordinator still
			// holds it suspect: the new incarnation forces a rejoin
			// that rebuilds every node it owns.
			name:    "kill-restart/suspect",
			faults:  map[int][]func(*ChanTransport){third: {kill}, third + 8: {rejoin}},
			rejoins: 1, replays: true,
		},
		{
			// Killed and restarted before any call failed: the
			// coordinator never saw it unhealthy.
			name:    "kill-restart/unseen",
			faults:  map[int][]func(*ChanTransport){third: {kill, rejoin}},
			rejoins: 1, replays: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, tr, err := NewInProcess(Config{
				Workers: 4, Seed: 11, Initial: uerl.AlwaysPolicy(),
				JournalCapacity:  len(events), // no trimming: full replayability
				FailureThreshold: tc.failureThreshold,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Probers: concurrent Recommend traffic across the whole
			// fault arc. They must never block, error or see a
			// malformed degraded answer.
			var (
				stop       = make(chan struct{})
				wg         sync.WaitGroup
				contractOK atomic.Bool
			)
			contractOK.Store(true)
			t0 := events[0].Time
			for p := 0; p < 4; p++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := mathx.NewRNG(seed)
					for {
						select {
						case <-stop:
							return
						default:
						}
						d := coord.Recommend(rng.Intn(nodes), t0.Add(time.Duration(rng.Intn(90_000))*time.Second), 100)
						if d.Degraded && (d.Action != uerl.ActionNone || d.DegradeReason == "") {
							contractOK.Store(false)
						}
					}
				}(int64(100 + p))
			}

			visible := false
			for i, e := range events {
				for _, fault := range tc.faults[i] {
					fault(tr)
				}
				coord.ObserveEvent(e)
				if d := coord.Recommend(e.Node, e.Time, 100); d.Degraded || d.StaleEvents > 0 {
					visible = true
				}
			}
			close(stop)
			wg.Wait()
			if !contractOK.Load() {
				t.Fatal("a degraded answer broke the conservative-ActionNone contract")
			}

			// Bit-identical parity, already settled by the stream itself
			// and still after the closing Reconcile.
			checkParity(t, coord, "end of stream")
			coord.Reconcile()
			checkParity(t, coord, "after Reconcile")

			st := coord.Stats()
			if st.Failovers != tc.failovers || st.Rejoins != tc.rejoins {
				t.Fatalf("failovers=%d rejoins=%d, want %d %d", st.Failovers, st.Rejoins, tc.failovers, tc.rejoins)
			}
			if replayed := st.ReplayedEvents > 0 || st.ReplayedNodes > 0; replayed != tc.replays {
				t.Fatalf("replayed %d nodes / %d events, want replay traffic=%v", st.ReplayedNodes, st.ReplayedEvents, tc.replays)
			}
			if !visible && st.Rejoins == 0 {
				t.Fatal("the outage left no trace: no degraded or stale answer and no rejoin")
			}
			if st.OrphanNodes != 0 {
				t.Fatalf("%d nodes left orphaned after rejoin", st.OrphanNodes)
			}
			if st.Journal.Appended != uint64(len(events)) || st.AckedEvents != st.Journal.Appended {
				t.Fatalf("journal appended %d, acked %d, of %d events", st.Journal.Appended, st.AckedEvents, len(events))
			}
			for _, w := range st.Workers {
				if w.State != WorkerLive {
					t.Fatalf("worker %d ended %s, want live", w.ID, w.State)
				}
			}
		})
	}
}

// TestFleetOrphanRecommendLive drives the degraded path concurrently:
// with the whole fleet down, Recommend from many goroutines stays
// non-blocking and conservative.
func TestFleetOrphanRecommendLive(t *testing.T) {
	coord, tr, err := NewInProcess(Config{
		Workers: 2, Seed: 3, Initial: uerl.AlwaysPolicy(),
		FailureThreshold: 2, RetryBackoff: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := genStream(5, 10, 200, time.Minute)
	for i, e := range events {
		if i == 50 {
			tr.Kill(0)
			tr.Kill(1)
		}
		coord.ObserveEvent(e)
	}
	var wg sync.WaitGroup
	bad := atomic.Bool{}
	at := events[len(events)-1].Time
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := coord.Recommend(node, at, 50)
				if !d.Degraded || d.Action != uerl.ActionNone {
					bad.Store(true)
				}
			}
		}(p)
	}
	wg.Wait()
	if bad.Load() {
		t.Fatal("orphaned-fleet Recommend returned a non-degraded or non-conservative answer")
	}
}
