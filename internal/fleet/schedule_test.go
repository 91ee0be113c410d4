package fleet

import (
	"fmt"
	"testing"
	"time"

	uerl "repro"
	"repro/internal/mathx"
)

// TestFleetRandomFaultSchedules checks the coordinator's health state
// machine against random fault schedules: fixed seeds, 1–3 workers, and
// kills, hangs, rejoins and Reconcile calls interleaved with the event
// stream at random. The journal never trims, so once every worker is
// rejoined and the fleet reconciled, nothing may be missing. Invariants:
//
//   - every node's features are bit-identical to an uninterrupted
//     Controller fed the same stream;
//   - nodes are orphaned only while every worker is declared down;
//   - the acked count equals the journaled count;
//   - a degraded decision is always ActionNone.
func TestFleetRandomFaultSchedules(t *testing.T) {
	const (
		schedules = 300
		perRun    = 160
	)
	for seed := int64(1); seed <= schedules; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := mathx.NewRNG(seed)
			workers := 1 + rng.Intn(3)
			nodes := 2 + rng.Intn(8)
			events := genStream(seed, nodes, perRun, time.Duration(10+rng.Intn(50))*time.Second)
			coord, tr, err := NewInProcess(Config{
				Workers: workers, Seed: seed, Initial: uerl.AlwaysPolicy(),
				JournalCapacity: len(events),
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := uerl.NewController(uerl.AlwaysPolicy())
			for i, e := range events {
				w, r := rng.Intn(workers), rng.Float64()
				switch {
				case r < 0.02:
					tr.Kill(w)
				case r < 0.04:
					tr.Hang(w)
				case r < 0.08:
					tr.Rejoin(w)
				case r < 0.09:
					coord.Reconcile()
				}
				ref.ObserveEvent(e)
				coord.ObserveEvent(e)
				if d := coord.Recommend(e.Node, e.Time, 100); d.Degraded && d.Action != uerl.ActionNone {
					t.Fatalf("event %d: degraded decision acted: %+v", i, d)
				}
				if st := coord.Stats(); st.OrphanNodes > 0 {
					for _, w := range st.Workers {
						if w.State != WorkerDown {
							t.Fatalf("event %d: %d orphaned nodes while worker %d is %s", i, st.OrphanNodes, w.ID, w.State)
						}
					}
				}
			}
			for w := 0; w < workers; w++ {
				tr.Rejoin(w)
			}
			coord.Reconcile()

			at := events[len(events)-1].Time.Add(time.Hour)
			for n := 0; n < nodes; n++ {
				got := coord.Recommend(n, at, 100)
				if want := ref.Recommend(n, at, 100).Features; got.Degraded || got.Features != want {
					t.Errorf("node %d diverged from the uninterrupted controller (degraded=%v)", n, got.Degraded)
				}
			}
			st := coord.Stats()
			if st.OrphanNodes != 0 {
				t.Errorf("%d nodes orphaned after rejoining every worker", st.OrphanNodes)
			}
			if st.AckedEvents != st.Journal.Appended {
				t.Errorf("acked %d of %d journaled events", st.AckedEvents, st.Journal.Appended)
			}
		})
	}
}
