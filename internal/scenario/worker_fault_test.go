package scenario

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// servingSpec returns a runnable fleet-mode spec with a kill/rejoin arc
// overlapping a burst, small enough to iterate on in tests.
func servingSpec() Spec {
	s := validSpec()
	s.Name = "fleet-probe"
	s.DurationDays = 8
	s.Faults = []FaultSpec{
		{Kind: FaultBurst, StartDay: 4, UEs: 12, CEPrefix: 60},
		{Kind: FaultDuplicate, StartDay: 5, EndDay: 6, Fraction: 0.5},
	}
	s.Serving = &ServingSpec{
		Workers:            3,
		JournalCapacity:    128,
		DedupWindowSeconds: 5,
		Faults: []WorkerFaultSpec{
			{Worker: 1, Kind: WorkerKill, AtDay: 3.9},
			{Worker: 1, Kind: WorkerRejoin, AtDay: 6},
		},
	}
	return s
}

func TestCompileWorkerFaultSchedule(t *testing.T) {
	s := servingSpec()
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.WorkerFaults) != 2 {
		t.Fatalf("compiled %d worker faults, want 2", len(c.WorkerFaults))
	}
	kill, rejoin := c.WorkerFaults[0], c.WorkerFaults[1]
	if kill.Kind != WorkerKill || kill.Worker != 1 {
		t.Fatalf("first fault = %+v, want kill of worker 1", kill)
	}
	if want := c.Start.Add(time.Duration(3.9 * 24 * float64(time.Hour))); !kill.At.Equal(want) {
		t.Fatalf("kill lowered to %v, want %v", kill.At, want)
	}
	if !rejoin.At.After(kill.At) {
		t.Fatal("schedule lost its time order in lowering")
	}
	// Without a serving section the schedule is empty.
	s.Serving = nil
	if c2, err := Compile(s); err != nil || len(c2.WorkerFaults) != 0 {
		t.Fatalf("single-process compile: %v, %d worker faults", err, len(c2.WorkerFaults))
	}
}

// TestScenarioFleetArc runs the kill/rejoin scenario end to end and
// checks the summary tells the whole story: the failover and rejoin
// happened, journal replay rebuilt the moved nodes, duplicated
// deliveries were absorbed, any degraded decision stayed conservative,
// and the fleet ended settled (no orphans, every worker live).
func TestScenarioFleetArc(t *testing.T) {
	sum, err := runSpec(servingSpec())
	if err != nil {
		t.Fatal(err)
	}
	fs := sum.Fleet
	if fs == nil {
		t.Fatal("fleet-mode run produced no fleet summary")
	}
	if fs.Workers != 3 {
		t.Fatalf("fleet width %d, want 3", fs.Workers)
	}
	if fs.Failovers < 1 || fs.Rejoins < 1 {
		t.Fatalf("fault arc not exercised: failovers=%d rejoins=%d", fs.Failovers, fs.Rejoins)
	}
	if fs.ReplayedEvents == 0 || fs.ReplayedNodes == 0 {
		t.Fatalf("failover did not replay journal state: %+v", fs)
	}
	if fs.JournalDeduped == 0 {
		t.Fatal("duplicated deliveries were not deduplicated")
	}
	if fs.OrphanNodes != 0 {
		t.Fatalf("%d nodes left orphaned after Reconcile", fs.OrphanNodes)
	}
	if sum.Survival.ContractViolations != 0 {
		t.Fatalf("%d degraded/vetoed decisions broke the conservative contract", sum.Survival.ContractViolations)
	}
	if len(fs.WorkerStates) != 3 {
		t.Fatalf("%d worker state lines, want 3", len(fs.WorkerStates))
	}
	for _, w := range fs.WorkerStates {
		if w.State != "live" {
			t.Fatalf("worker %d ended %q, want live", w.ID, w.State)
		}
	}
}

// TestScenarioFleetDeterminism proves fleet-mode summaries are
// byte-identical across repeated runs and GOMAXPROCS settings — the
// property the worker-fault goldens stand on.
func TestScenarioFleetDeterminism(t *testing.T) {
	spec := servingSpec()
	run := func() []byte {
		sum, err := runSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := EncodeSummary(sum)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	first := run()
	if again := run(); !bytes.Equal(first, again) {
		t.Fatal("fleet summary differs across identical runs")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if single := run(); !bytes.Equal(first, single) {
		t.Fatal("fleet summary differs under GOMAXPROCS=1")
	}
}
