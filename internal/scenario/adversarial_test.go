package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	uerl "repro"
)

// TestAdversarialBurstGracefulDegradation is the graceful-degradation
// e2e (run it with -race): a RowHammer-style shaped burst train trips
// the fleet mitigation budget while concurrent goroutines hammer
// Recommend the whole time. Serving must never block — every probe call
// returns, vetoed decisions carry ActionNone — and once the sliding
// window drains after the attack, the budget must recover exactly once
// in the audit log.
func TestAdversarialBurstGracefulDegradation(t *testing.T) {
	ues := 0
	spec := Spec{
		Name:         "adversarial-e2e",
		Seed:         9,
		DurationDays: 10,
		Fleet:        FleetSpec{Nodes: 16},
		Faults: []FaultSpec{
			// One shaped train: a 300-event CE-storm prefix forces Always
			// past the fleet budget inside the window; the UEs land while
			// mitigations are vetoed.
			{Kind: FaultBurst, StartDay: 5, UEs: 8, CEPrefix: 300},
		},
		Lifecycle: LifecycleSpec{
			// The budget dynamic is under test, not the lifecycle: park
			// retraining so the incumbent serves throughout.
			RetrainMin: 1 << 20,
			ShadowUEs:  &ues,
			// Baseline fleet traffic is ~a few mitigations per hour, far
			// under the limit, so the trip and the recovery are both
			// attributable to the burst alone — exactly one of each.
			Guard: &GuardSpec{FleetMitigations: 32, FleetWindowHours: 1},
		},
	}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}

	var calls, probeVetoes atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	c.Probe = func(serving uerl.Serving, _ *uerl.OnlineLearner) func() {
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				// Probe before checking stop so every worker lands at
				// least one call even if the stream drains first.
				for {
					d := serving.Recommend(node, c.End, 100)
					if d.Vetoed {
						probeVetoes.Add(1)
						if d.Action != uerl.ActionNone {
							t.Errorf("vetoed probe decision served %v, want ActionNone", d.Action)
						}
					}
					calls.Add(1)
					select {
					case <-stop:
						return
					default:
					}
				}
			}(w)
		}
		return func() { close(stop); wg.Wait() }
	}

	sum, err := RunCompiled(c)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("probers completed zero Recommend calls — serving blocked")
	}
	if sum.Survival.VetoedDecisions == 0 || sum.Survival.VetoedDuringAttack == 0 {
		t.Fatalf("burst tripped no vetoes (total %d, during attack %d)",
			sum.Survival.VetoedDecisions, sum.Survival.VetoedDuringAttack)
	}
	gs := sum.Learner.Guard
	if gs == nil {
		t.Fatal("guarded run reported no guard stats")
	}
	if got := sum.Lifecycle.EventCounts[string(uerl.LifecycleBudgetTrip)]; got != 1 {
		t.Errorf("audit log has %d budget-trip events, want exactly 1", got)
	}
	if got := sum.Lifecycle.EventCounts[string(uerl.LifecycleBudgetRecover)]; got != 1 {
		t.Errorf("audit log has %d budget-recover events, want exactly 1", got)
	}
	if gs.BudgetRecoveries != 1 {
		t.Errorf("guard counted %d budget recoveries, want exactly 1", gs.BudgetRecoveries)
	}
	if n := gs.VetoesByReason["fleet-mitigation-budget"]; n != gs.SuppressedMitigations {
		t.Errorf("vetoes by reason %v do not attribute all %d suppressions to the fleet budget",
			gs.VetoesByReason, gs.SuppressedMitigations)
	}
	if gs.SuppressedMitigations != sum.Survival.VetoedDecisions {
		t.Errorf("guard suppressed %d but the served stream carried %d vetoes",
			gs.SuppressedMitigations, sum.Survival.VetoedDecisions)
	}
}

// TestRowhammerScenarioRollsBackAlongLineage pins the named adversarial
// scenario's survival arc independent of golden bytes: the quiet-window
// promotion regresses under the UE train and rolls back along the
// lineage chain, and the later shaped trains trip the fleet budget with
// the restored incumbent serving.
func TestRowhammerScenarioRollsBackAlongLineage(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(specDir, "rowhammer.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := runSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := sum.Lifecycle.EventCounts
	if counts[string(uerl.LifecyclePromote)] == 0 {
		t.Fatal("no promotion: the quiet-window candidate never won shadow")
	}
	if counts[string(uerl.LifecycleRollback)] == 0 {
		t.Fatal("no rollback: the regressive promotion survived the UE train")
	}
	if counts[string(uerl.LifecycleBudgetTrip)] == 0 || counts[string(uerl.LifecycleBudgetRecover)] == 0 {
		t.Fatalf("fleet budget never cycled (trips %d, recovers %d)",
			counts[string(uerl.LifecycleBudgetTrip)], counts[string(uerl.LifecycleBudgetRecover)])
	}
	gs := sum.Learner.Guard
	if gs == nil || gs.Rollbacks == 0 {
		t.Fatal("guard stats carry no rollback")
	}
	if gs.VetoesByReason["fleet-mitigation-budget"] == 0 {
		t.Fatal("no fleet-budget vetoes during the burst trains")
	}
	// Rollback landed serving back on the initial incumbent, and the
	// lineage chain the summary reports ends there.
	if !strings.HasPrefix(sum.Lifecycle.ServingVersion, "always.") {
		t.Fatalf("serving ended on %s, want the rolled-back Always incumbent", sum.Lifecycle.ServingVersion)
	}
	if last := sum.Lifecycle.Lineage[len(sum.Lifecycle.Lineage)-1]; last != sum.InitialVersion {
		t.Fatalf("lineage ends at %s, want the initial version %s", last, sum.InitialVersion)
	}
	if sum.Survival.VetoedDuringAttack == 0 {
		t.Fatal("no vetoes inside the attack windows")
	}
}
