package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	uerl "repro"
	"repro/internal/scenario"
)

// parse registers the command's flags on a fresh flag set and parses args.
func parse(t *testing.T, args ...string) *command {
	t.Helper()
	fs := flag.NewFlagSet("uerlserve", flag.ContinueOnError)
	c := newCommand(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func mustBuild(t *testing.T, c *command) scenario.Spec {
	t.Helper()
	spec, err := c.spec.build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestScenarioGoldensThroughCLI pins the command to the scenario goldens:
// -scenario -json prints each named scenario's committed summary byte for
// byte, and -save writes the model the summary says is serving, with the
// lineage parent the summary records.
func TestScenarioGoldensThroughCLI(t *testing.T) {
	root := filepath.Join("..", "..", "scenarios")
	names, err := filepath.Glob(filepath.Join(root, "*.json"))
	if err != nil || len(names) != 8 {
		t.Fatalf("found %d named scenarios (%v), want 8", len(names), err)
	}
	for _, path := range names {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			saved := filepath.Join(t.TempDir(), "final.json")
			var out bytes.Buffer
			if err := parse(t, "-scenario", path, "-json", "-save", saved).run(&out); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(root, "golden", name+".summary.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("-scenario -json output differs from the golden:\n%s", out.Bytes())
			}

			sum := decodeSummary(t, out.Bytes())
			p, err := uerl.LoadModelFile(saved)
			if err != nil {
				t.Fatal(err)
			}
			lin := sum.Lifecycle.Lineage
			wantParent := ""
			if len(lin) > 1 {
				wantParent = lin[1]
			}
			if p.Version() != lin[0] || uerl.ModelParent(p) != wantParent {
				t.Errorf("saved %s with parent %q, want %s with parent %q (lineage %v)",
					p.Version(), uerl.ModelParent(p), lin[0], wantParent, lin)
			}
		})
	}
}

func decodeSummary(t *testing.T, data []byte) scenario.Summary {
	t.Helper()
	var sum scenario.Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestSpecFlagsDefaults pins what the bare command runs — a 64-node,
// 30-day fleet whose CE rate and burst size grow 6× and whose faulty
// DIMM fraction doubles at day 15, served unguarded by one Controller —
// and that every lifecycle, workload and guard flag left unset leaves
// its spec field zero, so the defaults live in the scenario package.
func TestSpecFlagsDefaults(t *testing.T) {
	spec := mustBuild(t, parse(t))
	if spec.Seed != 1 || spec.Fleet.Nodes != 64 || spec.DurationDays != 30 {
		t.Errorf("default shape: seed %d, %d nodes, %v days", spec.Seed, spec.Fleet.Nodes, spec.DurationDays)
	}
	want := []scenario.DriftPhase{{AtDay: 15, Overlay: scenario.OverlaySpec{CERateMult: 6, CEBurstMult: 6, FaultyFractionMult: 2}}}
	if !reflect.DeepEqual(spec.Drift, want) {
		t.Errorf("drift flags lowered to %+v, want %+v", spec.Drift, want)
	}
	if !reflect.DeepEqual(spec.Workload, scenario.WorkloadSpec{}) {
		t.Errorf("default workload %+v, want the zero spec", spec.Workload)
	}
	if spec.Lifecycle != (scenario.LifecycleSpec{}) || spec.Serving != nil {
		t.Errorf("default lifecycle %+v / serving %+v, want zero", spec.Lifecycle, spec.Serving)
	}
	if g := mustBuild(t, parse(t, "-guard")).Lifecycle.Guard; g == nil || *g != (scenario.GuardSpec{}) {
		t.Errorf("bare -guard lowered to %+v, want the zero guard spec", g)
	}
	if len(mustBuild(t, parse(t, "-drift-day", "0")).Drift) != 0 {
		t.Error("-drift-day 0 still scheduled a drift phase")
	}
}

// TestSpecFlagsFleet pins the fleet lowering: -workers and the worker
// fault lists become a serving section with one time-ordered schedule,
// and -guard lowers to budgets alone, so the spec validates.
func TestSpecFlagsFleet(t *testing.T) {
	spec := mustBuild(t, parse(t, "-workers", "3", "-guard", "-node-budget", "0.5",
		"-kill-worker", "2@7, 1@6", "-rejoin-worker", "1@9"))
	want := &scenario.ServingSpec{Workers: 3, Faults: []scenario.WorkerFaultSpec{
		{Worker: 1, Kind: scenario.WorkerKill, AtDay: 6},
		{Worker: 2, Kind: scenario.WorkerKill, AtDay: 7},
		{Worker: 1, Kind: scenario.WorkerRejoin, AtDay: 9},
	}}
	if !reflect.DeepEqual(spec.Serving, want) {
		t.Errorf("serving section %+v, want %+v", spec.Serving, want)
	}
	if g := spec.Lifecycle.Guard; g == nil || *g != (scenario.GuardSpec{NodeBudgetNodeHours: 0.5}) {
		t.Errorf("guard flags lowered to %+v", g)
	}
}

// TestSpecFlagsGuardKnobs pins the single-process promotion knobs,
// including -probation's negative "disable rollback" value.
func TestSpecFlagsGuardKnobs(t *testing.T) {
	g := mustBuild(t, parse(t, "-guard", "-approve", "deny", "-promotions-per-day", "2",
		"-probation", "-1", "-probation-tolerance", "1.5", "-node-budget-window", "12h")).Lifecycle.Guard
	if g == nil || g.Approve != "deny" || g.PromotionsPerDay != 2 || g.ProbationDecisions != -1 ||
		g.ProbationToleranceNH == nil || *g.ProbationToleranceNH != 1.5 || g.NodeWindowHours != 12 {
		t.Errorf("guard knobs lowered to %+v", g)
	}
}

func TestSpecFlagsRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "2", "-guard", "-approve", "deny"}, "budget enforcement"},
		{[]string{"-kill-worker", "1@3"}, "need -workers"},
		{[]string{"-workers", "2", "-kill-worker", "1-3"}, "id@day"},
		{[]string{"-workers", "2", "-kill-worker", "x@3"}, "id@day"},
		{[]string{"-workers", "2", "-kill-worker", "2@3"}, "outside the 2-worker fleet"},
		{[]string{"-workers", "2", "-kill-worker", "1@40"}, "outside"},
		{[]string{"-workers", "2", "-rejoin-worker", "1@3"}, "not down"},
		{[]string{"-policy", "quantum"}, "initial_policy"},
	} {
		if _, err := parse(t, tc.args...).spec.build(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}
}

// TestScenarioRejectsSpecFlags pins that a spec flag beside -scenario is
// an error rather than silently ignored, while the flags that only shape
// how the spec is served combine with it.
func TestScenarioRejectsSpecFlags(t *testing.T) {
	path := filepath.Join("..", "..", "scenarios", "worker-loss.json")
	err := parse(t, "-scenario", path, "-nodes", "8", "-workers", "2", "-json").run(new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "-nodes -workers") {
		t.Errorf("spec flags beside -scenario: error %v", err)
	}
	spec, err := parse(t, "-scenario", path, "-json", "-save", "final.json").loadSpec()
	if err != nil || spec.Name != "worker-loss" {
		t.Errorf("run flags beside -scenario: spec %q, error %v", spec.Name, err)
	}
}

// TestPrintSpecRoundTrip pins -print-spec as the bridge to -scenario:
// the printed spec decodes back to the spec the flags describe.
func TestPrintSpecRoundTrip(t *testing.T) {
	args := []string{"-workers", "2", "-guard", "-fleet-budget", "4", "-kill-worker", "1@20", "-shadow-ues", "0"}
	var out bytes.Buffer
	if err := parse(t, append(args, "-print-spec")...).run(&out); err != nil {
		t.Fatal(err)
	}
	got, err := scenario.Decode(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if want := mustBuild(t, parse(t, args...)); !reflect.DeepEqual(got, want) {
		t.Errorf("printed spec decodes to %+v, want %+v", got, want)
	}
}
