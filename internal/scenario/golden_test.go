package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the scenario golden summaries")

const (
	specDir   = "../../scenarios"
	goldenDir = "../../scenarios/golden"
)

// runSpec compiles spec and runs it, as cmd/uerlserve does.
func runSpec(spec Spec) (Summary, error) {
	c, err := Compile(spec)
	if err != nil {
		return Summary{}, err
	}
	return RunCompiled(c)
}

// namedSpecs loads every named scenario spec under scenarios/.
func namedSpecs(t *testing.T) map[string]Spec {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(specDir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario specs under %s (err %v)", specDir, err)
	}
	out := map[string]Spec{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		// Named specs are kept canonical so diffs stay meaningful.
		enc, err := Encode(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, data) {
			if *update {
				if err := os.WriteFile(f, enc, 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				t.Errorf("%s is not canonically encoded; run with -update", f)
			}
		}
		name := strings.TrimSuffix(filepath.Base(f), ".json")
		if spec.Name != name {
			t.Fatalf("%s: spec name %q does not match the file name", f, spec.Name)
		}
		out[name] = spec
	}
	return out
}

// TestScenarioGoldens runs every named scenario and compares its summary
// byte-for-byte against the checked-in golden. Rebuild goldens with
//
//	go test ./internal/scenario -run TestScenarioGoldens -update
func TestScenarioGoldens(t *testing.T) {
	for name, spec := range namedSpecs(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sum, err := runSpec(spec)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if sum.Survival.ContractViolations != 0 {
				t.Fatalf("graceful-degradation contract violated %d times", sum.Survival.ContractViolations)
			}
			got, err := EncodeSummary(sum)
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join(goldenDir, name+".summary.json")
			if *update {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", golden)
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("summary diverged from %s; run with -update if intended.\n--- got ---\n%s--- want ---\n%s",
					golden, got, want)
			}
		})
	}
}

// TestScenarioDeterminism proves byte-identical summaries across repeated
// runs and across GOMAXPROCS settings, on a scenario exercising every
// injection primitive — the property the goldens stand on.
func TestScenarioDeterminism(t *testing.T) {
	spec := validSpec()
	spec.Name = "determinism-probe"
	spec.Drift = []DriftPhase{{AtDay: 4, Overlay: OverlaySpec{CERateMult: 5}}}
	spec.Faults = []FaultSpec{
		{Kind: FaultBurst, StartDay: 6, UEs: 6, Trains: 2, TrainGapHours: 4, CEPrefix: 12},
		{Kind: FaultRamp, StartDay: 1, EndDay: 3, RateMult: 4},
		{Kind: FaultBlackout, StartDay: 5, EndDay: 5.5, FirstNode: 0, Nodes: 4},
		{Kind: FaultDelay, StartDay: 7, EndDay: 8, DelayMinutes: 20},
		{Kind: FaultDuplicate, StartDay: 8.5, EndDay: 9, Fraction: 0.4},
	}
	ues := 0
	spec.Lifecycle = LifecycleSpec{
		ShadowUEs: &ues,
		Guard:     &GuardSpec{FleetMitigations: 48, ProbationDecisions: 512},
	}

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
		t.Fatal("summary differs across identical runs")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if single := run(); !bytes.Equal(first, single) {
		t.Fatal("summary differs under GOMAXPROCS=1")
	}
}
