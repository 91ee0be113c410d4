package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/scenario"
)

// runOnce replays c once through a benchmark stack, traced or not, and
// returns the pass outcome.
func runOnce(t *testing.T, c *scenario.Compiled, traced bool) passOutcome {
	t.Helper()
	rec := &recorder{}
	var (
		tr *traceHooks
		tc *tracer
	)
	if traced {
		tr = newTraceHooks()
		tc = tr.t
	}
	s, err := buildStack(c, rec, tc)
	if err != nil {
		t.Fatal(err)
	}
	defer s.release()
	if traced {
		tr.startPass(c)
	}
	s.feed(c, make([]time.Duration, len(c.Events)), tr)
	out, err := s.outcome(rec, c)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStacksReproduceScenarioRunner pins the timed loop to the program
// the scenario goldens pin: over the committed dimm-aging (single
// process) and worker-loss (fleet) specs, the benchmark's hand-wired
// stacks reproduce scenario.RunCompiled's survival, lifecycle and fleet
// numbers, with tracing off and on.
func TestStacksReproduceScenarioRunner(t *testing.T) {
	for _, name := range []string{"dimm-aging", "worker-loss"} {
		t.Run(name, func(t *testing.T) {
			spec, err := loadSpec("..", name)
			if err != nil {
				t.Fatal(err)
			}
			c, err := scenario.Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scenario.RunCompiled(c)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				got := runOnce(t, c, traced)
				sv := want.Survival
				check := func(what string, g, w any) {
					t.Helper()
					if !reflect.DeepEqual(g, w) {
						t.Errorf("traced=%v %s: benchmark stack %v, scenario runner %v", traced, what, g, w)
					}
				}
				check("lost node-hours", got.Score.LostNodeHours, sv.LostNodeHours)
				check("UE node-hours", got.Score.UENodeHours, sv.UENodeHours)
				check("mitigation node-hours", got.Score.MitigationNodeHours, sv.MitigationNodeHours)
				check("mitigations", got.Score.Mitigations, sv.Mitigations)
				check("vetoed decisions", got.Score.Vetoed, sv.VetoedDecisions)
				check("lifecycle events", got.EventCounts, want.Lifecycle.EventCounts)
				check("generation", got.Generation, want.Lifecycle.FinalGeneration)
				check("serving version", got.ServingVersion, want.Lifecycle.ServingVersion)
				check("epochs", got.Epochs, want.Learner.Epochs)
				check("dropped transitions", got.Dropped, want.Learner.DroppedTransitions)
				if (got.Fleet == nil) != (want.Fleet == nil) {
					t.Fatalf("traced=%v: fleet section %v, runner %v", traced, got.Fleet, want.Fleet)
				}
				if f := want.Fleet; f != nil {
					check("failovers", got.Fleet.Failovers, f.Failovers)
					check("rejoins", got.Fleet.Rejoins, f.Rejoins)
					check("replayed events", got.Fleet.ReplayedEvents, f.ReplayedEvents)
					check("acked events", got.Fleet.AckedEvents, f.AckedEvents)
					check("degraded decisions", got.Score.Degraded, f.DegradedDecisions)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the
// metrics the command prints in step.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	for _, tc := range []struct {
		what string
		decl []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range tc.decl {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, tc.defs) {
			t.Errorf("BENCHMARK.json %s %v, command prints %v", tc.what, got, tc.defs)
		}
	}
}
