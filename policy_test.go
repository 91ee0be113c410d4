package uerl

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/")

func TestParsePolicyKind(t *testing.T) {
	for _, k := range PolicyKinds() {
		got, err := ParsePolicyKind(string(k))
		if err != nil || got != k {
			t.Fatalf("kind %q round-trip: got %q err %v", k, got, err)
		}
	}
	if _, err := ParsePolicyKind("quantum"); err == nil {
		t.Fatal("bad kind accepted")
	}
}

// TestTrainServeEvaluateAllKinds is the acceptance path of the serving
// redesign: every §4.2 approach trains into a Policy, serves through one
// controller, and scores under EvaluatePolicy's cost model. The scores are
// pinned byte-for-byte by testdata/evaluate_policy.golden; rebuild it with
//
//	go test . -run TestTrainServeEvaluateAllKinds -update
func TestTrainServeEvaluateAllKinds(t *testing.T) {
	s := testSystem(t)
	base := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	costs := map[PolicyKind]PolicyCost{}
	for _, kind := range PolicyKinds() {
		p, err := s.TrainPolicy(kind)
		if err != nil {
			t.Fatalf("TrainPolicy(%s): %v", kind, err)
		}
		if p.Kind() != kind {
			t.Fatalf("TrainPolicy(%s) returned kind %s", kind, p.Kind())
		}
		if p.Name() == "" || p.Version() == "" {
			t.Fatalf("policy %s missing identity: name=%q version=%q", kind, p.Name(), p.Version())
		}

		// Serve it: ingest a degradation storm and query.
		ctl := NewController(p)
		for _, ev := range degradingEvents(3, base, 30) {
			ctl.ObserveEvent(ev)
		}
		d := ctl.Recommend(3, base.Add(time.Hour), 5000)
		if d.Policy != p.Name() || d.ModelVersion != p.Version() {
			t.Fatalf("served decision for %s mislabelled: %+v", kind, d)
		}
		switch kind {
		case PolicyNever:
			if d.Mitigate() {
				t.Fatal("Never mitigated")
			}
		case PolicyAlways:
			if !d.Mitigate() {
				t.Fatal("Always declined")
			}
		}

		cost, err := s.EvaluatePolicy(p)
		if err != nil {
			t.Fatalf("EvaluatePolicy(%s): %v", kind, err)
		}
		costs[kind] = cost
	}

	never, always := costs[PolicyNever], costs[PolicyAlways]
	if never.Mitigations != 0 || never.MitigationNH != 0 {
		t.Fatalf("Never accounted mitigations: %+v", never)
	}
	if always.Mitigations == 0 || always.MitigationNH <= 0 {
		t.Fatalf("Always accounted no mitigations: %+v", always)
	}
	if always.Recall < never.Recall {
		t.Fatalf("Always recall %v below Never recall %v", always.Recall, never.Recall)
	}
	oracle := costs[PolicyOracle]
	if oracle.TotalNodeHours > never.TotalNodeHours || oracle.TotalNodeHours > always.TotalNodeHours {
		t.Fatalf("Oracle (%v nh) worse than a static baseline (Never %v, Always %v)",
			oracle.TotalNodeHours, never.TotalNodeHours, always.TotalNodeHours)
	}

	var sb strings.Builder
	for _, kind := range PolicyKinds() {
		fmt.Fprintf(&sb, "%s %+v\n", kind, costs[kind])
	}
	const golden = "testdata/evaluate_policy.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if sb.String() != string(want) {
		t.Fatalf("EvaluatePolicy costs diverged from %s:\n--- got ---\n%s--- want ---\n%s", golden, sb.String(), want)
	}
}

func TestEvaluatePolicyNil(t *testing.T) {
	s := testSystem(t)
	if _, err := s.EvaluatePolicy(nil); err == nil {
		t.Fatal("nil policy accepted")
	}
}

// fixedCostPolicy is a custom Policy: mitigate whenever the potential UE
// cost exceeds a bound. Exercises the pluggability contract end to end.
type fixedCostPolicy struct{ bound float64 }

func (p *fixedCostPolicy) Kind() PolicyKind { return PolicyKind("custom-cost") }
func (p *fixedCostPolicy) Name() string     { return "CustomCost" }
func (p *fixedCostPolicy) Version() string  { return "custom-cost.v0" }

func (p *fixedCostPolicy) Decide(s Snapshot) Decision {
	act := ActionNone
	if s.Features[FeatureDim-1] > p.bound {
		act = ActionMitigate
	}
	return Decision{Action: act, Score: s.Features[FeatureDim-1] - p.bound}
}

func TestCustomPolicyServesAndEvaluates(t *testing.T) {
	s := testSystem(t)
	p := &fixedCostPolicy{bound: 100}
	ctl := NewController(p)
	at := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	if d := ctl.Recommend(1, at, 500); !d.Mitigate() || d.Policy != "CustomCost" || d.ModelVersion != "custom-cost.v0" {
		t.Fatalf("custom policy decision: %+v", d)
	}
	if d := ctl.Recommend(1, at, 5); d.Mitigate() {
		t.Fatalf("custom policy mitigated under bound: %+v", d)
	}
	cost, err := s.EvaluatePolicy(p)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Policy != "CustomCost" {
		t.Fatalf("evaluated as %q", cost.Policy)
	}
}

func TestTrainPolicyUnknownKind(t *testing.T) {
	s := testSystem(t)
	if _, err := s.TrainPolicy(PolicyKind("quantum")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
