package uerl

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/evalx"
)

var (
	sysOnce sync.Once
	sys     *System
)

func testSystem(t *testing.T) *System {
	t.Helper()
	if testing.Short() {
		t.Skip("system integration tests in short mode")
	}
	sysOnce.Do(func() { sys = NewSystem() })
	return sys
}

func TestNewSystemOptions(t *testing.T) {
	var got Config
	NewSystem(
		WithSeed(7),
		WithBudget(BudgetPaper),
		WithBudgetCI(), // later options win
		WithScale(0.01),
		WithMitigationCost(5),
		WithRestartable(false),
		WithSeed(9),
		func(c *Config) { got = *c },
	)
	want := DefaultConfig(BudgetCI)
	want.Seed, want.Scale = 9, 0.01
	want.MitigationCostNodeMinutes, want.Restartable = 5, false
	if got != want {
		t.Fatalf("options applied wrong: got %+v want %+v", got, want)
	}
}

func TestBudgetStringRoundTrip(t *testing.T) {
	for _, b := range []Budget{BudgetCI, BudgetDefault, BudgetPaper} {
		parsed, err := ParseBudget(b.String())
		if err != nil || parsed != b {
			t.Fatalf("budget %v round-trip: parsed %v err %v", b, parsed, err)
		}
	}
	if _, err := ParseBudget("nope"); err == nil {
		t.Fatal("bad budget accepted")
	}
}

func TestNewSystemAndStats(t *testing.T) {
	s := testSystem(t)
	st := s.LogStats()
	if st.FirstUEs == 0 || st.TotalCEs == 0 || st.Nodes == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestEvaluateReport(t *testing.T) {
	s := testSystem(t)
	rep := s.Evaluate()
	if len(rep.Costs) < 6 {
		t.Fatalf("report has %d policies", len(rep.Costs))
	}
	never, ok := rep.Find("Never-mitigate")
	if !ok {
		t.Fatal("missing Never-mitigate")
	}
	oracle, ok := rep.Find("Oracle")
	if !ok {
		t.Fatal("missing Oracle")
	}
	if oracle.TotalNodeHours > never.TotalNodeHours {
		t.Fatalf("Oracle %v worse than Never %v", oracle.TotalNodeHours, never.TotalNodeHours)
	}
	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), "Oracle") {
		t.Fatal("render missing rows")
	}
	if _, ok := rep.Find("nonexistent"); ok {
		t.Fatal("Find returned a bogus policy")
	}
}

func TestEvaluateManufacturer(t *testing.T) {
	s := testSystem(t)
	rep, err := s.EvaluateManufacturer("C")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Costs) == 0 {
		t.Fatal("empty manufacturer report")
	}
	if _, err := s.EvaluateManufacturer("Z"); err == nil {
		t.Fatal("bad manufacturer accepted")
	}
}

func TestEvaluateJobScale(t *testing.T) {
	s := testSystem(t)
	small, err := s.EvaluateJobScale(0.1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := s.EvaluateJobScale(10)
	if err != nil {
		t.Fatal(err)
	}
	ns, _ := small.Find("Never-mitigate")
	nb, _ := big.Find("Never-mitigate")
	if nb.TotalNodeHours <= ns.TotalNodeHours {
		t.Fatalf("job scaling had no effect: %v vs %v", ns.TotalNodeHours, nb.TotalNodeHours)
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := s.EvaluateJobScale(bad); err == nil {
			t.Fatalf("factor %v accepted", bad)
		}
	}
}

// TestSystemSharesWorldArtifacts: a System reads through its World's
// artifact cache, so the forest behind a trained policy is the very
// artifact the world's single-split fit returns, not a retrained copy.
func TestSystemSharesWorldArtifacts(t *testing.T) {
	s := testSystem(t)
	p, err := s.TrainPolicy(PolicySC20RF)
	if err != nil {
		t.Fatal(err)
	}
	rp, ok := p.(*rfPolicy)
	if !ok {
		t.Fatalf("TrainPolicy(%s) returned %T", PolicySC20RF, p)
	}
	w := s.world
	split := evalx.TrainSingleSplit(w.Log, w.Trace, s.cvConfig(), trainFrac)
	if split.Forest != rp.d.Forest {
		t.Fatalf("world fit forest %p is not the policy's forest %p: the system retrained instead of reading the world's cache",
			split.Forest, rp.d.Forest)
	}
}

func TestRunExperimentNames(t *testing.T) {
	s := testSystem(t)
	if err := s.RunExperiment("nope", &strings.Builder{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Run the cheapest experiment end to end through the public API.
	var sb strings.Builder
	if err := s.RunExperiment("calibration", &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "calibration") {
		t.Fatalf("unexpected output: %q", sb.String())
	}
	if len(ExperimentNames()) != 8 {
		t.Fatalf("experiments = %v", ExperimentNames())
	}
}

func TestTrainAgentAndController(t *testing.T) {
	s := testSystem(t)
	policy, err := s.TrainPolicy(PolicyRL)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(policy)

	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	// Feed a healthy node and a degrading node.
	ctl.ObserveEvent(Event{Time: base, Node: 1, Type: NodeBoot, DIMM: -1, Rank: -1, Bank: -1, Row: -1, Col: -1})
	for i := 0; i < 50; i++ {
		ctl.ObserveEvent(Event{
			Time: base.Add(time.Duration(i) * time.Minute),
			Node: 2, DIMM: 16, Type: CorrectedError, Count: 200,
			Rank: 0, Bank: 1, Row: 100 + i, Col: 7,
		})
	}
	ctl.ObserveEvent(Event{Time: base.Add(time.Hour), Node: 2, DIMM: 16, Type: UEWarning,
		Rank: -1, Bank: -1, Row: -1, Col: -1})

	// Recommendations must be callable for both nodes and for an unseen
	// node without panicking; decisions themselves depend on training.
	d := ctl.Recommend(1, base.Add(2*time.Hour), 10)
	if d.Node != 1 || d.Policy == "" || d.ModelVersion == "" || !d.HasQ {
		t.Fatalf("decision missing bookkeeping: %+v", d)
	}
	if d.Features == (Decision{}).Features {
		t.Fatalf("decision carries no feature snapshot: %+v", d)
	}
	_ = ctl.Recommend(2, base.Add(2*time.Hour), 5000)
	_ = ctl.Recommend(99, base, 1)
	if n := ctl.NodeCount(); n != 2 {
		t.Fatalf("tracked %d nodes, want 2 (queries must not create state)", n)
	}
	ctl.Forget(2)
	if n := ctl.NodeCount(); n != 1 {
		t.Fatalf("tracked %d nodes after Forget, want 1", n)
	}
	_ = ctl.Recommend(2, base.Add(3*time.Hour), 1)
}

func TestBudgetMapping(t *testing.T) {
	cfgs := []Config{DefaultConfig(BudgetCI), DefaultConfig(BudgetDefault), DefaultConfig(BudgetPaper)}
	for _, c := range cfgs {
		if c.MitigationCostNodeMinutes != 2 || !c.Restartable {
			t.Fatal("default config wrong")
		}
	}
}
