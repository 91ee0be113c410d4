package experiments

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/errlog"
	"repro/internal/evalx"
)

// fixedResult builds a deterministic evalx.Result for golden rendering.
func fixedResult(policy string, ue, mit, train float64, m evalx.MLMetrics) evalx.Result {
	return evalx.Result{
		Policy: policy, UECost: ue, MitigationCost: mit, TrainingCost: train,
		Decisions: m.Mitigations + m.NonMitigations,
		UEs:       m.TPs + m.FNs,
		Metrics:   m,
	}
}

// TestFig3RenderGolden pins the exact table layout Fig3Result.Render
// emits. The render paths were previously exercised only through the
// benchmarks, so a formatting regression could land silently.
func TestFig3RenderGolden(t *testing.T) {
	mk := func(scale float64) evalx.CVResult {
		return evalx.CVResult{Totals: []evalx.Result{
			fixedResult("Never-mitigate", 1000.4*scale, 0, 0, evalx.MLMetrics{FNs: 5, NonMitigations: 10, TNs: 5}),
			fixedResult("RL", 420.6*scale, 30.2*scale, 1.5, evalx.MLMetrics{TPs: 3, FNs: 2, FPs: 4, TNs: 1, Mitigations: 7, NonMitigations: 3}),
		}}
	}
	r := Fig3Result{
		MitigationCosts: []float64{2, 10},
		Runs:            []evalx.CVResult{mk(1), mk(2)},
	}
	var sb strings.Builder
	r.Render(&sb)
	want := `Figure 3: total cost (node-hours) = UE cost + mitigation cost, per mitigation cost
approach        total@2nm  ue@2nm  mitig@2nm  total@10nm  ue@10nm  mitig@10nm
Never-mitigate  1000       1000    0          2001        2001     0
RL              452        421     32         903         841      62
`
	if sb.String() != want {
		t.Fatalf("Fig3 render drifted:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// TestTable2RenderGolden pins Table2Result.Render, including the n/a
// precision case and the cost-range rows.
func TestTable2RenderGolden(t *testing.T) {
	r := Table2Result{
		Base: evalx.CVResult{Totals: []evalx.Result{
			fixedResult("Never-mitigate", 900, 0, 0, evalx.MLMetrics{FNs: 8, NonMitigations: 20, TNs: 12}),
			fixedResult("Oracle", 120, 1.4, 0, evalx.MLMetrics{TPs: 5, FNs: 3, Mitigations: 5, NonMitigations: 15, TNs: 15}),
		}},
		CostRanges: []string{"RL, UE cost < 100 nh"},
		RangeResults: []evalx.Result{
			fixedResult("RL, UE cost < 100 nh", 80, 12, 0, evalx.MLMetrics{TPs: 4, FNs: 4, FPs: 36, TNs: 60, Mitigations: 40, NonMitigations: 64}),
		},
	}
	var sb strings.Builder
	r.Render(&sb)
	want := `Table 2: prediction results and classical machine learning metrics
approach              TPs  FNs  FPs  TNs  mitigations  recall  precision
Never-mitigate        0    8    0    12   0 (0%)       0%      n/a
Oracle                5    3    0    15   5 (25%)      62%     100.0000%
RL, UE cost < 100 nh  4    4    36   60   40 (38%)     50%     10.0000%
`
	if sb.String() != want {
		t.Fatalf("Table 2 render drifted:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// TestPartitionMemoized: the cached partition must be the same content as
// an uncached one, and repeated calls must reuse the same log.
func TestPartitionMemoized(t *testing.T) {
	w := testWorld(t)
	a := w.Partition(errlog.Manufacturer(0))
	b := w.Partition(errlog.Manufacturer(0))
	if a != b {
		t.Fatal("partition not memoized")
	}
	fresh := w.Log.PartitionManufacturer(errlog.Manufacturer(0))
	if len(fresh.Events) != len(a.Events) {
		t.Fatalf("memoized partition has %d events, fresh has %d", len(a.Events), len(fresh.Events))
	}
	for i := range fresh.Events {
		if fresh.Events[i] != a.Events[i] {
			t.Fatalf("partition event %d differs", i)
		}
	}
}

// smallScale is a two-split CI world small enough to build several times
// in one test.
var smallScale = Scale{TelemetryScale: 0.02, MinUEs: 12, JobCount: 1200, Parts: 2, Preset: evalx.PresetCI, Seed: 1}

// TestCachedWorldMatchesColdWorld is the cross-figure cache's hard
// correctness bar: a World whose artifact cache is warmed by the whole
// figure suite must render byte-identical tables to cold Worlds that
// recompute everything per figure. Covers the tick pipeline, RF dataset,
// forest, optimal-threshold and sampler caches (Fig. 3 exercises the
// across-mitigation-cost forest sharing; Table 2 exercises
// TrainSingleSplit).
func TestCachedWorldMatchesColdWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("cached-vs-cold equivalence in short mode")
	}

	render := func(w *World) (string, string) {
		var f3, t2 strings.Builder
		RunFig3(w).Render(&f3)
		RunTable2(w).Render(&t2)
		return f3.String(), t2.String()
	}

	warm := BuildWorld(smallScale)
	warmF3, warmT2 := render(warm)

	cold := BuildWorld(smallScale)
	cold.cache = nil
	coldF3, coldT2 := render(cold)

	if warmF3 != coldF3 {
		t.Errorf("Figure 3 differs between cached and cold worlds:\n--- cached ---\n%s--- cold ---\n%s", warmF3, coldF3)
	}
	if warmT2 != coldT2 {
		t.Errorf("Table 2 differs between cached and cold worlds:\n--- cached ---\n%s--- cold ---\n%s", warmT2, coldT2)
	}

	// Re-rendering on the (now fully warm) cached world must also be
	// stable: memoized artifacts feed repeat regenerations.
	againF3, againT2 := render(warm)
	if againF3 != warmF3 || againT2 != warmT2 {
		t.Error("warm re-render differs from first cached render")
	}
}

// TestRunFig3DeterministicAcrossGOMAXPROCS: Fig. 3 runs its cost points
// side by side over one shared cache, and its numbers must not depend on
// how they are scheduled. TrainingCost is wallclock, so it is zeroed
// before rendering, as the goldens do.
func TestRunFig3DeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 3 scheduling determinism in short mode")
	}
	run := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r := RunFig3(BuildWorld(smallScale))
		var results [][]evalx.Result
		for _, cv := range r.Runs {
			for i := range cv.Totals {
				cv.Totals[i].TrainingCost = 0
			}
			results = append(results, cv.Totals)
		}
		return renderExact(r.Render, results...)
	}
	one, four := run(1), run(4)
	if one != four {
		t.Fatalf("Figure 3 differs between GOMAXPROCS 1 and 4:\n--- 1 ---\n%s--- 4 ---\n%s", one, four)
	}
}
