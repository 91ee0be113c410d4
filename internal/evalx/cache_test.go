package evalx

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/errlog"
	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// TestRLArtifactCacheHit asserts the cross-figure memoizer's contract: a
// cache hit returns the very artifact computed on the miss, with the §4.3
// cost recorded then, and a cache-backed run produces weights
// byte-identical to a cold (nil-cache) run — so figures rendered warm and
// cold cannot diverge.
func TestRLArtifactCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("RL training integration test in short mode")
	}
	tcfg := telemetry.Default().Scale(0.02)
	jcfg := jobs.Default()
	jcfg.Count = 1000
	log := telemetry.Generate(tcfg)
	trace := jobs.Generate(jcfg)

	cfg := DefaultCVConfig(PresetCI)
	cfg.Parts = 2
	cfg.RLEpisodes = 40 // enough to exercise training, cheap enough for CI

	cold := cfg // Cache == nil: every call trains from scratch
	sCold := TrainSingleSplit(log, trace, cold, 0.5)

	warm := cfg
	warm.Cache = NewCache()
	s1 := TrainSingleSplit(log, trace, warm, 0.5)
	s2 := TrainSingleSplit(log, trace, warm, 0.5)

	// The second warm run must be a hit: the memoizer hands back the same
	// network object, not a retrained copy.
	if s2.Net == nil || s2.Net != s1.Net {
		t.Fatalf("second cached run retrained: net %p vs %p", s2.Net, s1.Net)
	}
	if s2.Forest != s1.Forest {
		t.Fatalf("second cached run retrained the forest: %p vs %p", s2.Forest, s1.Forest)
	}
	if s2.Threshold != s1.Threshold {
		t.Fatalf("cached threshold %v != first run's %v", s2.Threshold, s1.Threshold)
	}

	// Cold and cache-backed training must serialize byte-identically.
	coldJSON, err := json.Marshal(sCold.Net)
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := json.Marshal(s1.Net)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatal("cold-trained and cache-backed networks are not byte-identical")
	}

	// The training environment is part of the RL artifact key: asking the
	// same cache at another mitigation cost must train a distinct artifact,
	// never serve the first run's weights.
	other := cfg
	other.Cache = warm.Cache
	other.Env.MitigationCostNodeMinutes *= 2
	s3 := TrainSingleSplit(log, trace, other, 0.5)
	if s3.Net == s1.Net {
		t.Fatal("request at another mitigation cost served the first run's RL artifact")
	}
	// The forest does not depend on the mitigation cost, so it must still hit.
	if s3.Forest != s1.Forest {
		t.Fatal("forest artifact missed on a cost-only config change")
	}

	// Hits replay the recorded artifacts, wallclock training cost
	// included: a memo that re-timed on a hit would change TrainingCost.
	cv1 := RunCV(log, trace, warm)
	cv2 := RunCV(log, trace, warm)
	if !reflect.DeepEqual(cv1.Totals, cv2.Totals) {
		t.Fatalf("warm RunCV totals differ between runs:\n%+v\n%+v", cv1.Totals, cv2.Totals)
	}
	if warm.Cache.Ticks(log) != warm.Cache.Ticks(log) {
		t.Fatal("second Ticks call rebuilt the tick pipeline")
	}
	if warm.Cache.Sampler(trace) != warm.Cache.Sampler(trace) {
		t.Fatal("second Sampler call rebuilt the sampler")
	}
}

// TestMemoMapConcurrent: goroutines sharing one memo table, on the same
// and on different keys, each see the key's value (run it under -race).
func TestMemoMapConcurrent(t *testing.T) {
	var m memoMap[int, int]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := (g + i) % 4
				if v := m.get(k, func() int { return 10 * k }); v != 10*k {
					t.Errorf("get(%d) = %d, want %d", k, v, 10*k)
				}
			}
		}()
	}
	wg.Wait()
}

// TestMemoMapComputesOnce: concurrent gets of one key run compute once.
// compute blocks until every caller is about to call get, so the others
// arrive while the key is in flight.
func TestMemoMapComputesOnce(t *testing.T) {
	const callers = 16
	var (
		m        memoMap[string, *int]
		computes atomic.Int32
		arrived  sync.WaitGroup
		wg       sync.WaitGroup
	)
	arrived.Add(callers)
	got := make([]*int, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived.Done()
			got[g] = m.get("k", func() *int {
				computes.Add(1)
				arrived.Wait()
				v := 42
				return &v
			})
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for g, v := range got {
		if v != got[0] || *v != 42 {
			t.Fatalf("caller %d got %p (%v), want %p", g, v, v, got[0])
		}
	}
}

// TestMemoMapPanicNotCached: a panicking compute re-raises to its caller
// and leaves the key uncached, so the next get computes it again.
func TestMemoMapPanicNotCached(t *testing.T) {
	var m memoMap[int, int]
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		m.get(1, func() int { panic("boom") })
		t.Fatal("get returned instead of panicking")
	}()
	if v := m.get(1, func() int { return 7 }); v != 7 {
		t.Fatalf("get after a panicked compute = %d, want 7 (recomputed)", v)
	}
	if v := m.get(1, func() int { return 8 }); v != 7 {
		t.Fatalf("get after a successful compute = %d, want the cached 7", v)
	}
}

// TestOraclePointsIndexEquivalence asserts the precomputed oracle index
// serves exactly what the standalone OraclePoints scan computes, for
// unbounded, half-bounded and fully bounded query windows.
func TestOraclePointsIndexEquivalence(t *testing.T) {
	log := telemetry.Generate(telemetry.Default().Scale(0.04))
	art := (*Cache)(nil).Ticks(log)
	first, last := art.Pre.Span()
	span := last.Sub(first)

	windows := []struct {
		name     string
		from, to time.Time
	}{
		{"unbounded", time.Time{}, time.Time{}},
		{"from-only", first.Add(span / 3), time.Time{}},
		{"to-only", time.Time{}, first.Add(2 * span / 3)},
		{"bounded", first.Add(span / 4), first.Add(3 * span / 4)},
		{"empty", first.Add(span / 2), first.Add(span / 2)},
	}
	for _, w := range windows {
		got := art.OraclePoints(w.from, w.to)
		want := OraclePoints(art.ByNode, w.from, w.to)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s window: indexed oracle points (%d) differ from scan (%d)",
				w.name, len(got), len(want))
		}
	}
	// The fixture must actually contain reachable UEs, or the equivalence
	// above is vacuous.
	if len(art.OraclePoints(time.Time{}, time.Time{})) == 0 {
		t.Fatal("fixture has no reachable UEs; oracle index untested")
	}
}

// TestUETimeIndexSortedAcrossNodes: the UE index is collected node by
// node, so UE times from different nodes interleave arbitrarily. The index
// must still come out in time order, and hasUEIn over it must agree with a
// linear scan for windows at, just before and just after every UE.
func TestUETimeIndexSortedAcrossNodes(t *testing.T) {
	// Same-node UEs sit more than errlog.UEBurstWindow apart, so the
	// preprocessing keeps every one.
	day := 24 * time.Hour
	byNodeUEs := [][]time.Duration{{10 * day, 30 * day}, {1 * day, 20 * day}, {5 * day}}
	var log errlog.Log
	var ues []time.Time
	for node, ats := range byNodeUEs {
		for _, at := range ats {
			log.Events = append(log.Events, errlog.Event{Time: t0.Add(at), Node: node, DIMM: 8 * node, Type: errlog.UE, Count: 1})
			ues = append(ues, t0.Add(at))
		}
	}
	art := buildTickArtifacts(&log)

	var nodeMajor []time.Time
	for _, ticks := range art.ByNode {
		for _, tick := range ticks {
			if tick.HasUE() {
				nodeMajor = append(nodeMajor, ueEventTime(tick))
			}
		}
	}
	if slices.IsSortedFunc(nodeMajor, time.Time.Compare) {
		t.Fatalf("fixture's node-major UE order %v is already time order", nodeMajor)
	}
	if len(art.UETimes) != len(ues) || !slices.IsSortedFunc(art.UETimes, time.Time.Compare) {
		t.Fatalf("UETimes = %v, want the %d fixture UEs in time order", art.UETimes, len(ues))
	}

	linear := func(from, to time.Time) bool {
		for _, u := range ues {
			if !u.Before(from) && u.Before(to) {
				return true
			}
		}
		return false
	}
	for _, u := range ues {
		for _, w := range [][2]time.Time{
			{u, u.Add(time.Nanosecond)},
			{u.Add(-time.Hour), u},
			{u.Add(-time.Hour), u.Add(time.Nanosecond)},
			{u.Add(time.Nanosecond), u.Add(time.Hour)},
			{u.Add(-time.Nanosecond), u.Add(time.Nanosecond)},
		} {
			if got, want := hasUEIn(art.UETimes, w[0], w[1]), linear(w[0], w[1]); got != want {
				t.Fatalf("hasUEIn [%v, %v) = %v, linear scan %v", w[0], w[1], got, want)
			}
		}
	}
}
