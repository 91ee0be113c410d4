package telemetry

import (
	"testing"
	"time"

	"repro/internal/errlog"
	"repro/internal/mathx"
)

// smallConfig returns a fast config for unit tests (~1/20 scale).
func smallConfig() Config {
	return Default().Scale(0.05)
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	cfg2 := cfg
	cfg2.Seed = 2
	c := Generate(cfg2)
	if len(c.Events) == len(a.Events) {
		same := true
		for i := range c.Events {
			if c.Events[i] != a.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical logs")
		}
	}
}

// TestGenerateSizesEventLogOnce: the event log is allocated once, at the
// capacity eventCapacity estimates from the drawn DIMM population, and no
// generator outgrows it — at unit-test scale and at the serving
// benchmark's (240 nodes, four times the CE rate).
func TestGenerateSizesEventLogOnce(t *testing.T) {
	serving := Default()
	serving.Nodes, serving.CEEntriesPerDay = 240, 4*serving.CEEntriesPerDay
	for _, base := range []Config{smallConfig(), serving} {
		for seed := int64(1); seed <= 6; seed++ {
			cfg := base
			cfg.Seed = seed
			root := mathx.NewRNG(cfg.Seed)
			want := eventCapacity(cfg, buildDIMMs(cfg, assignManufacturers(cfg, root.Fork()), root.Fork()))
			if l := Generate(cfg); cap(l.Events) != want {
				t.Errorf("%d nodes, seed %d: %d events in capacity %d, want the estimate %d",
					cfg.Nodes, seed, len(l.Events), cap(l.Events), want)
			}
		}
	}
}

func TestGenerateSorted(t *testing.T) {
	l := Generate(smallConfig())
	for i := 1; i < len(l.Events); i++ {
		if l.Events[i].Time.Before(l.Events[i-1].Time) {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestGenerateWithinPeriod(t *testing.T) {
	cfg := smallConfig()
	l := Generate(cfg)
	end := cfg.Start.Add(cfg.Duration)
	for _, e := range l.Events {
		if e.Time.Before(cfg.Start) || !e.Time.Before(end) {
			t.Fatalf("event outside period: %v", e.Time)
		}
	}
}

func TestGenerateUECalibration(t *testing.T) {
	cfg := smallConfig()
	s := Summarize(Generate(cfg))
	wantFirst := cfg.SignaledUEs + cfg.SuddenUEs
	// Generation can drop a couple of UEs at tiny scale (node reuse).
	if s.FirstUEs < wantFirst-2 || s.FirstUEs > wantFirst+2 {
		t.Fatalf("first UEs = %d, want about %d", s.FirstUEs, wantFirst)
	}
	// Bursts multiply raw UEs by roughly (1 + UEBurstMean).
	if s.UEs < s.FirstUEs {
		t.Fatalf("raw UEs %d < first UEs %d", s.UEs, s.FirstUEs)
	}
	if float64(s.UEs) < 2.0*float64(s.FirstUEs) {
		t.Fatalf("burstiness too low: %d raw vs %d first", s.UEs, s.FirstUEs)
	}
}

func TestGenerateClassImbalance(t *testing.T) {
	s := Summarize(Generate(smallConfig()))
	ratio := float64(s.PostMergeTicks) / float64(s.FirstUEs)
	// The paper's imbalance is 259,270/67 ≈ 3870 (≈3.5 orders of
	// magnitude). Accept a broad band around it.
	if ratio < 800 || ratio > 16000 {
		t.Fatalf("event/UE imbalance %.0f outside plausible band", ratio)
	}
}

func TestGenerateSignalBeforeSignaledUEs(t *testing.T) {
	// A majority of first UEs must have some event on the node within the
	// preceding 24 h (the paper's Always-mitigate recall is 63%), and a
	// meaningful minority must not (25 of 67 UEs are unreachable). Use a
	// larger scale here so the fraction is statistically meaningful.
	cfg := Default().Scale(0.3)
	l := Generate(cfg)
	reduced := errlog.ReduceUEBursts(l, errlog.UEBurstWindow)
	byNode := map[int][]errlog.Event{}
	for _, e := range reduced.Events {
		byNode[e.Node] = append(byNode[e.Node], e)
	}
	withSignal, without := 0, 0
	for _, events := range byNode {
		var lastEvent time.Time
		seenAny := false
		for _, e := range events {
			if e.Type == errlog.UE {
				if seenAny && e.Time.Sub(lastEvent) <= 24*time.Hour {
					withSignal++
				} else {
					without++
				}
			}
			lastEvent = e.Time
			seenAny = true
		}
	}
	total := withSignal + without
	if total == 0 {
		t.Fatal("no UEs generated")
	}
	frac := float64(withSignal) / float64(total)
	if frac < 0.40 || frac > 0.85 {
		t.Fatalf("signaled fraction %.2f outside [0.40, 0.85] (%d/%d)", frac, withSignal, total)
	}
}

func TestGenerateManufacturerMix(t *testing.T) {
	cfg := smallConfig()
	l := Generate(cfg)
	var counts [errlog.NumManufacturers]int
	for _, e := range l.Events {
		counts[e.Manufacturer]++
	}
	for m, c := range counts {
		if c == 0 {
			t.Fatalf("manufacturer %d has no events", m)
		}
	}
	s := Summarize(l)
	totalUE := 0
	for _, c := range s.PerManufacturerUEs {
		totalUE += c
	}
	if totalUE != s.FirstUEs {
		t.Fatalf("per-manufacturer UEs %d != total %d", totalUE, s.FirstUEs)
	}
}

func TestGenerateRetirementsHaveNoPrecedingErrors(t *testing.T) {
	cfg := smallConfig()
	l := Generate(cfg)
	// Retired DIMMs are drawn from the healthy population: they must have
	// at most background-level CE records.
	retired := map[int]bool{}
	for _, e := range l.Events {
		if e.Type == errlog.Retirement {
			retired[e.DIMM] = true
		}
	}
	if len(retired) == 0 {
		t.Fatal("no retirements generated")
	}
	perDIMM := map[int]int{}
	for _, e := range l.Events {
		if e.Type == errlog.CE && retired[e.DIMM] {
			perDIMM[e.DIMM]++
		}
	}
	for d, n := range perDIMM {
		if n > 3 {
			t.Fatalf("retired DIMM %d has %d CE records; should be background only", d, n)
		}
	}
}

func TestScalePreservesImbalance(t *testing.T) {
	full := Default()
	half := full.Scale(0.5)
	if half.Nodes != 1528 {
		t.Fatalf("scaled nodes = %d", half.Nodes)
	}
	if half.SignaledUEs != 20 || half.SuddenUEs+half.SignaledUEs == 0 {
		t.Fatalf("scaled UEs = %d/%d", half.SignaledUEs, half.SuddenUEs)
	}
	// Intensive rates must not change.
	if half.CEEntriesPerDay != full.CEEntriesPerDay {
		t.Fatal("scale changed per-DIMM rate")
	}
}

func TestScalePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Default().Scale(0)
}

func TestConfigValidate(t *testing.T) {
	good := Default()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := Default()
	bad.Nodes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero nodes accepted")
	}
	bad = Default()
	bad.Duration = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero duration accepted")
	}
	bad = Default()
	bad.ManufacturerShares = [3]float64{0, 0, 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero shares accepted")
	}
	bad = Default()
	bad.SignaledUEs, bad.SuddenUEs = 0, 0
	if err := bad.Validate(); err == nil {
		t.Error("zero UEs accepted")
	}
}

func TestFullScaleCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation in short mode")
	}
	s := Summarize(Generate(Default()))
	check := func(name string, got int, lo, hi int) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %d, want in [%d, %d]", name, got, lo, hi)
		}
	}
	// Paper targets: 4.5M CEs, 333 UEs, 67 first UEs, 51 retirements,
	// 259,270 post-merge events, 3056 nodes. Bands are deliberately wide:
	// we calibrate shape, not exact counts.
	check("total CEs", s.TotalCEs, 2_500_000, 8_000_000)
	check("raw UEs", s.UEs, 180, 600)
	check("first UEs", s.FirstUEs, 55, 80)
	check("retirements", s.Retirements, 45, 57)
	check("post-merge ticks", s.PostMergeTicks, 120_000, 500_000)
	check("nodes seen", s.Nodes, 3000, 3056)
}
