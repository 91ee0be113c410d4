package features

import (
	"math"
	"testing"
	"time"

	"repro/internal/errlog"
)

var t0 = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)

func tick(at time.Duration, events ...errlog.Event) errlog.Tick {
	for i := range events {
		events[i].Time = t0.Add(at)
	}
	return errlog.Tick{Time: t0.Add(at), Node: 1, Events: events}
}

func ceEvent(count, rank, bank, row, col, dimm int) errlog.Event {
	return errlog.Event{Type: errlog.CE, Count: count, Rank: rank, Bank: bank,
		Row: row, Col: col, DIMM: dimm}
}

func TestObserveCECounts(t *testing.T) {
	tr := NewTracker()
	v := observe(tr, tick(0, ceEvent(5, 0, 1, 10, 20, 3)), 0)
	if v[CEsSinceLastEvent] != 5 || v[CEsTotal] != 5 {
		t.Fatalf("first tick: %v", v)
	}
	v = observe(tr, tick(time.Hour, ceEvent(3, 0, 2, 11, 20, 3)), 0)
	if v[CEsSinceLastEvent] != 3 {
		t.Fatalf("CEs since last event = %v, want 3", v[CEsSinceLastEvent])
	}
	if v[CEsTotal] != 8 {
		t.Fatalf("CEs total = %v, want 8", v[CEsTotal])
	}
}

func TestObserveSpatialSpread(t *testing.T) {
	tr := NewTracker()
	observe(tr, tick(0, ceEvent(1, 0, 1, 10, 20, 3)), 0)
	v := observe(tr, tick(time.Minute,
		ceEvent(1, 0, 2, 11, 20, 3), // new bank, new row, same rank/col/DIMM
		ceEvent(1, 1, 1, 10, 21, 4), // new rank, new col, new DIMM
	), 0)
	if v[RanksWithCEs] != 2 || v[BanksWithCEs] != 2 || v[RowsWithCEs] != 2 ||
		v[ColsWithCEs] != 2 || v[DIMMsWithCEs] != 2 {
		t.Fatalf("spread wrong: %v", v)
	}
}

func TestObserveWarningsAndBoots(t *testing.T) {
	tr := NewTracker()
	boot := errlog.Event{Type: errlog.Boot}
	warn := errlog.Event{Type: errlog.UEWarning}
	observe(tr, tick(0, boot), 0)
	v := observe(tr, tick(2*time.Hour, warn), 0)
	if v[UEWarnings] != 1 || v[Boots] != 1 {
		t.Fatalf("warn/boot counts: %v", v)
	}
	if math.Abs(v[HoursSinceBoot]-2) > 1e-9 {
		t.Fatalf("hours since boot = %v, want 2", v[HoursSinceBoot])
	}
}

func TestVariationEq2(t *testing.T) {
	tr := NewTracker()
	// 10 CEs at t=0, 30 more at t=1h. At the second tick, CEsTotal=40 and
	// the value one hour earlier was 10 -> variation over 1h = 4.
	observe(tr, tick(0, ceEvent(10, 0, 0, 0, 0, 0)), 0)
	v := observe(tr, tick(time.Hour, ceEvent(30, 0, 0, 0, 0, 0)), 0)
	if math.Abs(v[CEVar1Hour]-4) > 1e-9 {
		t.Fatalf("CE 1h variation = %v, want 4", v[CEVar1Hour])
	}
	// No snapshot one minute back at exactly t=1h except t=0? t-1min =
	// 59min; latest snapshot at or before is t=0 with 10 CEs -> 4.
	if math.Abs(v[CEVar1Min]-4) > 1e-9 {
		t.Fatalf("CE 1min variation = %v, want 4", v[CEVar1Min])
	}
}

func TestVariationZeroDenominator(t *testing.T) {
	tr := NewTracker()
	// First tick: no history before it -> variation 0 (paper: set to zero
	// when the denominator is zero).
	v := observe(tr, tick(0, ceEvent(10, 0, 0, 0, 0, 0)), 0)
	if v[CEVar1Min] != 0 || v[CEVar1Hour] != 0 {
		t.Fatalf("first-tick variation should be 0: %v", v)
	}
	// Snapshot exists but its value is zero (only a boot, no CEs).
	tr2 := NewTracker()
	observe(tr2, tick(0, errlog.Event{Type: errlog.Boot}), 0)
	v = observe(tr2, tick(2*time.Hour, ceEvent(5, 0, 0, 0, 0, 0)), 0)
	if v[CEVar1Hour] != 0 {
		t.Fatalf("zero-denominator variation should be 0, got %v", v[CEVar1Hour])
	}
}

func TestUECostPassthrough(t *testing.T) {
	tr := NewTracker()
	v := observe(tr, tick(0), 1234.5)
	if v[UECost] != 1234.5 {
		t.Fatalf("UE cost = %v", v[UECost])
	}
}

func TestNormalized(t *testing.T) {
	var v Vector
	v[CEsTotal] = math.E - 1 // log1p -> 1
	v[CEVar1Hour] = 100      // clamps to 8
	v[UECost] = 0
	var buf [Dim]float64
	n := v.NormalizedInto(buf[:])
	if math.Abs(n[CEsTotal]-1) > 1e-9 {
		t.Fatalf("log1p normalization wrong: %v", n[CEsTotal])
	}
	if n[CEVar1Hour] != 8 {
		t.Fatalf("variation clamp wrong: %v", n[CEVar1Hour])
	}
	if n[UECost] != 0 {
		t.Fatalf("zero cost should normalize to 0: %v", n[UECost])
	}
	if len(n) != Dim {
		t.Fatalf("normalized dim %d", len(n))
	}
}

func TestPredictorExcludesCost(t *testing.T) {
	var v Vector
	v[UECost] = 99
	p := v.Predictor()
	if len(p) != PredictorDim {
		t.Fatalf("predictor dim %d", len(p))
	}
	for _, x := range p {
		if x == 99 {
			t.Fatal("predictor features leak UE cost")
		}
	}
}

func TestResetAndLast(t *testing.T) {
	tr := NewTracker()
	if v := observe(tr, tick(0, ceEvent(5, 0, 0, 0, 0, 0)), 7); v[CEsTotal] != 5 {
		t.Fatal("Observe returned the wrong vector")
	}
	tr.Reset()
	v := observe(tr, tick(time.Hour), 0)
	if v[CEsTotal] != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestCompactHistoryPreservesVariation(t *testing.T) {
	tr := NewTracker()
	observe(tr, tick(0, ceEvent(10, 0, 0, 0, 0, 0)), 0)
	for i := 1; i <= 48; i++ {
		observe(tr, tick(time.Duration(i)*time.Hour, ceEvent(1, 0, 0, 0, 0, 0)), 0)
	}
	// Observe compacts on every tick; variation over 1 hour needs only the
	// last 2 hours of history.
	v := observe(tr, tick(49*time.Hour, ceEvent(58, 0, 0, 0, 0, 0)), 0)
	// CEsTotal = 10+48+58 = 116; value 1h before = 10+48 = 58 -> ratio 2.
	if math.Abs(v[CEVar1Hour]-2) > 1e-9 {
		t.Fatalf("variation after compaction = %v, want 2", v[CEVar1Hour])
	}
	if tr.history.size > 10 {
		t.Fatalf("history not compacted: %d entries", tr.history.size)
	}
}

func TestResetReusesStorage(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < 200; i++ {
		observe(tr, tick(time.Duration(i)*time.Minute,
			ceEvent(1, i%4, i%16, i*7%4096, i%1024, i%8)), 0)
	}
	// Warm up one reset so lazily grown buffers exist, then resets must not
	// allocate: Reset runs once per node per training episode.
	tr.Reset()
	allocs := testing.AllocsPerRun(20, tr.Reset)
	if allocs != 0 {
		t.Fatalf("Reset allocates %v times per run, want 0", allocs)
	}
	v := observe(tr, tick(time.Hour), 0)
	for i := 0; i < UECost; i++ {
		if v[i] != 0 {
			t.Fatalf("state leaked through Reset: feature %d = %v", i, v[i])
		}
	}
}

func TestObserveZeroAllocSteadyState(t *testing.T) {
	tr := NewTracker()
	tk := tick(0, ceEvent(3, 1, 3, 900, 12, 8))
	at := time.Duration(0)
	advance := func() {
		at += time.Minute
		tk.Time = t0.Add(at)
		tk.Events[0].Time = tk.Time
	}
	// Warm up the ring and bitsets.
	for i := 0; i < 300; i++ {
		advance()
		observe(tr, tk, 100)
	}
	allocs := testing.AllocsPerRun(200, func() {
		advance()
		observe(tr, tk, 100)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Observe allocates %v times per run, want 0", allocs)
	}
}

func TestSpreadSetOverflow(t *testing.T) {
	tr := NewTracker()
	// Rows far beyond the bitset range must still count distinctly.
	v := observe(tr, tick(0,
		ceEvent(1, 0, 0, maxSpreadBits+5, 0, 0),
		ceEvent(1, 0, 0, maxSpreadBits+9, 0, 0),
		ceEvent(1, 0, 0, maxSpreadBits+5, 0, 0),
		ceEvent(1, 0, 0, 3, 0, 0),
	), 0)
	if v[RowsWithCEs] != 3 {
		t.Fatalf("overflow rows counted %v, want 3", v[RowsWithCEs])
	}
	tr.Reset()
	v = observe(tr, tick(time.Minute, ceEvent(1, 0, 0, maxSpreadBits+5, 0, 0)), 0)
	if v[RowsWithCEs] != 1 {
		t.Fatalf("overflow rows after reset counted %v, want 1", v[RowsWithCEs])
	}
}

// TestNormalizedIntoMatchesNormalized checks NormalizedInto against the
// documented normalization, computed here with math.Log1p, and that it
// fills exactly out[:Dim] of a longer, dirty buffer.
func TestNormalizedIntoMatchesNormalized(t *testing.T) {
	var v Vector
	for i := range v {
		v[i] = float64(i*i) * 1.7
	}
	v[UECost] = 1e6 // saturates
	buf := make([]float64, Dim+3)
	for i := range buf {
		buf[i] = -1
	}
	got := v.NormalizedInto(buf)
	if len(got) != Dim || &got[0] != &buf[0] || buf[Dim] != -1 {
		t.Fatalf("NormalizedInto returned len %d, want out[:%d] with the tail untouched", len(got), Dim)
	}
	for i, x := range v {
		var want float64
		switch i {
		case CEVar1Min, CEVar1Hour, BootVar1Min, BootVar1Hour:
			want = math.Min(math.Max(x, 0), 8)
		case UECost:
			want = math.Min(math.Log1p(x), maxCostFeature)
		default:
			want = math.Log1p(x)
		}
		if got[i] != want {
			t.Fatalf("NormalizedInto[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestHoursSinceBootBeforeFirstBoot(t *testing.T) {
	tr := NewTracker()
	observe(tr, tick(0, ceEvent(1, 0, 0, 0, 0, 0)), 0)
	v := observe(tr, tick(3*time.Hour, ceEvent(1, 0, 0, 0, 0, 0)), 0)
	// With no boot seen, fall back to time since start of observation.
	if math.Abs(v[HoursSinceBoot]-3) > 1e-9 {
		t.Fatalf("fallback hours since boot = %v, want 3", v[HoursSinceBoot])
	}
}

// TestLog1pCountMatchesLog1p pins the count table: log1pCount must return
// math.Log1p's exact bits for every input, table hits and misses alike.
func TestLog1pCountMatchesLog1p(t *testing.T) {
	xs := []float64{math.Copysign(0, -1), 1023.5, 1024, -1, -0.5, -2, -1023,
		0.25, 1e-300, 1e300, math.NaN(), math.Inf(1), math.Inf(-1)}
	for n := 0; n <= 2048; n++ {
		xs = append(xs, float64(n))
	}
	for _, x := range xs {
		got, want := log1pCount(x), math.Log1p(x)
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Errorf("log1pCount(%v) = %v, want NaN", x, got)
			}
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("log1pCount(%v) = %v (%#x), want %v (%#x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// observe is Tracker.Observe returning the filled vector.
func observe(tr *Tracker, tick errlog.Tick, ueCost float64) Vector {
	var v Vector
	tr.Observe(tick, ueCost, &v)
	return v
}

// peek is Tracker.Peek returning the filled vector.
func peek(tr *Tracker, now time.Time, ueCost float64) Vector {
	var v Vector
	tr.Peek(now, ueCost, &v)
	return v
}
