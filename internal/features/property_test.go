package features

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/errlog"
)

// TestNormalizedAlwaysFinite: whatever raw feature values appear, the
// network inputs are finite and within sane bounds.
func TestNormalizedAlwaysFinite(t *testing.T) {
	f := func(raw [Dim]float64) bool {
		var v Vector
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			v[i] = math.Abs(x)
		}
		var buf [Dim]float64
		n := v.NormalizedInto(buf[:])
		for _, x := range n {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
		// Variations clamp to <= 8; cost saturates.
		return n[CEVar1Hour] <= 8 && n[UECost] <= maxCostFeature+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTrackerMonotoneCumulative: cumulative features never decrease as
// ticks stream in.
func TestTrackerMonotoneCumulative(t *testing.T) {
	f := func(counts []uint8) bool {
		tr := NewTracker()
		base := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
		prevTotal, prevBoots := -1.0, -1.0
		for i, c := range counts {
			at := base.Add(time.Duration(i) * time.Minute)
			ev := errlog.Event{Time: at, Node: 1, DIMM: 1, Type: errlog.CE,
				Count: int(c%50) + 1, Rank: int(c) % 4, Bank: 0, Row: int(c), Col: 0}
			if c%7 == 0 {
				ev = errlog.Event{Time: at, Node: 1, Type: errlog.Boot, Count: 1}
			}
			v := observe(tr, errlog.Tick{Time: at, Node: 1, Events: []errlog.Event{ev}}, 0)
			if v[CEsTotal] < prevTotal || v[Boots] < prevBoots {
				return false
			}
			prevTotal, prevBoots = v[CEsTotal], v[Boots]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestVariationNonNegative: the Eq. 2 ratio is never negative for count
// features (counts only grow).
func TestVariationNonNegative(t *testing.T) {
	tr := NewTracker()
	base := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 300; i++ {
		at := base.Add(time.Duration(i*13) * time.Minute)
		v := observe(tr, errlog.Tick{Time: at, Node: 1, Events: []errlog.Event{{
			Time: at, Node: 1, DIMM: 1, Type: errlog.CE, Count: 1 + i%5,
			Rank: 0, Bank: 0, Row: i, Col: 0,
		}}}, 0)
		for _, idx := range []int{CEVar1Min, CEVar1Hour, BootVar1Min, BootVar1Hour} {
			if v[idx] < 0 {
				t.Fatalf("negative variation at tick %d", i)
			}
		}
		// Cumulative counts grow, so variation over any window is >= 1
		// whenever the denominator was nonzero.
		if v[CEVar1Hour] != 0 && v[CEVar1Hour] < 1 {
			t.Fatalf("variation < 1 at tick %d: %v", i, v[CEVar1Hour])
		}
	}
}
