package features

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/errlog"
)

// refTracker is the test oracle for Tracker: the same Table 1 state, with
// the history kept as time.Time snapshots in a slice, searched with
// sort.Search and compacted with Before.
type refTracker struct {
	started, hasBoot     bool
	start, lastBoot      time.Time
	ces, warnings, boots float64
	spread               [5]map[int]bool // ranks, banks, rows, columns, DIMMs
	history              []refSnapshot
}

type refSnapshot struct {
	t          time.Time
	ces, boots float64
}

func newRefTracker() *refTracker {
	r := &refTracker{}
	for i := range r.spread {
		r.spread[i] = map[int]bool{}
	}
	return r
}

func (r *refTracker) observe(tick errlog.Tick, cost float64) Vector {
	if !r.started {
		r.started, r.start = true, tick.Time
	}
	ceNow := 0.0
	for _, e := range tick.Events {
		switch e.Type {
		case errlog.CE:
			ceNow += float64(e.Count)
			r.ces += float64(e.Count)
			for i, id := range [5]int{e.Rank, e.Bank, e.Row, e.Col, e.DIMM} {
				if id >= 0 {
					r.spread[i][id] = true
				}
			}
		case errlog.UEWarning:
			r.warnings++
		case errlog.Boot:
			r.boots++
			r.lastBoot, r.hasBoot = e.Time, true
		}
	}
	r.history = append(r.history, refSnapshot{t: tick.Time, ces: r.ces, boots: r.boots})
	cutoff := tick.Time.Add(-2 * time.Hour)
	for len(r.history) > 1 && r.history[1].t.Before(cutoff) {
		r.history = r.history[1:]
	}
	return r.vectorAt(tick.Time, ceNow, cost)
}

func (r *refTracker) peek(now time.Time, cost float64) Vector {
	v := r.vectorAt(now, 0, cost)
	if v[HoursSinceBoot] < 0 {
		v[HoursSinceBoot] = 0
	}
	return v
}

func (r *refTracker) vectorAt(t time.Time, ceNow, cost float64) Vector {
	var v Vector
	v[CEsSinceLastEvent] = ceNow
	v[CEsTotal] = r.ces
	for i, idx := range [5]int{RanksWithCEs, BanksWithCEs, RowsWithCEs, ColsWithCEs, DIMMsWithCEs} {
		v[idx] = float64(len(r.spread[i]))
	}
	v[UEWarnings] = r.warnings
	switch {
	case r.hasBoot:
		v[HoursSinceBoot] = t.Sub(r.lastBoot).Hours()
	case r.started:
		v[HoursSinceBoot] = t.Sub(r.start).Hours()
	}
	v[Boots] = r.boots
	for _, w := range []struct {
		ces, boots int
		dt         time.Duration
	}{{CEVar1Min, BootVar1Min, time.Minute}, {CEVar1Hour, BootVar1Hour, time.Hour}} {
		cutoff := t.Add(-w.dt)
		i := sort.Search(len(r.history), func(i int) bool { return r.history[i].t.After(cutoff) }) - 1
		if i < 0 {
			continue
		}
		if then := r.history[i]; then.ces != 0 {
			v[w.ces] = r.ces / then.ces
		}
		if then := r.history[i]; then.boots != 0 {
			v[w.boots] = r.boots / then.boots
		}
	}
	v[UECost] = cost
	return v
}

// refGaps are the tick spacings the random streams draw from: equal
// timestamps, the exact Eq. 2 windows and the compaction horizon with
// their one-nanosecond neighbours, and gaps longer than the horizon.
var refGaps = []time.Duration{
	0, 0, time.Nanosecond, time.Second, 30 * time.Second,
	time.Minute - time.Nanosecond, time.Minute, time.Minute + time.Nanosecond,
	10 * time.Minute, time.Hour - time.Nanosecond, time.Hour, time.Hour + time.Nanosecond,
	2*time.Hour - time.Nanosecond, 2 * time.Hour, 2*time.Hour + time.Nanosecond,
	3 * time.Hour, 30 * time.Hour,
}

// TestTrackerMatchesTimeSearchReference drives random streams — equal
// timestamps, gaps at and beyond the 2 h horizon, boots, warnings and
// Reset — through Tracker and the time.Time oracle, and requires every
// Observe and every Peek (at the tick, at the Eq. 2 window edges, before
// the first tick, at the zero time and far in the future) to return the
// oracle's vector bit for bit.
func TestTrackerMatchesTimeSearchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	same := func(a, b Vector) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for stream := 0; stream < 60; stream++ {
		tr, ref := NewTracker(), newRefTracker()
		at := t0.Add(time.Duration(rng.Int63n(int64(1000 * time.Hour))))
		first := at // the first tick since the last Reset
		for i := 0; i < 400; i++ {
			if i > 0 {
				at = at.Add(refGaps[rng.Intn(len(refGaps))])
			}
			if i > 0 && rng.Intn(150) == 0 {
				tr.Reset()
				ref = newRefTracker()
				first = at
			}
			var events []errlog.Event
			for n := rng.Intn(3); n >= 0; n-- {
				e := errlog.Event{Time: at, Node: 1, Type: errlog.CE, Count: 1 + rng.Intn(9),
					Rank: rng.Intn(5) - 1, Bank: rng.Intn(9) - 1, Row: rng.Intn(40) - 1,
					Col: rng.Intn(20) - 1, DIMM: rng.Intn(4) - 1}
				switch rng.Intn(12) {
				case 0:
					e = errlog.Event{Time: at, Node: 1, Type: errlog.Boot, Count: 1}
				case 1:
					e = errlog.Event{Time: at, Node: 1, Type: errlog.UEWarning, Count: 1}
				}
				events = append(events, e)
			}
			cost := float64(rng.Intn(500))
			tick := errlog.Tick{Time: at, Node: 1, Events: events}
			if got, want := observe(tr, tick, cost), ref.observe(tick, cost); !same(got, want) {
				t.Fatalf("stream %d tick %d at %v: Observe = %v, oracle %v", stream, i, at, got, want)
			}
			probes := []time.Time{
				at, at.Add(time.Minute), at.Add(time.Hour), at.Add(time.Hour + time.Nanosecond),
				at.Add(time.Duration(rng.Int63n(int64(3 * time.Hour)))),
				first.Add(-time.Nanosecond), first.Add(-time.Duration(rng.Int63n(int64(1000 * time.Hour)))),
				// Just inside the range Sub measures before the first
				// tick, so the Eq. 2 cutoffs fall outside it.
				first.Add(math.MinInt64 + 30*time.Minute),
				{}, time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC), at.AddDate(400, 0, 0),
			}
			for _, p := range probes {
				if got, want := peek(tr, p, cost), ref.peek(p, cost); !same(got, want) {
					t.Fatalf("stream %d tick %d at %v: Peek(%v) = %v, oracle %v", stream, i, at, p, got, want)
				}
			}
			if tr.history.size != len(ref.history) {
				t.Fatalf("stream %d tick %d: history holds %d snapshots, oracle %d", stream, i, tr.history.size, len(ref.history))
			}
		}
	}
}
