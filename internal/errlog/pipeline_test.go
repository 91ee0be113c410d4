package errlog

import (
	"slices"
	"testing"
	"time"
)

func TestMergeSameMinute(t *testing.T) {
	l := &Log{Events: []Event{
		ce(1, 0, 1),
		ce(1, 30*time.Second, 2), // same minute, same node -> same tick
		ce(2, 40*time.Second, 3), // different node -> own tick
		ce(1, 61*time.Second, 4), // next minute -> new tick
		boot(1, 90*time.Second),  // same minute as previous -> same tick
	}}
	l.Sort()
	ticks := Merge(l, time.Minute)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(ticks))
	}
	if ticks[0].Node != 1 || len(ticks[0].Events) != 2 || ticks[0].Events[0].Count+ticks[0].Events[1].Count != 3 {
		t.Fatalf("tick 0 = %+v", ticks[0])
	}
	if ticks[1].Node != 2 {
		t.Fatalf("tick 1 node = %d", ticks[1].Node)
	}
	if ticks[2].Node != 1 || len(ticks[2].Events) != 2 {
		t.Fatalf("tick 2 = %+v", ticks[2])
	}
}

func TestMergeOrdersWindowByFirstEvent(t *testing.T) {
	l := &Log{Events: []Event{
		ce(5, 10*time.Second, 1),
		ce(3, 20*time.Second, 1),
		ce(5, 30*time.Second, 1),
		ce(1, 70*time.Second, 1),
	}}
	l.Sort()
	ticks := Merge(l, time.Minute)
	var got []int
	for _, tk := range ticks {
		got = append(got, tk.Node)
	}
	if want := []int{5, 3, 1}; !slices.Equal(got, want) {
		t.Fatalf("tick nodes = %v, want %v (first-event order within a window)", got, want)
	}
	if !ticks[0].Time.Equal(ticks[1].Time) || len(ticks[0].Events) != 2 {
		t.Fatalf("ticks = %+v", ticks)
	}
}

func TestMergeDefaultWindow(t *testing.T) {
	l := &Log{Events: []Event{ce(1, 0, 1), ce(1, 59*time.Second, 1)}}
	l.Sort()
	if got := len(Merge(l, 0)); got != 1 {
		t.Fatalf("default window produced %d ticks, want 1", got)
	}
}

func TestTickHasUE(t *testing.T) {
	tick := Tick{Events: []Event{ce(1, 0, 1), ue(1, 0)}}
	if !tick.HasUE() {
		t.Fatal("HasUE false")
	}
	tick2 := Tick{Events: []Event{ce(1, 0, 1)}}
	if tick2.HasUE() {
		t.Fatal("HasUE true without UE")
	}
}

func TestReduceUEBursts(t *testing.T) {
	l := &Log{Events: []Event{
		ue(1, 0),
		ue(1, 24*time.Hour),    // inside 1-week burst -> dropped
		ue(1, 6*24*time.Hour),  // still inside -> dropped
		ue(1, 8*24*time.Hour),  // outside -> kept, starts new burst
		ue(2, 24*time.Hour),    // different node -> kept
		ce(1, 24*time.Hour, 5), // non-UE untouched
	}}
	l.Sort()
	out := ReduceUEBursts(l, UEBurstWindow)
	if got := out.CountType(UE); got != 3 {
		t.Fatalf("kept %d UEs, want 3", got)
	}
	if got := out.CountType(CE); got != 1 {
		t.Fatal("CE records must be preserved")
	}
}

func TestReduceUEBurstsChainDoesNotExtend(t *testing.T) {
	// The window is measured from the last *kept* UE: a dropped UE must not
	// extend the burst. UE at day 8 is outside the day-0 burst even though
	// a dropped UE happened at day 3.
	l := &Log{Events: []Event{ue(1, 0), ue(1, 3*24*time.Hour), ue(1, 8*24*time.Hour)}}
	l.Sort()
	out := ReduceUEBursts(l, UEBurstWindow)
	if got := out.CountType(UE); got != 2 {
		t.Fatalf("kept %d UEs, want 2 (burst must not chain)", got)
	}
}

func TestFilterRetirementBias(t *testing.T) {
	retire := Event{Time: t0.Add(10 * 24 * time.Hour), Node: 1, DIMM: 8,
		Type: Retirement, Count: 1}
	l := &Log{Events: []Event{
		ce(1, 2*24*time.Hour, 1),  // 8 days before retirement -> dropped
		ce(1, 9*24*time.Hour, 1),  // 1 day before -> dropped
		retire,                    // retirement record itself -> dropped
		ce(1, 11*24*time.Hour, 1), // after retirement -> kept
		ce(2, 9*24*time.Hour, 1),  // other node -> kept
	}}
	l.Sort()
	out := FilterRetirementBias(l, RetirementBiasWindow)
	if len(out.Events) != 3 {
		t.Fatalf("kept %d events, want 3: %v", len(out.Events), out.Events)
	}
	if out.CountType(Retirement) != 0 {
		t.Fatal("retirement record must be removed")
	}
	// The 8-days-before event is outside the 7-day window -> kept.
	found := false
	for _, e := range out.Events {
		if e.Node == 1 && e.Time.Equal(t0.Add(2*24*time.Hour)) {
			found = true
		}
	}
	if !found {
		t.Fatal("event outside bias window was dropped")
	}
}

func TestPreprocessOrder(t *testing.T) {
	// Preprocess must sort, filter retirement bias, then reduce bursts.
	l := &Log{Events: []Event{
		ue(1, 2*time.Hour),
		ue(1, time.Hour), // out of order on purpose
	}}
	out := Preprocess(l)
	if got := out.CountType(UE); got != 1 {
		t.Fatalf("kept %d UEs, want 1", got)
	}
	if !out.Events[0].Time.Equal(t0.Add(time.Hour)) {
		t.Fatal("kept the wrong UE; log was not sorted first")
	}
}

func TestSplitParts(t *testing.T) {
	l := &Log{Events: []Event{ce(1, 0, 1), ce(1, 6*time.Hour, 1)}}
	l.Sort()
	bounds := SplitParts(l, 6)
	if len(bounds) != 7 {
		t.Fatalf("bounds len %d", len(bounds))
	}
	if !bounds[0].Equal(t0) {
		t.Fatal("first bound should be span start")
	}
	if !bounds[6].After(t0.Add(6 * time.Hour)) {
		t.Fatal("last bound must be past the final event")
	}
	// Slicing by consecutive bounds must cover every event exactly once.
	total := 0
	for i := 0; i < 6; i++ {
		for _, e := range l.Events {
			if !e.Time.Before(bounds[i]) && e.Time.Before(bounds[i+1]) {
				total++
			}
		}
	}
	if total != len(l.Events) {
		t.Fatalf("parts cover %d events, want %d", total, len(l.Events))
	}
}
