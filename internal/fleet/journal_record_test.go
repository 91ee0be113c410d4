package fleet_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	uerl "repro"
	"repro/internal/fleet"
	"repro/internal/scenario"
)

// TestJournalRecordRoundTrip pins the journal's encoding as lossless:
// every event of every committed scenario stream, and crafted events at
// the edges of the record — -1 fields, fields and times beyond what a
// record holds (kept whole in the window's side table, and dropped from
// it when their slot is evicted), non-UTC locations (kept whole as well)
// and the zero time — decodes == to the event journaled, Location
// included, both right after it was journaled and from the retained
// window at the end.
func TestJournalRecordRoundTrip(t *testing.T) {
	if fleet.RecordSize > 40 {
		t.Fatalf("journal record is %d bytes, want at most 40", fleet.RecordSize)
	}
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario specs (err %v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := scenario.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		c, err := scenario.Compile(spec)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		checkRoundTrip(t, filepath.Base(f), 256, c.Events, 0)
	}

	t0 := time.Date(2026, 3, 1, 12, 0, 0, 7, time.UTC)
	cet := time.FixedZone("CET", 3600)
	crafted := []struct {
		e    uerl.Event
		wide bool
	}{
		{e: uerl.Event{Time: t0, Node: 1, DIMM: -1, Type: uerl.CorrectedError, Count: -1, Rank: -1, Bank: -1, Row: -1, Col: -1}},
		{e: uerl.Event{Time: t0.Add(time.Second), Node: 1, Type: uerl.UEWarning, DIMM: math.MaxInt32, Count: math.MinInt32}},
		{e: uerl.Event{Time: t0.Add(2 * time.Second), Node: 1, Type: uerl.CorrectedError, Row: math.MaxInt32 + 1}, wide: true},
		{e: uerl.Event{Time: t0.Add(3 * time.Second), Node: 1, Type: uerl.EventType(1 << 40), Count: 1}, wide: true},
		{e: uerl.Event{Time: t0.Add(4 * time.Second).In(cet), Node: 1, Type: uerl.NodeBoot, Count: 3}, wide: true},
		{e: uerl.Event{Time: t0.Add(5 * time.Second).In(time.Local), Node: 1, Type: uerl.CorrectedError, Col: 9}, wide: true},
		{e: uerl.Event{Time: time.Time{}, Node: 2, Type: uerl.UncorrectedError}, wide: true},
		{e: uerl.Event{Time: time.Date(1600, 1, 1, 0, 0, 0, 0, cet), Node: 2, Count: 2}, wide: true},
		{e: uerl.Event{Time: time.Date(2500, 1, 1, 0, 0, 0, 1, time.UTC), Node: 2, Count: 3}, wide: true},
		{e: uerl.Event{Time: time.Unix(0, math.MinInt64+1).UTC(), Node: 2, Bank: math.MinInt32 - 1}, wide: true},
		{e: uerl.Event{Time: t0.Add(6 * time.Second), Node: 1, Type: uerl.CorrectedError, Count: 4}},
		{e: uerl.Event{Time: t0.Add(7 * time.Second), Node: 1, Type: uerl.CorrectedError, Count: 5}},
	}
	var events []uerl.Event
	for _, c := range crafted {
		events = append(events, c.e)
	}
	// Windows of 3: node 1's first four wide events are evicted and it
	// keeps its time.Local one, node 2 keeps its last three, all wide.
	const capacity = 3
	retainedWide := 0
	for node, n := range map[int]int{1: 0, 2: 0} {
		for i := len(crafted) - 1; i >= 0 && n < capacity; i-- {
			if crafted[i].e.Node == node {
				n++
				if crafted[i].wide {
					retainedWide++
				}
			}
		}
	}
	checkRoundTrip(t, "crafted", capacity, events, retainedWide)
	checkRoundTrip(t, "crafted, nothing evicted", len(events), events, 8)
}

// checkRoundTrip journals events into windows of capacity and demands
// every decode equal the journaled event and the side tables hold wide
// events.
func checkRoundTrip(t *testing.T, name string, capacity int, events []uerl.Event, wide int) {
	t.Helper()
	each, windows, gotWide := fleet.JournalRoundTrip(capacity, events)
	for i, e := range events {
		if each[i] != e {
			t.Fatalf("%s: event %d decoded as %+v (%v), journaled %+v (%v)", name, i, each[i], each[i].Time.Location(), e, e.Time.Location())
		}
	}
	retained := map[int][]uerl.Event{}
	for i := len(events) - 1; i >= 0; i-- {
		if n := events[i].Node; len(retained[n]) < capacity {
			retained[n] = append([]uerl.Event{events[i]}, retained[n]...)
		}
	}
	for node, want := range retained {
		got := windows[node]
		if len(got) != len(want) {
			t.Fatalf("%s: node %d retains %d events, want %d", name, node, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: node %d retained event %d decoded as %+v, journaled %+v", name, node, i, got[i], want[i])
			}
		}
	}
	if gotWide != wide {
		t.Fatalf("%s: side tables hold %d events, want %d", name, gotWide, wide)
	}
}
