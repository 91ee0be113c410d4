package errlog

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

// referenceSort is the order Log.Sort must reproduce: a reflective stable
// sort by time, then node, then type.
func referenceSort(ev []Event) {
	sort.SliceStable(ev, func(i, j int) bool {
		a, b := ev[i], ev[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Type < b.Type
	})
}

// sortInstants are few on purpose, so events tie heavily on time; they
// include sub-second steps and a pre-1970 instant (negative Unix seconds).
var sortInstants = []time.Time{
	t0,
	t0.Add(time.Nanosecond),
	t0.Add(999 * time.Millisecond),
	t0.Add(time.Second),
	t0.Add(time.Minute + 500*time.Millisecond),
	time.Date(1969, 12, 31, 23, 59, 59, 250, time.UTC),
}

// sortEvent builds the i-th event of a test log. DIMM and Count carry the
// position, so events equal on (time, node, type) stay distinguishable
// and any loss of stability shows in a deep comparison.
func sortEvent(i, instant, node, typ int) Event {
	return Event{Time: sortInstants[instant%len(sortInstants)], Node: node % 5,
		DIMM: i, Type: EventType(typ % 5), Count: i + 1, Rank: -1, Bank: -1, Row: -1, Col: -1}
}

// checkSortMatchesReference sorts a copy of events with Log.Sort and with
// the reference, and requires identical results, both through the log
// and through a slice taken from it before sorting.
func checkSortMatchesReference(t *testing.T, events []Event) {
	t.Helper()
	want := slices.Clone(events)
	referenceSort(want)
	l := &Log{Events: slices.Clone(events)}
	alias := l.Events[:len(l.Events):len(l.Events)]
	l.Sort()
	if !reflect.DeepEqual(l.Events, want) {
		t.Fatalf("Sort of %d events differs from the stable reference", len(events))
	}
	if !reflect.DeepEqual(alias, want) {
		t.Fatalf("Sort of %d events did not sort in place", len(events))
	}
}

func TestLogSortMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	randomLog := func(n int) []Event {
		ev := make([]Event, n)
		for i := range ev {
			ev[i] = sortEvent(i, rng.Intn(len(sortInstants)), rng.Intn(5), rng.Intn(5))
		}
		return ev
	}
	for iter := 0; iter < 300; iter++ {
		ev := randomLog(rng.Intn(2001))
		checkSortMatchesReference(t, ev)

		sorted := slices.Clone(ev)
		referenceSort(sorted)
		checkSortMatchesReference(t, sorted)

		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		checkSortMatchesReference(t, reversed)

		if len(sorted) > 0 {
			tail := rng.Intn(len(sorted))
			withTail := append(sorted[:len(sorted)-tail:len(sorted)-tail], randomLog(tail)...)
			for i := range withTail {
				withTail[i].DIMM, withTail[i].Count = i, i+1
			}
			checkSortMatchesReference(t, withTail)
		}
	}
}

// FuzzLogSort checks Log.Sort against the stable reference on arbitrary
// logs: each three input bytes choose one event's instant, node and type.
func FuzzLogSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 1, 2, 0, 1, 2, 3, 1, 2, 5, 4, 4, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ev := make([]Event, 0, len(data)/3)
		for i := 0; i+2 < len(data); i += 3 {
			ev = append(ev, sortEvent(len(ev), int(data[i]), int(data[i+1]), int(data[i+2])))
		}
		checkSortMatchesReference(t, ev)
	})
}
