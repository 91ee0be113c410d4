package fleet

import (
	"reflect"
	"testing"
	"time"

	uerl "repro"
)

func ev(node int, at time.Time, count int) uerl.Event {
	return uerl.Event{
		Time: at, Node: node, DIMM: 0, Type: uerl.CorrectedError,
		Count: count, Rank: 1, Bank: 2, Row: 3, Col: 4,
	}
}

func TestJournalDedupWindow(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0).UTC()
	j := NewEventJournal(16, 2*time.Second)
	w := j.newWindow()
	appendEv := func(e uerl.Event) bool { return j.Append(&w, &e) }
	if dup := appendEv(ev(1, t0, 5)); dup {
		t.Fatal("first event reported as duplicate")
	}
	// Identical payload redelivered 1s later: inside the window → dropped.
	if dup := appendEv(ev(1, t0.Add(time.Second), 5)); !dup {
		t.Fatal("redelivery inside dedup window not deduplicated")
	}
	// Same payload 3s later: outside the window → a legitimate repeat.
	if dup := appendEv(ev(1, t0.Add(3*time.Second), 5)); dup {
		t.Fatal("repeat outside dedup window wrongly deduplicated")
	}
	// Different payload inside the window: kept.
	if dup := appendEv(ev(1, t0.Add(3*time.Second), 7)); dup {
		t.Fatal("distinct event wrongly deduplicated")
	}
	// A wide redelivery compares as the event it holds: the same count
	// beyond int32 is a duplicate, one that truncates alike is not.
	if dup := appendEv(ev(1, t0.Add(4*time.Second), 1<<40)); dup {
		t.Fatal("first wide event reported as duplicate")
	}
	if dup := appendEv(ev(1, t0.Add(5*time.Second), 1<<40)); !dup {
		t.Fatal("wide redelivery inside dedup window not deduplicated")
	}
	if dup := appendEv(ev(1, t0.Add(5*time.Second), 2<<40)); dup {
		t.Fatal("wide event wrongly deduplicated against one truncating alike")
	}
	if got := w.ring.Pushed(); got != 5 || j.deduped != 2 {
		t.Fatalf("appended=%d deduped=%d, want 5 2", got, j.deduped)
	}
	// Dedup off: the same redelivery is journaled.
	j2 := NewEventJournal(16, 0)
	w2 := j2.newWindow()
	e := ev(1, t0, 5)
	j2.Append(&w2, &e)
	e.Time = t0.Add(time.Second)
	if dup := j2.Append(&w2, &e); dup {
		t.Fatal("dedup fired with a zero window")
	}
}

func TestJournalReplayFromAndTrim(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0).UTC()
	j := NewEventJournal(4, 0)
	w := j.newWindow()
	for i := 0; i < 6; i++ {
		e := ev(9, t0.Add(time.Duration(i)*time.Minute), i+1)
		j.Append(&w, &e)
	}
	if got := w.ring.Pushed(); got != 6 {
		t.Fatalf("Pushed = %d, want 6", got)
	}
	if got := w.ring.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	counts := func(evs []uerl.Event) []int {
		var out []int
		for _, e := range evs {
			if want := ev(9, t0.Add(time.Duration(e.Count-1)*time.Minute), e.Count); e != want {
				t.Fatalf("decoded %+v, journaled %+v", e, want)
			}
			out = append(out, e.Count)
		}
		return out
	}
	buf := make([]uerl.Event, 0, 4)
	// The four retained events wrap round the window (head at slot 2);
	// every suffix, in one piece or not, is decoded into the caller's
	// buffer, and one ending before the newest event leaves it out.
	for _, tc := range []struct {
		from, to uint64
		want     []int
	}{
		{from: 5, to: 6, want: []int{6}},
		{from: 4, to: 6, want: []int{5, 6}},
		{from: 3, to: 6, want: []int{4, 5, 6}},
		{from: 2, to: 6, want: []int{3, 4, 5, 6}}, // the full retained window
		{from: 2, to: 5, want: []int{3, 4, 5}},    // a tick's suffix: the newest travels apart
		{from: 5, to: 5, want: nil},               // a steady tick: nothing before it
		{from: 6, to: 6, want: nil},               // nothing pending
	} {
		evs := w.suffix(buf[:0], 9, tc.from, tc.to)
		if !reflect.DeepEqual(counts(evs), tc.want) {
			t.Fatalf("suffix(%d, %d) = %v, want %v", tc.from, tc.to, counts(evs), tc.want)
		}
		if len(evs) > 0 && &evs[0] != &buf[:1][0] {
			t.Fatalf("suffix(%d, %d) was not decoded into the caller's buffer", tc.from, tc.to)
		}
	}
	// A new node: empty window, catch-up from zero trivially covered.
	empty := j.newWindow()
	if evs := empty.suffix(buf[:0], 404, 0, 0); len(evs) != 0 {
		t.Fatalf("suffix of a new node's window = %v, want empty", evs)
	}
}
