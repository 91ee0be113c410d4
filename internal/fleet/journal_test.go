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
	w := j.Window(1)
	if dup := j.Append(w, ev(1, t0, 5)); dup {
		t.Fatal("first event reported as duplicate")
	}
	// Identical payload redelivered 1s later: inside the window → dropped.
	if dup := j.Append(w, ev(1, t0.Add(time.Second), 5)); !dup {
		t.Fatal("redelivery inside dedup window not deduplicated")
	}
	// Same payload 3s later: outside the window → a legitimate repeat.
	if dup := j.Append(w, ev(1, t0.Add(3*time.Second), 5)); dup {
		t.Fatal("repeat outside dedup window wrongly deduplicated")
	}
	// Different payload inside the window: kept.
	if dup := j.Append(w, ev(1, t0.Add(3*time.Second), 7)); dup {
		t.Fatal("distinct event wrongly deduplicated")
	}
	st := j.Stats()
	if st.Appended != 3 || st.Deduped != 1 {
		t.Fatalf("stats: appended=%d deduped=%d, want 3 1", st.Appended, st.Deduped)
	}
	// Dedup off: the same redelivery is journaled.
	j2 := NewEventJournal(16, 0)
	w2 := j2.Window(1)
	j2.Append(w2, ev(1, t0, 5))
	if dup := j2.Append(w2, ev(1, t0.Add(time.Second), 5)); dup {
		t.Fatal("dedup fired with a zero window")
	}
}

func TestJournalReplayFromAndTrim(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0).UTC()
	j := NewEventJournal(4, 0)
	w := j.Window(9)
	if j.Window(9) != w {
		t.Fatal("Window(9) made a second window for the node")
	}
	for i := 0; i < 6; i++ {
		j.Append(w, ev(9, t0.Add(time.Duration(i)*time.Minute), i+1))
	}
	if got := w.Pushed(); got != 6 {
		t.Fatalf("Pushed = %d, want 6", got)
	}
	if got := w.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	counts := func(evs []uerl.Event) []int {
		var out []int
		for _, e := range evs {
			out = append(out, e.Count)
		}
		return out
	}
	buf := make([]uerl.Event, 0, 4)
	// The four retained events wrap round the window (head at slot 2):
	// a suffix in one piece aliases the window, one that wraps is copied
	// into the caller's buffer.
	for _, tc := range []struct {
		seq    uint64
		want   []int
		copied bool
	}{
		{seq: 5, want: []int{6}},
		{seq: 4, want: []int{5, 6}},
		{seq: 3, want: []int{4, 5, 6}, copied: true},
		{seq: 2, want: []int{3, 4, 5, 6}, copied: true}, // the full retained window
		{seq: 6, want: nil},                             // nothing pending
	} {
		evs, ok := journalSuffix(buf[:0], w, tc.seq)
		if !ok || !reflect.DeepEqual(counts(evs), tc.want) {
			t.Fatalf("journalSuffix(%d) = %v ok=%v, want %v true", tc.seq, counts(evs), ok, tc.want)
		}
		if inBuf := len(evs) > 0 && &evs[0] == &buf[:1][0]; inBuf != tc.copied {
			t.Fatalf("journalSuffix(%d): copied into dst = %v, want %v", tc.seq, inBuf, tc.copied)
		}
	}
	// Catch-up from seq 1 fell off the window.
	if _, ok := journalSuffix(buf[:0], w, 1); ok {
		t.Fatal("journalSuffix(1) claimed coverage past the trimmed range")
	}
	// A new node: empty window, catch-up from zero trivially covered.
	if evs, ok := journalSuffix(buf[:0], j.Window(404), 0); !ok || len(evs) != 0 {
		t.Fatalf("window(new node) = %v ok=%v, want empty true", evs, ok)
	}
}
