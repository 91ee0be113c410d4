package fleet

import (
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
	if dup := j.Append(ev(1, t0, 5)); dup {
		t.Fatal("first event reported as duplicate")
	}
	// Identical payload redelivered 1s later: inside the window → dropped.
	if dup := j.Append(ev(1, t0.Add(time.Second), 5)); !dup {
		t.Fatal("redelivery inside dedup window not deduplicated")
	}
	// Same payload 3s later: outside the window → a legitimate repeat.
	if dup := j.Append(ev(1, t0.Add(3*time.Second), 5)); dup {
		t.Fatal("repeat outside dedup window wrongly deduplicated")
	}
	// Different payload inside the window: kept.
	if dup := j.Append(ev(1, t0.Add(3*time.Second), 7)); dup {
		t.Fatal("distinct event wrongly deduplicated")
	}
	st := j.Stats()
	if st.Appended != 3 || st.Deduped != 1 {
		t.Fatalf("stats: appended=%d deduped=%d, want 3 1", st.Appended, st.Deduped)
	}
	// Dedup off: the same redelivery is journaled.
	j2 := NewEventJournal(16, 0)
	j2.Append(ev(1, t0, 5))
	if dup := j2.Append(ev(1, t0.Add(time.Second), 5)); dup {
		t.Fatal("dedup fired with a zero window")
	}
}

func TestJournalReplayFromAndTrim(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0).UTC()
	j := NewEventJournal(4, 0)
	for i := 0; i < 6; i++ {
		j.Append(ev(9, t0.Add(time.Duration(i)*time.Minute), i+1))
	}
	if got := j.Pushed(9); got != 6 {
		t.Fatalf("Pushed = %d, want 6", got)
	}
	if got := j.Trimmed(9); got != 2 {
		t.Fatalf("Trimmed = %d, want 2", got)
	}
	// Catch-up from seq 3 is still covered (oldest retained is seq 2).
	evs, ok := j.AppendFrom(nil, 9, 3)
	if !ok || len(evs) != 3 || evs[0].Count != 4 {
		t.Fatalf("AppendFrom(3) = %d events ok=%v first count=%d, want 3 true 4", len(evs), ok, evs[0].Count)
	}
	// Catch-up from seq 1 fell off the window.
	if _, ok := j.AppendFrom(nil, 9, 1); ok {
		t.Fatal("AppendFrom(1) claimed coverage past the trimmed range")
	}
	// The full retained window starts at the trimmed count.
	w, ok := j.AppendFrom(nil, 9, j.Trimmed(9))
	if !ok || len(w) != 4 || w[0].Count != 3 || w[3].Count != 6 {
		t.Fatalf("window = %d events ok=%v, want 4 [3..6] true", len(w), ok)
	}
	// The suffix lands after whatever dst already holds.
	if out, ok := j.AppendFrom(w[:1], 9, 5); !ok || len(out) != 2 || out[0].Count != 3 || out[1].Count != 6 {
		t.Fatalf("AppendFrom(prefix, 5) = %v ok=%v, want [3 6] true", out, ok)
	}
	// Unknown nodes: empty window, catch-up from zero trivially covered.
	if w, ok := j.AppendFrom(nil, 404, j.Trimmed(404)); !ok || len(w) != 0 {
		t.Fatalf("window(unknown) = %v ok=%v, want empty true", w, ok)
	}
}
