package fleet

import (
	"math"
	"time"

	uerl "repro"
	"repro/internal/lifecycle"
)

// EventJournal keeps a bounded per-node window of recent telemetry — the
// coordinator's replay source for rebuilding tracker state on a new owner
// after a failover, and for catching a recovered worker up on deliveries
// it missed. Every event is journaled before delivery is attempted, so an
// event the coordinator accepted is never lost to a worker fault while it
// is still inside the window; events that age out of the window before a
// rebuild needs them are counted and surface as Decision.StaleEvents.
//
// The windows themselves live in the coordinator's node ledger
// (nodeState), one by value per node, so the journal holds only what all
// windows share: their capacity, the dedup window and the dedup count. A
// window stores each event as a pointer-free 40-byte record (see record),
// which the garbage collector never scans.
//
// An optional dedup window absorbs duplicated delivery from flapping
// collectors: an event identical to a journaled one (same node, type,
// location and count) within the window is dropped before it can
// double-count into feature state. Zero disables dedup — per-node CE
// records are cumulative and legitimately repeat outside flapping
// scenarios, so dedup is an opt-in for deployments whose collectors
// actually redeliver.
type EventJournal struct {
	capacity int
	window   time.Duration
	deduped  uint64
}

// NewEventJournal creates a journal retaining up to capacity events per
// node, deduplicating redeliveries within dedupWindow (0 = off).
func NewEventJournal(capacity int, dedupWindow time.Duration) *EventJournal {
	if capacity <= 0 {
		panic("fleet: journal capacity must be positive")
	}
	return &EventJournal{capacity: capacity, window: dedupWindow}
}

// record is one journaled event without its node, which the window
// implies: the UTC time in Unix nanoseconds, and the other fields as
// int32. An event a record cannot hold exactly — a field outside int32,
// a time outside int64 nanoseconds, or a time in a location other than
// UTC (no committed telemetry source stamps one) — is flagged wide and
// kept whole in its window's side table. Decoding is lossless except for
// a monotonic clock reading, which no record keeps, as no wire format
// would.
type record struct {
	unix                                   int64
	typ, dimm, count, rank, bank, row, col int32
	wide                                   bool
}

// minUnixSec and maxUnixSec bound the seconds whose times fit int64 Unix
// nanoseconds at any nanosecond offset.
const minUnixSec, maxUnixSec = -9223372036, 9223372035

// journalWindow is one node's journal window: a drop-oldest ring of
// records, and the side table of its wide events keyed by sequence
// number (nil until the first wide event). The ring's Pushed count is
// the sequence number the node's next journaled event gets (dedup drops
// excluded), and its Dropped count how many of the node's events have
// aged out of the window and can no longer be replayed.
type journalWindow struct {
	ring lifecycle.Ring[record]
	wide map[uint64]uerl.Event
}

// newWindow returns an empty window with the journal's capacity.
func (j *EventJournal) newWindow() journalWindow {
	return journalWindow{ring: *lifecycle.NewRing[record](j.capacity)}
}

// narrow reports whether v fits an int32 field.
func narrow(v int) bool { return int(int32(v)) == v }

// encode packs e into a record, flagging it wide when it does not fit.
//
//uerl:hotpath
func encode(e *uerl.Event) record {
	sec := e.Time.Unix()
	return record{
		unix: e.Time.UnixNano(), typ: int32(e.Type), dimm: int32(e.DIMM), count: int32(e.Count),
		rank: int32(e.Rank), bank: int32(e.Bank), row: int32(e.Row), col: int32(e.Col),
		wide: sec < minUnixSec || sec > maxUnixSec || e.Time.Location() != time.UTC ||
			!narrow(int(e.Type)) || !narrow(e.DIMM) || !narrow(e.Count) ||
			!narrow(e.Rank) || !narrow(e.Bank) || !narrow(e.Row) || !narrow(e.Col),
	}
}

// decode returns the event of node that record r, sequence number seq of
// window w, holds.
//
//uerl:hotpath
func (w *journalWindow) decode(node int, seq uint64, r *record) uerl.Event {
	if r.wide {
		return w.wide[seq]
	}
	return uerl.Event{
		Time: time.Unix(0, r.unix).UTC(), Node: node, Type: uerl.EventType(r.typ),
		DIMM: int(r.dimm), Count: int(r.count), Rank: int(r.rank), Bank: int(r.bank), Row: int(r.row), Col: int(r.col),
	}
}

// sameDelivery reports whether record b looks like a redelivery of a:
// identical in everything but the (collector-stamped, possibly
// re-stamped) time. Neither may be wide.
func sameDelivery(a, b *record) bool {
	return a.typ == b.typ && a.dimm == b.dimm && a.count == b.count &&
		a.rank == b.rank && a.bank == b.bank && a.row == b.row && a.col == b.col
}

// Append journals e into w, the window of e.Node. It returns dup=true
// (and journals nothing) when e is a redelivery of an event already in
// the dedup window.
//
//uerl:hotpath
func (j *EventJournal) Append(w *journalWindow, e *uerl.Event) (dup bool) {
	r := encode(e)
	if j.window > 0 && j.redelivered(w, e, &r) {
		j.deduped++
		return true
	}
	ring := &w.ring
	if len(w.wide) > 0 && ring.Len() == ring.Cap() {
		delete(w.wide, ring.Dropped()) // the evicted event's entry, if it has one
	}
	if r.wide {
		if w.wide == nil {
			w.wide = map[uint64]uerl.Event{} //uerl:alloc-ok a window's side table is made on its first wide event, which no telemetry stream has
		}
		w.wide[ring.Pushed()] = *e
	}
	ring.Push(r)
	return false
}

// redelivered reports whether e, encoded as r, repeats an event of w
// within the dedup window. A wide record compares as the event it holds.
func (j *EventJournal) redelivered(w *journalWindow, e *uerl.Event, r *record) bool {
	floor := r.unix - int64(j.window)
	if floor > r.unix {
		floor = math.MinInt64 // the window reaches past the oldest representable time
	}
	first := w.ring.Dropped()
	for i := w.ring.Len() - 1; i >= 0; i-- {
		prev := w.ring.At(i)
		if !prev.wide && !r.wide {
			if prev.unix < floor {
				return false
			}
			if sameDelivery(&prev, r) {
				return true
			}
			continue
		}
		pe := w.decode(e.Node, first+uint64(i), &prev)
		if pe.Time.Before(e.Time.Add(-j.window)) {
			return false
		}
		if pe.Time = e.Time; pe == *e {
			return true
		}
	}
	return false
}

// suffix appends to dst the events of node's window w with sequence
// numbers in [from, to), oldest first, decoded; the window must still
// retain from. A dst with the journal's capacity never grows.
//
//uerl:hotpath
func (w *journalWindow) suffix(dst []uerl.Event, node int, from, to uint64) []uerl.Event {
	oldest := w.ring.Dropped()
	for seq := from; seq < to; seq++ {
		r := w.ring.At(int(seq - oldest))
		dst = append(dst, w.decode(node, seq, &r)) //uerl:alloc-ok grows only past the caller's capacity; the coordinator's buffer holds a full window
	}
	return dst
}

// JournalStats summarizes journal activity.
type JournalStats struct {
	// Nodes is the number of nodes with a journal window.
	Nodes int `json:"nodes"`
	// Appended is the total number of events journaled.
	Appended uint64 `json:"appended"`
	// Deduped counts redeliveries dropped by the dedup window.
	Deduped uint64 `json:"deduped"`
	// Trimmed counts events aged out of the bounded windows.
	Trimmed uint64 `json:"trimmed"`
}
