package fleet

import (
	"sort"
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
	nodes    map[int]*lifecycle.Ring[uerl.Event]
	deduped  uint64
}

// NewEventJournal creates a journal retaining up to capacity events per
// node, deduplicating redeliveries within dedupWindow (0 = off).
func NewEventJournal(capacity int, dedupWindow time.Duration) *EventJournal {
	if capacity <= 0 {
		panic("fleet: journal capacity must be positive")
	}
	return &EventJournal{
		capacity: capacity,
		window:   dedupWindow,
		nodes:    map[int]*lifecycle.Ring[uerl.Event]{},
	}
}

// sameDelivery reports whether b looks like a redelivery of a: identical
// in everything but the (collector-stamped, possibly re-stamped) time.
func sameDelivery(a, b uerl.Event) bool {
	return a.Node == b.Node && a.Type == b.Type && a.DIMM == b.DIMM &&
		a.Count == b.Count && a.Rank == b.Rank && a.Bank == b.Bank &&
		a.Row == b.Row && a.Col == b.Col
}

// Window returns node's journal window, creating an empty one on first
// use. The coordinator keeps it in the node's ledger, so a tick finds it
// without a second lookup. Its Pushed count is the sequence number the
// node's next journaled event gets (dedup drops excluded), and its
// Dropped count how many of the node's events have aged out of the
// window and can no longer be replayed.
func (j *EventJournal) Window(node int) *lifecycle.Ring[uerl.Event] {
	w, ok := j.nodes[node]
	if !ok {
		w = lifecycle.NewRing[uerl.Event](j.capacity)
		j.nodes[node] = w
	}
	return w
}

// Append journals e into w, the window of e.Node. It returns dup=true
// (and journals nothing) when e is a redelivery of an event already in
// the dedup window.
func (j *EventJournal) Append(w *lifecycle.Ring[uerl.Event], e uerl.Event) (dup bool) {
	if j.window > 0 {
		floor := e.Time.Add(-j.window)
		for i := w.Len() - 1; i >= 0; i-- {
			prev := w.At(i)
			if prev.Time.Before(floor) {
				break
			}
			if sameDelivery(prev, e) {
				j.deduped++
				return true
			}
		}
	}
	w.Push(e)
	return false
}

// journalSuffix returns w's retained events with sequence numbers >= seq,
// oldest first, and reports whether the window still covers that range
// (ok=false means events in [seq, oldest retained) were trimmed, so a
// catch-up from seq is impossible and the caller must rebuild from
// journalSuffix(dst, w, w.Dropped()) instead). A range that lies in one
// piece of the window's storage, as every steady tick's does, is
// returned as a subslice of it, valid until the next Append to w; only
// a range that wraps round the window is copied, appended to dst in two
// segments. A dst with the journal's capacity never grows.
//
//uerl:hotpath
func journalSuffix(dst []uerl.Event, w *lifecycle.Ring[uerl.Event], seq uint64) ([]uerl.Event, bool) {
	oldest := w.Dropped()
	if seq < oldest {
		return dst, false
	}
	a, b := w.Window(int(seq - oldest))
	if len(b) == 0 {
		return a, true
	}
	return append(append(dst, a...), b...), true //uerl:alloc-ok grows only past the caller's capacity; the coordinator's buffer holds a full window
}

// Nodes returns the journaled node ids in ascending order — the
// deterministic iteration order for failover reassignment.
func (j *EventJournal) Nodes() []int {
	out := make([]int, 0, len(j.nodes))
	for n := range j.nodes {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
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

// Stats reports journal activity totals.
func (j *EventJournal) Stats() JournalStats {
	st := JournalStats{Nodes: len(j.nodes), Deduped: j.deduped}
	for _, r := range j.nodes {
		st.Appended += r.Pushed()
		st.Trimmed += r.Dropped()
	}
	return st
}
