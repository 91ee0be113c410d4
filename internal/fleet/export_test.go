package fleet

import (
	"unsafe"

	uerl "repro"
)

// RecordSize is the size of one journal record.
const RecordSize = unsafe.Sizeof(record{})

// JournalRoundTrip journals events in order, dedup off, into per-node
// windows of capacity events. It returns each event decoded right after
// it was journaled, every node's retained window decoded at the end, and
// how many events the windows' side tables still hold.
func JournalRoundTrip(capacity int, events []uerl.Event) (each []uerl.Event, windows map[int][]uerl.Event, wide int) {
	j := NewEventJournal(capacity, 0)
	nodes := map[int]*journalWindow{}
	for i := range events {
		e := &events[i]
		w, ok := nodes[e.Node]
		if !ok {
			nw := j.newWindow()
			w = &nw
			nodes[e.Node] = w
		}
		j.Append(w, e)
		each = append(each, w.suffix(nil, e.Node, w.ring.Pushed()-1, w.ring.Pushed())...)
	}
	windows = map[int][]uerl.Event{}
	for node, w := range nodes {
		windows[node] = w.suffix(nil, node, w.ring.Dropped(), w.ring.Pushed())
		wide += len(w.wide)
	}
	return each, windows, wide
}
