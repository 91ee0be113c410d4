// Package errlog defines the memory-error event records and the log
// pipeline of §2 of the paper: mcelog-flavoured corrected-error records,
// firmware-flavoured uncorrected-error and warning records, node boots and
// DIMM retirements; chronological stores; same-minute event merging
// (§3.2.3); UE burst reduction with a one-week window (§2.1.3); DIMM
// retirement bias filtering (§2.1.4); per-manufacturer partitioning (§4.5);
// and a stable CSV encoding.
package errlog

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"
)

// EventType classifies a log record.
type EventType int

const (
	// CE is a corrected error record extracted from the MCA registers by
	// the mcelog-based daemon. One record may represent several corrected
	// errors (Count), with detailed location information for one of them.
	CE EventType = iota
	// UE is an uncorrected error logged by the firmware. Critical
	// over-temperature shutdowns are recorded as UEs too (OverTemp flag),
	// matching §2.1.2.
	UE
	// UEWarning is a firmware warning: the correctable-ECC logging limit
	// was reached or the modules were throttled against over-temperature.
	UEWarning
	// Boot marks a node boot.
	Boot
	// Retirement marks an administrative DIMM retirement (§2.1.4).
	Retirement
)

// String implements fmt.Stringer.
func (t EventType) String() string {
	switch t {
	case CE:
		return "CE"
	case UE:
		return "UE"
	case UEWarning:
		return "UEW"
	case Boot:
		return "BOOT"
	case Retirement:
		return "RETIRE"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Manufacturer identifies an anonymized DRAM manufacturer (§2.1).
type Manufacturer int

// Anonymized manufacturers as in the paper.
const (
	ManufacturerA Manufacturer = iota
	ManufacturerB
	ManufacturerC
	NumManufacturers = 3
)

// String implements fmt.Stringer.
func (m Manufacturer) String() string {
	switch m {
	case ManufacturerA:
		return "A"
	case ManufacturerB:
		return "B"
	case ManufacturerC:
		return "C"
	default:
		return fmt.Sprintf("Manufacturer(%d)", int(m))
	}
}

// ParseManufacturer is the inverse of Manufacturer.String: it accepts
// exactly "A", "B" and "C".
func ParseManufacturer(s string) (Manufacturer, error) {
	for m := ManufacturerA; m < NumManufacturers; m++ {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown manufacturer %q (want A, B or C)", s)
}

// Event is one log record. The zero value is not meaningful; construct
// explicitly. Location fields are -1 when unknown (e.g. boot events).
type Event struct {
	// Time is the record timestamp.
	Time time.Time
	// Node is the compute-node id.
	Node int
	// DIMM is the system-wide DIMM id, or -1 for node-level events.
	DIMM int
	// Manufacturer of the affected DIMM (or of the node's DIMMs for
	// node-level events; MareNostrum nodes are manufacturer-homogeneous).
	Manufacturer Manufacturer
	// Type classifies the record.
	Type EventType
	// Count is the number of corrected errors this CE record represents
	// (the MCA registers report counts; detailed location covers one).
	// It is 1 for non-CE records.
	Count int
	// Rank, Bank, Row, Col locate the detailed error inside the DIMM;
	// -1 when not applicable.
	Rank, Bank, Row, Col int
	// Scrub reports whether the error was found by the patrol scrubber
	// rather than an application memory request.
	Scrub bool
	// OverTemp marks a UE record that is actually a critical
	// over-temperature shutdown.
	OverTemp bool
}

// Log is a chronologically sorted sequence of events.
type Log struct {
	Events []Event
}

// Sort orders events in place by time, breaking ties by node then type
// and keeping log order among events equal on all three, so the log order
// is deterministic for identical inputs. Slices aliasing l.Events see the
// sorted order.
//
// Times compare as wall-clock instants (Unix seconds, then nanoseconds):
// errlog times never carry a monotonic reading, since they are built from
// time.Date plus Add or parsed from CSV.
func (l *Log) Sort() {
	ev := l.Events
	if slices.IsSortedFunc(ev, compareEvents) {
		return
	}
	// Sort compact keys rather than the events themselves: the position
	// tie-break makes the order total, so the unstable sort reproduces
	// the stable order, and each event then moves once. A log too long
	// for int32 positions, or with a node or type outside int32, takes
	// the generic stable sort instead.
	keys := make([]sortKey, len(ev))
	for i := range ev {
		e := &ev[i]
		k := sortKey{sec: e.Time.Unix(), nsec: int32(e.Time.Nanosecond()),
			node: int32(e.Node), typ: int32(e.Type), pos: int32(i)}
		if int(k.node) != e.Node || EventType(k.typ) != e.Type || int(k.pos) != i {
			slices.SortStableFunc(ev, compareEvents)
			return
		}
		keys[i] = k
	}
	slices.SortFunc(keys, compareKeys)
	// Apply the permutation in place, one cycle at a time: slot i takes
	// the event at keys[i].pos; a visited slot points at itself.
	for i := range keys {
		if int(keys[i].pos) == i {
			continue
		}
		held := ev[i]
		j := i
		for {
			src := int(keys[j].pos)
			keys[j].pos = int32(j)
			if src == i {
				ev[j] = held
				break
			}
			ev[j] = ev[src]
			j = src
		}
	}
}

// sortKey is the part of an Event that Sort orders by, plus the event's
// position in the unsorted log.
type sortKey struct {
	sec                  int64
	nsec, node, typ, pos int32
}

// compareKeys is Sort's order with the position tie-break.
func compareKeys(a, b sortKey) int {
	switch {
	case a.sec != b.sec:
		return cmp.Compare(a.sec, b.sec)
	case a.nsec != b.nsec:
		return cmp.Compare(a.nsec, b.nsec)
	case a.node != b.node:
		return cmp.Compare(a.node, b.node)
	case a.typ != b.typ:
		return cmp.Compare(a.typ, b.typ)
	}
	return cmp.Compare(a.pos, b.pos)
}

// compareEvents is Sort's order without the position tie-break.
func compareEvents(a, b Event) int {
	return cmp.Or(a.Time.Compare(b.Time), cmp.Compare(a.Node, b.Node), cmp.Compare(a.Type, b.Type))
}

// Span returns the first and last event time. Empty logs return zero times.
func (l *Log) Span() (first, last time.Time) {
	if len(l.Events) == 0 {
		return
	}
	return l.Events[0].Time, l.Events[len(l.Events)-1].Time
}

// CountType returns the number of records of type t.
func (l *Log) CountType(t EventType) int {
	n := 0
	for _, e := range l.Events {
		if e.Type == t {
			n++
		}
	}
	return n
}

// TotalCEs returns the total number of corrected errors represented by the
// log (the sum of CE record counts), matching the paper's "4.5 million
// corrected errors" metric rather than the number of log records.
func (l *Log) TotalCEs() int {
	n := 0
	for _, e := range l.Events {
		if e.Type == CE {
			n += e.Count
		}
	}
	return n
}

// Nodes returns the sorted distinct node ids appearing in the log.
func (l *Log) Nodes() []int {
	seen := map[int]bool{}
	for _, e := range l.Events {
		seen[e.Node] = true
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// PartitionManufacturer returns the sub-log containing only events from
// nodes of the given manufacturer, used for the MN/A, MN/B, MN/C
// evaluations of §4.5.
func (l *Log) PartitionManufacturer(m Manufacturer) *Log {
	out := &Log{}
	for _, e := range l.Events {
		if e.Manufacturer == m {
			out.Events = append(out.Events, e)
		}
	}
	return out
}
