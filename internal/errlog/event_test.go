package errlog

import (
	"testing"
	"time"
)

var t0 = time.Date(2014, 10, 1, 0, 0, 0, 0, time.UTC)

func ce(node int, at time.Duration, count int) Event {
	return Event{Time: t0.Add(at), Node: node, DIMM: node*8 + 1, Type: CE,
		Count: count, Rank: 0, Bank: 1, Row: 2, Col: 3}
}

func ue(node int, at time.Duration) Event {
	return Event{Time: t0.Add(at), Node: node, DIMM: node * 8, Type: UE, Count: 1}
}

func boot(node int, at time.Duration) Event {
	return Event{Time: t0.Add(at), Node: node, DIMM: -1, Type: Boot, Count: 1,
		Rank: -1, Bank: -1, Row: -1, Col: -1}
}

func TestEventTypeString(t *testing.T) {
	cases := map[EventType]string{
		CE: "CE", UE: "UE", UEWarning: "UEW", Boot: "BOOT", Retirement: "RETIRE",
	}
	for et, want := range cases {
		if et.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(et), et.String(), want)
		}
	}
	if ManufacturerA.String() != "A" || ManufacturerC.String() != "C" {
		t.Error("manufacturer strings wrong")
	}
}

func TestParseManufacturer(t *testing.T) {
	cases := []struct {
		in   string
		want Manufacturer
		ok   bool
	}{
		{"A", ManufacturerA, true},
		{"B", ManufacturerB, true},
		{"C", ManufacturerC, true},
		{"", 0, false},
		{"a", 0, false},
		{"D", 0, false},
	}
	for _, c := range cases {
		got, err := ParseManufacturer(c.in)
		if (err == nil) != c.ok {
			t.Fatalf("ParseManufacturer(%q) error = %v, want ok=%v", c.in, err, c.ok)
		}
		if !c.ok {
			continue
		}
		if got != c.want || got.String() != c.in {
			t.Fatalf("ParseManufacturer(%q) = %v, want %v (round trip through String)", c.in, got, c.want)
		}
	}
}

func TestLogSortDeterministic(t *testing.T) {
	l := &Log{Events: []Event{
		ue(2, time.Hour), ce(1, time.Hour, 1), boot(1, 0), ce(3, 2*time.Hour, 5),
	}}
	l.Sort()
	if l.Events[0].Type != Boot {
		t.Fatal("boot should sort first")
	}
	// Same timestamp: node 1 before node 2.
	if l.Events[1].Node != 1 || l.Events[2].Node != 2 {
		t.Fatalf("tie-break by node failed: %v", l.Events)
	}
}

func TestSpanAndCounts(t *testing.T) {
	l := &Log{Events: []Event{
		ce(1, 0, 10), ce(1, time.Hour, 20), ue(1, 2*time.Hour),
	}}
	first, last := l.Span()
	if !first.Equal(t0) || !last.Equal(t0.Add(2*time.Hour)) {
		t.Fatalf("span = %v..%v", first, last)
	}
	if l.CountType(CE) != 2 || l.CountType(UE) != 1 {
		t.Fatal("CountType wrong")
	}
	if l.TotalCEs() != 30 {
		t.Fatalf("TotalCEs = %d, want 30", l.TotalCEs())
	}
	var empty Log
	f, s := empty.Span()
	if !f.IsZero() || !s.IsZero() {
		t.Fatal("empty span should be zero")
	}
}

func TestNodes(t *testing.T) {
	l := &Log{Events: []Event{ce(3, 0, 1), ce(1, 0, 1), ce(3, time.Hour, 1)}}
	nodes := l.Nodes()
	if len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 3 {
		t.Fatalf("Nodes = %v", nodes)
	}
}

func TestPartitionManufacturer(t *testing.T) {
	a := ce(1, 0, 1)
	a.Manufacturer = ManufacturerA
	b := ce(2, 0, 1)
	b.Manufacturer = ManufacturerB
	l := &Log{Events: []Event{a, b}}
	pa := l.PartitionManufacturer(ManufacturerA)
	if len(pa.Events) != 1 || pa.Events[0].Node != 1 {
		t.Fatalf("partition A = %v", pa.Events)
	}
}
