package policies

import (
	"testing"
	"time"

	"repro/internal/features"
)

func ceCtx(node int, total float64) *Context {
	var v features.Vector
	v[features.CEsTotal] = total
	return &Context{Node: node, Time: time.Unix(0, 0), Features: v}
}

func TestCEThresholdFiresOnGrowth(t *testing.T) {
	p := NewCEThreshold(100)
	if p.Decide(ceCtx(1, 50)) {
		t.Fatal("fired below threshold")
	}
	if !p.Decide(ceCtx(1, 151)) {
		t.Fatal("did not fire above threshold")
	}
	// After a trigger, the counter rebases: another 50 CEs are not enough.
	if p.Decide(ceCtx(1, 200)) {
		t.Fatal("re-fired without enough new CEs")
	}
	// But another full threshold's worth is.
	if !p.Decide(ceCtx(1, 260)) {
		t.Fatal("did not re-fire after renewed growth")
	}
}

func TestCEThresholdPerNode(t *testing.T) {
	p := NewCEThreshold(100)
	if !p.Decide(ceCtx(1, 150)) {
		t.Fatal("node 1 should fire")
	}
	// Node 2's counter is independent.
	if p.Decide(ceCtx(2, 50)) {
		t.Fatal("node 2 fired on node 1's state")
	}
	if !p.Decide(ceCtx(2, 150)) {
		t.Fatal("node 2 should fire on its own growth")
	}
}

func TestCEThresholdName(t *testing.T) {
	if NewCEThreshold(30).Name() != "mcelog-CE>30" {
		t.Fatalf("name = %q", NewCEThreshold(30).Name())
	}
}
