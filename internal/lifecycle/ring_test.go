package lifecycle

import "testing"

func TestRingFIFOAndEviction(t *testing.T) {
	r := NewRing[int](3)
	if r.Cap() != 3 || r.Len() != 0 {
		t.Fatalf("fresh ring: cap=%d len=%d", r.Cap(), r.Len())
	}
	for i := 1; i <= 3; i++ {
		r.Push(i)
		if r.Dropped() != 0 {
			t.Fatalf("push %d into non-full ring counted a drop", i)
		}
	}
	// Fourth push evicts the oldest (1).
	r.Push(4)
	want := []int{2, 3, 4}
	for i, w := range want {
		if got := r.At(i); got != w {
			t.Fatalf("At(%d) = %d, want %d", i, got, w)
		}
	}
	if r.Pushed() != 4 || r.Dropped() != 1 {
		t.Fatalf("counters: pushed=%d dropped=%d, want 4 1", r.Pushed(), r.Dropped())
	}
}

func TestRingReset(t *testing.T) {
	r := NewRing[string](2)
	r.Push("a")
	r.Push("b")
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", r.Len())
	}
	// Lifetime counters survive a reset; reset elements are not drops.
	if r.Pushed() != 2 || r.Dropped() != 0 {
		t.Fatalf("counters after Reset: pushed=%d dropped=%d, want 2 0", r.Pushed(), r.Dropped())
	}
	r.Push("c")
	if r.At(0) != "c" || r.Len() != 1 {
		t.Fatalf("ring unusable after Reset: len=%d At(0)=%q", r.Len(), r.At(0))
	}
}

func TestRingPanicsOnBadUse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewRing(0)", func() { NewRing[int](0) })
	mustPanic("At out of range", func() { NewRing[int](1).At(0) })
}
