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
	mustPanic("Window past the end", func() { NewRing[int](1).Window(1) })
	mustPanic("Window before the start", func() { NewRing[int](1).Window(-1) })
}

// TestRingWindow checks Window against At at every head position of
// rings of several capacities, for every window start: the two segments
// concatenate to At(i..Len-1), b is empty unless the window wraps, and
// both alias the ring's storage.
func TestRingWindow(t *testing.T) {
	var wrapped, whole, empty int
	for capacity := 1; capacity <= 5; capacity++ {
		r := NewRing[int](capacity)
		for pushed := 0; pushed <= 3*capacity; pushed++ {
			for i := 0; i <= r.Len(); i++ {
				a, b := r.Window(i)
				got := append(append([]int(nil), a...), b...)
				if len(got) != r.Len()-i {
					t.Fatalf("cap %d, %d pushed, Window(%d): %d elements, want %d", capacity, pushed, i, len(got), r.Len()-i)
				}
				for k, v := range got {
					if want := r.At(i + k); v != want {
						t.Fatalf("cap %d, %d pushed, Window(%d)[%d] = %d, At(%d) = %d", capacity, pushed, i, k, v, i+k, want)
					}
				}
				if len(a) > 0 && &a[0] != &r.buf[r.slot(i)] {
					t.Fatalf("cap %d, %d pushed, Window(%d): a does not alias the ring", capacity, pushed, i)
				}
				if len(b) > 0 {
					if len(a) == 0 || &b[0] != &r.buf[0] || &a[len(a)-1] != &r.buf[capacity-1] {
						t.Fatalf("cap %d, %d pushed, Window(%d): b without a wrap", capacity, pushed, i)
					}
					wrapped++
				}
				switch {
				case len(got) == 0:
					empty++
				case len(b) == 0:
					whole++
				}
			}
			r.Push(pushed)
		}
	}
	if wrapped == 0 || whole == 0 || empty == 0 {
		t.Fatalf("cases not covered: wrapped %d, one piece %d, empty %d", wrapped, whole, empty)
	}
}
