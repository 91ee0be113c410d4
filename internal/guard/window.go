package guard

import "time"

// windowBuckets is the fixed bucket count of every sliding window. More
// buckets mean finer expiry granularity at a fixed O(1) cost per
// operation; 32 keeps the quantization error of a window's span under
// ~3% while the whole ring stays in one cache line pair.
const windowBuckets = 32

// Window is a sliding-window sum over event time: values added at time t
// contribute to Total until roughly span has elapsed, after which their
// bucket rotates out. Time is the caller's event-stream (telemetry)
// time, never the wall clock, so a replayed stream reproduces the same
// window sums bit for bit.
//
// The window is quantized into windowBuckets buckets, so an entry
// expires between span and span+span/windowBuckets after it was added —
// budget enforcement is sliding, not tumbling, with bucket-granularity
// expiry. Window is not safe for concurrent use; Budgets provides the
// locking.
type Window struct {
	bucket time.Duration
	sums   [windowBuckets]float64
	// epoch is the bucket index of the newest slot; -1 until first use.
	epoch int64
	total float64
}

// NewWindow builds a sliding window covering roughly span.
func NewWindow(span time.Duration) *Window {
	b := span / windowBuckets
	if b <= 0 {
		b = 1
	}
	return &Window{bucket: b, epoch: -1}
}

// index maps a time to its bucket index.
func (w *Window) index(at time.Time) int64 {
	return at.UnixNano() / int64(w.bucket)
}

// slot maps a bucket index to its ring position.
func (w *Window) slot(idx int64) int {
	return int(((idx % windowBuckets) + windowBuckets) % windowBuckets)
}

// advance rotates the ring forward to idx, expiring buckets that leave
// the window.
func (w *Window) advance(idx int64) {
	if w.epoch < 0 {
		w.epoch = idx
		return
	}
	if idx <= w.epoch {
		return
	}
	if idx-w.epoch >= windowBuckets {
		// The whole window has expired.
		w.sums = [windowBuckets]float64{}
		w.total = 0
		w.epoch = idx
		return
	}
	for i := w.epoch + 1; i <= idx; i++ {
		s := w.slot(i)
		w.total -= w.sums[s]
		w.sums[s] = 0
	}
	w.epoch = idx
}

// Add folds v into the window at time at. Out-of-order additions land in
// their own (still live) bucket; additions older than the window are
// already expired and are dropped.
func (w *Window) Add(at time.Time, v float64) {
	idx := w.index(at)
	w.advance(idx)
	if idx <= w.epoch-windowBuckets {
		return
	}
	w.sums[w.slot(idx)] += v
	w.total += v
}

// Total reports the window sum as of time at: what the window would hold
// once advanced to at. It is a pure read — only Add rotates the ring — so
// a query from ahead of the stream (a poller whose clock leads telemetry)
// cannot expire the buckets that later charges at the present land in.
func (w *Window) Total(at time.Time) float64 {
	idx := w.index(at)
	if w.epoch < 0 || idx <= w.epoch {
		return w.total
	}
	if idx-w.epoch >= windowBuckets {
		return 0
	}
	total := w.total
	for i := w.epoch + 1; i <= idx; i++ {
		total -= w.sums[w.slot(i)]
	}
	return total
}
