// Package features computes the per-node state features of Table 1 of the
// paper: corrected-error counts and their spatial spread (distinct ranks,
// banks, rows, columns and DIMMs with CEs), UE warnings, node boot state,
// the feature-variation-over-time ratios of Eq. 2 (at Δt of one minute and
// one hour), and the potential UE cost of Eq. 3 supplied by the workload
// model. It also provides the normalization applied before features enter
// the neural network.
package features

import (
	"math"
	"time"

	"repro/internal/errlog"
)

// Feature vector indices. The layout is fixed and shared by the RL agent
// and the random-forest baseline (which uses the prefix without the cost
// feature, as SC20-RF has no notion of job state).
const (
	// CEsSinceLastEvent is the number of corrected errors observed in the
	// current tick (i.e. since the previous event).
	CEsSinceLastEvent = iota
	// CEsTotal is the cumulative corrected errors since start of operation.
	CEsTotal
	// RanksWithCEs counts distinct ranks that have seen CEs.
	RanksWithCEs
	// BanksWithCEs counts distinct banks that have seen CEs.
	BanksWithCEs
	// RowsWithCEs counts distinct rows that have seen CEs.
	RowsWithCEs
	// ColsWithCEs counts distinct columns that have seen CEs.
	ColsWithCEs
	// DIMMsWithCEs counts distinct DIMMs that have seen CEs.
	DIMMsWithCEs
	// UEWarnings is the cumulative UE warning count.
	UEWarnings
	// HoursSinceBoot is the time since the last node boot, in hours.
	HoursSinceBoot
	// Boots is the cumulative node boot count.
	Boots
	// CEVar1Min is the Eq. 2 variation of CEsTotal over one minute.
	CEVar1Min
	// CEVar1Hour is the Eq. 2 variation of CEsTotal over one hour.
	CEVar1Hour
	// BootVar1Min is the Eq. 2 variation of Boots over one minute.
	BootVar1Min
	// BootVar1Hour is the Eq. 2 variation of Boots over one hour.
	BootVar1Hour
	// UECost is the potential UE cost (Eq. 3) in node–hours.
	UECost
	// Dim is the full feature dimension.
	Dim
)

// PredictorDim is the dimension used by the random-forest predictor: every
// feature except the workload-dependent potential UE cost.
const PredictorDim = UECost

// Vector is one feature observation.
type Vector [Dim]float64

// Predictor returns the prefix used by the RF predictor (no UE cost).
func (v Vector) Predictor() []float64 { return v[:PredictorDim] }

// maxCostFeature caps the normalized potential-UE-cost input at
// log1p(64,000) node–hours, twice the largest job in the MN4-style trace.
// Costs beyond the training distribution saturate instead of pushing the
// network into an extrapolation region it has never seen, which keeps the
// learned mitigate-at-high-cost behaviour monotone (the §5.4 observation
// that the agent generalizes to costs orders of magnitude above training
// relies on this saturation at laptop-scale training budgets).
var maxCostFeature = math.Log1p(64000)

// NormalizedInto writes the network input representation into out (len
// >= Dim) and returns out[:Dim]: counts and cost are log1p-compressed
// (they span orders of magnitude), hours-since-boot is log1p-compressed,
// the variation ratios are clamped to [0, 8], and the cost feature
// saturates at maxCostFeature. The result has the same index layout as
// Vector. It is the hot serving path, and the serving layer runs it once
// per RL decision tick: the policy normalizes into its caller's buffer
// and the online learner stores that buffer as the tick's experience
// state. Observe → NormalizedInto → the stack forward pass allocates
// nothing.
//
//uerl:hotpath
func (v Vector) NormalizedInto(out []float64) []float64 {
	out = out[:Dim]
	for i := 0; i < Dim; i++ {
		switch i {
		case CEVar1Min, CEVar1Hour, BootVar1Min, BootVar1Hour:
			x := v[i]
			if x < 0 {
				x = 0
			}
			if x > 8 {
				x = 8
			}
			out[i] = x
		case UECost:
			c := math.Log1p(v[i])
			if c > maxCostFeature {
				c = maxCostFeature
			}
			out[i] = c
		default:
			out[i] = log1pCount(v[i])
		}
	}
	return out
}

// log1pCounts holds math.Log1p(n) for the whole counts n < len, so the
// table is bit-identical to the function by construction.
var log1pCounts = func() (t [1024]float64) {
	for n := range t {
		t[n] = math.Log1p(float64(n))
	}
	return t
}()

// log1pCount is math.Log1p with a table lookup for positive whole x below
// 1024 — the common case of the count features. Every other input (±0,
// fractions, large counts, NaN, ±Inf) goes to math.Log1p.
//
//uerl:hotpath
func log1pCount(x float64) float64 {
	if x > 0 && x < float64(len(log1pCounts)) {
		if n := int(x); float64(n) == x {
			return log1pCounts[n]
		}
	}
	return math.Log1p(x)
}

// snapshot is a historical (time, CEsTotal, Boots) record used to compute
// the Eq. 2 variation ratios. t is the tick's offset from the tracker's
// first tick (Tracker.offset), so history searches compare integers.
type snapshot struct {
	t     int64
	ces   float64
	boots float64
}

// maxSpreadBits bounds the direct bitset range of a spreadSet at realistic
// DRAM geometry (row/column/rank/bank/DIMM ids all fit well under 2^16):
// the worst-case bitset is 8 KB per set even if a stream is adversarial,
// and ids at or beyond the bound fall back to an overflow map.
const maxSpreadBits = 1 << 16

// spreadSet counts distinct non-negative ids (ranks, banks, rows, columns,
// DIMMs with CEs). Small ids — the universal case for DRAM geometry — live
// in a lazily grown bitset, so the per-tick hot path neither hashes nor
// allocates; out-of-range ids overflow into a map. Reset reuses all storage.
type spreadSet struct {
	bits []uint64
	n    int
	over map[int]struct{}
}

// add inserts v (v >= 0) into the set.
func (s *spreadSet) add(v int) {
	if v < maxSpreadBits {
		w, bit := v>>6, uint64(1)<<(uint(v)&63)
		if w >= len(s.bits) {
			grown := make([]uint64, w+1)
			copy(grown, s.bits)
			s.bits = grown
		}
		if s.bits[w]&bit == 0 {
			s.bits[w] |= bit
			s.n++
		}
		return
	}
	if s.over == nil {
		s.over = map[int]struct{}{}
	}
	if _, ok := s.over[v]; !ok {
		s.over[v] = struct{}{}
		s.n++
	}
}

// len reports the number of distinct ids.
func (s *spreadSet) len() int { return s.n }

// reset empties the set, keeping the bitset and map storage for reuse.
func (s *spreadSet) reset() {
	for i := range s.bits {
		s.bits[i] = 0
	}
	for k := range s.over {
		delete(s.over, k)
	}
	s.n = 0
}

// ringHist is a ring buffer of history snapshots ordered by time. It
// replaces the old slice-with-copying history: appends are O(1) amortized
// with no steady-state allocation, and compaction just advances the head.
type ringHist struct {
	buf  []snapshot // len is a power of two once non-empty
	head int
	size int
}

// at returns the i-th oldest snapshot (0 <= i < size).
func (r *ringHist) at(i int) snapshot {
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// push appends a snapshot, growing the ring when full.
func (r *ringHist) push(s snapshot) {
	if r.size == len(r.buf) {
		grown := make([]snapshot, max(16, 2*len(r.buf)))
		for i := 0; i < r.size; i++ {
			grown[i] = r.at(i)
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = s
	r.size++
}

// popFront drops the oldest snapshot.
func (r *ringHist) popFront() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
}

// reset empties the ring, keeping the buffer for reuse.
func (r *ringHist) reset() { r.head, r.size = 0, 0 }

// Tracker maintains one node's feature state as ticks stream in. The zero
// value is not usable; construct with NewTracker. Its history records each
// tick by its offset from the first tick, so the Eq. 2 lookups and
// compaction compare integers instead of time.Time values.
type Tracker struct {
	started bool
	start   time.Time

	cesTotal float64
	warnings float64
	boots    float64
	lastBoot time.Time
	hasBoot  bool
	ranks    spreadSet
	banks    spreadSet
	rows     spreadSet
	cols     spreadSet
	dimms    spreadSet
	history  ringHist
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{}
}

// Reset returns the tracker to its initial state for reuse, keeping every
// buffer (spread bitsets, history ring) it has already grown. It runs once
// per node per training episode, so it must not reallocate.
func (tr *Tracker) Reset() {
	tr.started = false
	tr.start = time.Time{}
	tr.cesTotal = 0
	tr.warnings = 0
	tr.boots = 0
	tr.lastBoot = time.Time{}
	tr.hasBoot = false
	tr.ranks.reset()
	tr.banks.reset()
	tr.rows.reset()
	tr.cols.reset()
	tr.dimms.reset()
	tr.history.reset()
}

// Observe ingests a tick's events and fills v with the feature vector at
// the tick time with the supplied potential UE cost; with v nil it only
// ingests. Ticks must be fed in chronological order.
//
//uerl:hotpath
func (tr *Tracker) Observe(tick errlog.Tick, ueCost float64, v *Vector) {
	if !tr.started {
		tr.started = true
		tr.start = tick.Time
	}
	ceNow := 0.0
	for _, e := range tick.Events {
		switch e.Type {
		case errlog.CE:
			ceNow += float64(e.Count)
			tr.cesTotal += float64(e.Count)
			if e.Rank >= 0 {
				tr.ranks.add(e.Rank)
			}
			if e.Bank >= 0 {
				tr.banks.add(e.Bank)
			}
			if e.Row >= 0 {
				tr.rows.add(e.Row)
			}
			if e.Col >= 0 {
				tr.cols.add(e.Col)
			}
			if e.DIMM >= 0 {
				tr.dimms.add(e.DIMM)
			}
		case errlog.UEWarning:
			tr.warnings++
		case errlog.Boot:
			tr.boots++
			tr.lastBoot = e.Time
			tr.hasBoot = true
		}
	}
	// Record the post-update snapshot, then compute variations against the
	// closest snapshots at or before t-Δt. Compaction is an O(1)-amortized
	// head advance on the ring, so it runs on every tick and the history
	// never exceeds the longest variation window.
	at := tr.offset(tick.Time)
	tr.history.push(snapshot{t: at, ces: tr.cesTotal, boots: tr.boots})
	tr.compact(cutoff(at, 2*time.Hour))

	if v != nil {
		tr.vectorAt(v, tick.Time, at, ceNow, ueCost)
	}
}

// Peek fills v with the feature vector the node would report at time now
// with the supplied potential UE cost, WITHOUT mutating the tracker: no
// snapshot is recorded and no counters move. It is the read-only query
// path used by Controller.Recommend, so polling a node never changes its
// features. now must not precede the last observed tick.
//
//uerl:hotpath
func (tr *Tracker) Peek(now time.Time, ueCost float64, v *Vector) {
	tr.vectorAt(v, now, tr.offset(now), 0, ueCost)
	if v[HoursSinceBoot] < 0 {
		// A Peek earlier than the last boot (lagging poller clock) must
		// not feed log1p a negative value downstream. Observe keeps the
		// raw value so replayed training inputs stay bit-identical.
		v[HoursSinceBoot] = 0
	}
}

// vectorAt fills every entry of v with the feature vector for time t, at
// offset at, from current counters.
//
//uerl:hotpath
func (tr *Tracker) vectorAt(v *Vector, t time.Time, at int64, ceNow, ueCost float64) {
	v[CEsSinceLastEvent] = ceNow
	v[CEsTotal] = tr.cesTotal
	v[RanksWithCEs] = float64(tr.ranks.len())
	v[BanksWithCEs] = float64(tr.banks.len())
	v[RowsWithCEs] = float64(tr.rows.len())
	v[ColsWithCEs] = float64(tr.cols.len())
	v[DIMMsWithCEs] = float64(tr.dimms.len())
	v[UEWarnings] = tr.warnings
	switch {
	case tr.hasBoot:
		v[HoursSinceBoot] = t.Sub(tr.lastBoot).Hours()
	case tr.started:
		v[HoursSinceBoot] = time.Duration(at).Hours()
	default:
		v[HoursSinceBoot] = 0
	}
	v[Boots] = tr.boots
	v[CEVar1Min], v[BootVar1Min] = tr.variations(cutoff(at, time.Minute))
	v[CEVar1Hour], v[BootVar1Hour] = tr.variations(cutoff(at, time.Hour))
	v[UECost] = ueCost
}

// offset is t's distance from the first tick in nanoseconds. time.Time.Sub
// saturates instead of overflowing, so offsets order times as After and
// Before do, the zero time and far-future times included: a saturated
// cutoff lies beyond every recorded tick on its side. (Times that mix
// monotonic and wall-only readings compare by wall clock in After but may
// not here; telemetry timestamps carry no monotonic reading.)
//
//uerl:hotpath
func (tr *Tracker) offset(t time.Time) int64 { return int64(t.Sub(tr.start)) }

// cutoff is the offset dt (> 0) before offset at: offset(t.Add(-dt)) for
// at = offset(t). It saturates at the minimum as Sub does; from a
// saturated maximum it stays after every tick recorded within ~292 years
// of the first, so searches answer as for the exact cutoff.
//
//uerl:hotpath
func cutoff(at int64, dt time.Duration) int64 {
	if at < math.MinInt64+int64(dt) {
		return math.MinInt64
	}
	return at - int64(dt)
}

// variations implements Eq. 2 for both tracked counters over one window
// Δt: value(now) / value(now-Δt) for CEsTotal and for Boots, each zero
// when its denominator is zero. value(now-Δt) is the counter's value at
// the latest snapshot at or before now-Δt, whose offset is cutoff
// (features only change at events), so one search serves both ratios.
//
//uerl:hotpath
func (tr *Tracker) variations(cutoff int64) (ces, boots float64) {
	// Binary search for the first snapshot with t > cutoff; its
	// predecessor is the last snapshot at or before the cutoff.
	h := &tr.history
	mask := len(h.buf) - 1
	lo, hi := 0, h.size
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.buf[(h.head+mid)&mask].t > cutoff {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return 0, 0 // no history that far back: denominators are zero
	}
	then := h.at(lo - 1)
	if then.ces != 0 {
		ces = tr.cesTotal / then.ces
	}
	if then.boots != 0 {
		boots = tr.boots / then.boots
	}
	return ces, boots
}

// compact drops snapshots older than the cutoff offset, bounding memory
// for long logs. It always keeps the latest snapshot at or before the
// cutoff, so variation lookups are unaffected. On the ring buffer this is
// just a head advance; Observe calls it on every tick.
func (tr *Tracker) compact(cutoff int64) {
	for tr.history.size > 1 && tr.history.at(1).t < cutoff {
		tr.history.popFront()
	}
}
