package errlog

import (
	"time"
)

// Tick is one agent invocation point: all of a node's events that fall in
// the same merge window (one minute in the paper, §3.2.3) collapsed into a
// single observation. The RL agent and all baseline policies are invoked
// once per tick.
type Tick struct {
	// Time is the window start.
	Time time.Time
	// Node is the node id.
	Node int
	// Events are the node's records inside the window, in log order.
	Events []Event
}

// HasUE reports whether any event in the tick is an uncorrected error.
func (t Tick) HasUE() bool {
	for _, e := range t.Events {
		if e.Type == UE {
			return true
		}
	}
	return false
}

// MergeWindow is the paper's minimum wallclock time between state
// transitions: events within the same minute are combined (§3.2.3).
const MergeWindow = time.Minute

// Merge collapses a sorted log into per-node ticks using the given window.
// Events on the same node whose timestamps fall in the same window (aligned
// to the epoch) form one tick. The returned ticks are sorted by window
// start; ticks sharing a window keep the order of their first events in
// the log, not node order.
func Merge(l *Log, window time.Duration) []Tick {
	if window <= 0 {
		window = MergeWindow
	}
	var ticks []Tick
	// The log is sorted by time; maintain an open tick per node.
	open := map[int]int{} // node -> index into ticks
	for _, e := range l.Events {
		w := e.Time.Truncate(window)
		if idx, ok := open[e.Node]; ok && ticks[idx].Time.Equal(w) {
			ticks[idx].Events = append(ticks[idx].Events, e)
			continue
		}
		ticks = append(ticks, Tick{Time: w, Node: e.Node, Events: []Event{e}})
		open[e.Node] = len(ticks) - 1
	}
	return ticks
}

// UEBurstWindow is the paper's burst window: after a node's UE it was
// removed from production and tested for one week, so only the first UE per
// node within a week affects production (§2.1.3).
const UEBurstWindow = 7 * 24 * time.Hour

// ReduceUEBursts removes every UE on a node that follows another UE on the
// same node within the window (the paper's reduction from 333 to 67 UEs).
// Non-UE events are untouched. The input must be sorted.
func ReduceUEBursts(l *Log, window time.Duration) *Log {
	if window <= 0 {
		window = UEBurstWindow
	}
	lastUE := map[int]time.Time{}
	out := &Log{Events: make([]Event, 0, len(l.Events))}
	for _, e := range l.Events {
		if e.Type == UE {
			if t, ok := lastUE[e.Node]; ok && e.Time.Sub(t) < window {
				continue
			}
			lastUE[e.Node] = e.Time
		}
		out.Events = append(out.Events, e)
	}
	return out
}

// RetirementBiasWindow is how far before a DIMM retirement we drop samples:
// since we cannot know whether the retired DIMM would have produced a UE,
// the paper removes all such samples from training and evaluation (§2.1.4).
const RetirementBiasWindow = 7 * 24 * time.Hour

// FilterRetirementBias removes all events on a node within the window
// before any of its DIMMs is retired, along with the retirement record
// itself. The input must be sorted.
func FilterRetirementBias(l *Log, window time.Duration) *Log {
	if window <= 0 {
		window = RetirementBiasWindow
	}
	// Collect retirement times per node.
	retirements := map[int][]time.Time{}
	for _, e := range l.Events {
		if e.Type == Retirement {
			retirements[e.Node] = append(retirements[e.Node], e.Time)
		}
	}
	out := &Log{Events: make([]Event, 0, len(l.Events))}
	for _, e := range l.Events {
		if e.Type == Retirement {
			continue
		}
		drop := false
		for _, rt := range retirements[e.Node] {
			if !e.Time.After(rt) && rt.Sub(e.Time) <= window {
				drop = true
				break
			}
		}
		if !drop {
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// Preprocess applies the paper's full pipeline in order: sort, retirement
// bias filtering, and UE burst reduction. Merge is applied separately by
// consumers that need ticks.
func Preprocess(l *Log) *Log {
	l.Sort()
	filtered := FilterRetirementBias(l, RetirementBiasWindow)
	return ReduceUEBursts(filtered, UEBurstWindow)
}

// SplitParts divides the log's time span into n equal parts and returns the
// boundary times (n+1 entries, first = span start, last = just past span
// end). Used by the §4.1 time-series nested cross-validation.
func SplitParts(l *Log, n int) []time.Time {
	first, last := l.Span()
	bounds := make([]time.Time, n+1)
	total := last.Sub(first) + time.Second
	for i := 0; i <= n; i++ {
		bounds[i] = first.Add(time.Duration(float64(total) * float64(i) / float64(n)))
	}
	return bounds
}
