package main

import (
	"time"

	uerl "repro"
	"repro/internal/fleet"
)

// layer accumulates one layer's spans over one pass of a workload.
type layer struct {
	durs []time.Duration
	self time.Duration
}

// layerPass is one layer's summary over one pass.
type layerPass struct {
	p50, meanUS, selfUS float64
	n                   int
}

// tracer records spans around the calls the benchmark makes into each
// layer: name, duration and the time spent in child spans, so a layer's
// self time is its span minus its children. Spans are kept in memory for
// one pass and condensed into per-pass summaries by flush; reported
// per-layer times are medians over passes. A tracer belongs to one
// goroutine.
type tracer struct {
	// depth indexes child: child[d] is the child-span time accumulated by
	// the open span at depth d; depth 0 is the benchmark's own top-level
	// call (a Process call or a poll).
	depth int
	child [8]time.Duration
	// active limits transport accounting to spans inside a timed
	// top-level call, so the benchmark's own Stats reads are not counted.
	active bool
	calls  int64
	errors int64

	layers map[string]*layer
	hist   map[string][]layerPass
}

func newTracer() *tracer {
	return &tracer{layers: map[string]*layer{}, hist: map[string][]layerPass{}}
}

// layer returns the named layer's accumulator.
func (t *tracer) layer(name string) *layer {
	l, ok := t.layers[name]
	if !ok {
		l = &layer{}
		t.layers[name] = l
	}
	return l
}

// top opens a top-level span; topEnd closes it and returns the time its
// child spans covered.
func (t *tracer) top() {
	t.depth, t.child[0], t.active = 0, 0, true
}

func (t *tracer) topEnd() time.Duration {
	t.active = false
	return t.child[0]
}

// begin opens a span nested in the current one.
func (t *tracer) begin() time.Time {
	t.depth++
	t.child[t.depth] = 0
	return time.Now()
}

// end closes the innermost span, recording it on l.
func (t *tracer) end(l *layer, start time.Time) {
	d := time.Since(start)
	l.durs = append(l.durs, d)
	l.self += d - t.child[t.depth]
	t.depth--
	t.child[t.depth] += d
}

// record adds a span timed by the caller that has no children.
func (t *tracer) record(l *layer, d time.Duration) {
	l.durs = append(l.durs, d)
	l.self += d
}

// flush condenses the pass's spans into per-layer summaries and resets
// the accumulators for the next pass.
func (t *tracer) flush() {
	for name, l := range t.layers {
		if len(l.durs) == 0 {
			continue
		}
		var sum time.Duration
		for _, d := range l.durs {
			sum += d
		}
		n := len(l.durs)
		t.hist[name] = append(t.hist[name], layerPass{
			p50:    us(quantile(l.durs, 0.5)),
			meanUS: us(sum) / float64(n),
			selfUS: us(l.self) / float64(n),
			n:      n,
		})
		l.durs, l.self = l.durs[:0], 0
	}
}

// stat reduces one summary field over the flushed passes to its median.
func (t *tracer) stat(name string, field func(layerPass) float64) float64 {
	var xs []float64
	for _, p := range t.hist[name] {
		xs = append(xs, field(p))
	}
	return median(xs)
}

func (t *tracer) p50(name string) float64 {
	return t.stat(name, func(p layerPass) float64 { return p.p50 })
}
func (t *tracer) mean(name string) float64 {
	return t.stat(name, func(p layerPass) float64 { return p.meanUS })
}
func (t *tracer) self(name string) float64 {
	return t.stat(name, func(p layerPass) float64 { return p.selfUS })
}

// samples reports the span count behind a layer's per-pass medians.
func (t *tracer) samples(name string) (passes, perPass int) {
	h := t.hist[name]
	if len(h) == 0 {
		return 0, 0
	}
	return len(h), h[len(h)-1].n
}

// tracedServing wraps the fleet coordinator as the learner's serving
// layer and decision accountant, timing each call the learner makes into
// the coordinator. ObserveUE and DeployPolicy are spanned too (though
// not reported) so their transport calls do not count as learner self
// time.
type tracedServing struct {
	c *fleet.Coordinator
	t *tracer

	observe, recommend, observeDecision, observeUE, deploy *layer
}

func newTracedServing(c *fleet.Coordinator, t *tracer) *tracedServing {
	return &tracedServing{
		c: c, t: t,
		observe:         t.layer("fleet.observe"),
		recommend:       t.layer("fleet.recommend"),
		observeDecision: t.layer("fleet.observe_decision"),
		observeUE:       t.layer("fleet.observe_ue"),
		deploy:          t.layer("fleet.deploy"),
	}
}

func (s *tracedServing) ObserveEvent(e uerl.Event) {
	start := s.t.begin()
	s.c.ObserveEvent(e)
	s.t.end(s.observe, start)
}

func (s *tracedServing) Recommend(node int, at time.Time, cost float64) uerl.Decision {
	start := s.t.begin()
	d := s.c.Recommend(node, at, cost)
	s.t.end(s.recommend, start)
	return d
}

func (s *tracedServing) Policy() uerl.Policy { return s.c.Policy() }

func (s *tracedServing) DeployPolicy(p uerl.Policy) (uerl.Policy, error) {
	start := s.t.begin()
	prev, err := s.c.DeployPolicy(p)
	s.t.end(s.deploy, start)
	return prev, err
}

func (s *tracedServing) ObserveDecision(d uerl.Decision) {
	start := s.t.begin()
	s.c.ObserveDecision(d)
	s.t.end(s.observeDecision, start)
}

func (s *tracedServing) ObserveUE(node int, at time.Time, realized float64) {
	start := s.t.begin()
	s.c.ObserveUE(node, at, realized)
	s.t.end(s.observeUE, start)
}

// tracedTransport wraps the in-process transport, timing every request
// by kind; faults are still injected on the inner transport.
type tracedTransport struct {
	inner fleet.Transport
	t     *tracer
	kinds map[fleet.ReqKind]*layer
	other *layer
}

func newTracedTransport(inner fleet.Transport, t *tracer) *tracedTransport {
	return &tracedTransport{
		inner: inner, t: t,
		kinds: map[fleet.ReqKind]*layer{
			fleet.ReqObserve:         t.layer("transport.observe"),
			fleet.ReqReplay:          t.layer("transport.replay"),
			fleet.ReqRecommend:       t.layer("transport.recommend"),
			fleet.ReqObserveDecision: t.layer("transport.observe_decision"),
		},
		other: t.layer("transport.other"),
	}
}

func (tt *tracedTransport) Call(w int, req *fleet.Request, resp *fleet.Response) error {
	if !tt.t.active {
		return tt.inner.Call(w, req, resp)
	}
	l, ok := tt.kinds[req.Kind]
	if !ok {
		l = tt.other
	}
	start := tt.t.begin()
	err := tt.inner.Call(w, req, resp)
	tt.t.end(l, start)
	tt.t.calls++
	if err != nil {
		tt.t.errors++
	}
	return err
}

// tracedPolicy times the served policy's Decide.
type tracedPolicy struct {
	uerl.Policy
	t *tracer
	l *layer
}

func (p tracedPolicy) Decide(s uerl.Snapshot) uerl.Decision {
	start := p.t.begin()
	d := p.Policy.Decide(s)
	p.t.end(p.l, start)
	return d
}
