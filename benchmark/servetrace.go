package main

import (
	"time"

	uerl "repro"
	"repro/internal/scenario"
)

// traceHooks is the traced serving run. It attributes each Process call
// to a lifecycle rung — a retrain when the audit log (EventsSince) shows
// the call recorded a retrain, otherwise a decision tick or a UE — and,
// for single-process stacks, replays the call's controller and guard
// work on a mirror stack to time those rungs: the learner calls its own
// *Controller and *Guard directly, so they cannot be wrapped.
type traceHooks struct {
	t                  *tracer
	tick, ue, self     *layer
	retrains           []time.Duration
	retrainT, process  time.Duration
	events, seen, pass int
	mirror             *mirror
}

func newTraceHooks() *traceHooks {
	t := newTracer()
	return &traceHooks{
		t:    t,
		tick: t.layer("lifecycle.process_tick"),
		ue:   t.layer("lifecycle.process_ue"),
		self: t.layer("lifecycle.self"),
	}
}

func (h *traceHooks) startPass(c *scenario.Compiled) {
	h.seen = 0
	h.pass++
	if c.Spec.Serving == nil {
		h.mirror = newMirror(c, h.t)
	}
}

func (h *traceHooks) before() { h.t.top() }

func (h *traceHooks) after(s *stack, e uerl.Event, d time.Duration) {
	children := h.t.topEnd()
	evs := s.learner.EventsSince(h.seen)
	h.seen += len(evs)
	retrain := false
	for _, ev := range evs {
		if ev.Kind == uerl.LifecycleRetrain || ev.Kind == uerl.LifecycleRetrainFailed {
			retrain = true
		}
	}
	h.process += d
	h.events++
	switch {
	case retrain:
		h.retrains = append(h.retrains, d)
		h.retrainT += d
	case e.Type == uerl.UncorrectedError:
		h.t.record(h.ue, d)
	default:
		h.t.record(h.tick, d)
		if s.coord != nil {
			h.t.record(h.self, d-children)
		}
	}
	if h.mirror != nil {
		h.mirror.step(s, e)
	}
}

// report sets the serving workloads' per-layer metrics.
func (h *traceHooks) report(r *result, ran []*passOutcome, plainEPS, tracedEPS float64) {
	t := h.t
	// Counts are means over the streams.
	perStream := func(f func(*passOutcome) float64) float64 {
		sum := 0.0
		for _, o := range ran {
			sum += f(o)
		}
		return sum / float64(len(ran))
	}
	count := func(kind uerl.LifecycleEventKind) float64 {
		return perStream(func(o *passOutcome) float64 { return float64(o.EventCounts[string(kind)]) })
	}
	r.set("lifecycle.process_tick_us", t.p50("lifecycle.process_tick"))
	r.set("lifecycle.process_ue_us", t.p50("lifecycle.process_ue"))
	var retrainMS []float64
	for _, d := range h.retrains {
		retrainMS = append(retrainMS, float64(d)/float64(time.Millisecond))
	}
	r.set("lifecycle.retrain_ms", median(retrainMS))
	r.set("lifecycle.retrain_wall_share", float64(h.retrainT)/float64(h.process))
	r.set("lifecycle.retrains", count(uerl.LifecycleRetrain))
	r.set("lifecycle.promotions", count(uerl.LifecyclePromote))
	r.set("lifecycle.rollbacks", count(uerl.LifecycleRollback))
	r.set("lifecycle.experience_dropped", perStream(func(o *passOutcome) float64 { return float64(o.Dropped) }))
	if h.mirror != nil {
		r.set("controller.observe_us", t.p50("controller.observe"))
		r.set("controller.recommend_us", t.p50("controller.recommend"))
		r.set("guard.observe_decision_us", t.p50("guard.observe_decision"))
		r.set("guard.observe_ue_us", t.p50("guard.observe_ue"))
		// The learner's own share of a decision tick: the tick minus the
		// serving and guard calls it makes, as timed on the mirror.
		r.set("lifecycle.self_us", t.mean("lifecycle.process_tick")-t.mean("controller.observe")-
			t.mean("controller.recommend")-t.mean("guard.observe_decision"))
	} else {
		r.set("lifecycle.self_us", t.mean("lifecycle.self"))
		r.set("fleet.observe_us", t.p50("fleet.observe"))
		r.set("fleet.recommend_us", t.p50("fleet.recommend"))
		r.set("fleet.observe_decision_us", t.p50("fleet.observe_decision"))
		// Coordinator self time per event over the three per-event calls.
		self := 0.0
		for _, name := range []string{"fleet.observe", "fleet.recommend", "fleet.observe_decision"} {
			_, n := t.samples(name)
			self += t.self(name) * float64(n)
		}
		r.set("fleet.self_us", self/(float64(h.events)/float64(h.pass)))
		r.set("fleet.replayed_events", perStream(func(o *passOutcome) float64 { return float64(o.Fleet.ReplayedEvents) }))
		r.set("fleet.failovers", perStream(func(o *passOutcome) float64 { return float64(o.Fleet.Failovers) }))
		r.set("fleet.degraded", perStream(func(o *passOutcome) float64 { return float64(o.Score.Degraded) }))
		for _, k := range []string{"observe", "replay", "recommend", "observe_decision"} {
			r.set("transport."+k+"_us", t.p50("transport."+k))
		}
		r.set("transport.calls_per_event", float64(t.calls)/float64(h.events))
		r.set("transport.errors", float64(t.errors)/float64(h.pass))
	}
	r.set("trace.events_per_s", tracedEPS)
	r.set("trace.overhead_pct", 100*(plainEPS-tracedEPS)/plainEPS)
	passes, perPass := t.samples("lifecycle.process_tick")
	note("trace: %d traced passes, %d decision ticks per pass; %d retrain calls; per-layer times are medians over passes of each pass's p50",
		passes, perPass, len(h.retrains))
	note("trace: untraced %.0f events per CPU-second, traced %.0f (traced CPU includes the mirror and audit-log reads)", plainEPS, tracedEPS)
}

// mirror is a second Controller (and budget Guard) fed the same events
// and serving the same policy as the measured single-process stack,
// timing the controller and guard calls the learner makes internally.
type mirror struct {
	ctl    *uerl.Controller
	g      *uerl.Guard
	cost   uerl.CostFunc
	served uerl.Policy
	t      *tracer

	observe, recommend, observeDecision, observeUE *layer
}

func newMirror(c *scenario.Compiled, t *tracer) *mirror {
	initial, _ := initialPolicy(c.Spec.Lifecycle.InitialPolicy) // buildStack already validated it
	m := &mirror{
		ctl: uerl.NewController(initial), served: initial, cost: c.Cost, t: t,
		observe:         t.layer("controller.observe"),
		recommend:       t.layer("controller.recommend"),
		observeDecision: t.layer("guard.observe_decision"),
		observeUE:       t.layer("guard.observe_ue"),
	}
	if gs := c.Spec.Lifecycle.Guard; gs != nil {
		m.g = uerl.NewGuard(m.ctl, budgetOptions(gs, c)...)
	}
	return m
}

func (m *mirror) step(s *stack, e uerl.Event) {
	if p := s.ctl.Policy(); p != m.served {
		m.ctl.SwapPolicy(p)
		m.served = p
	}
	t0 := time.Now()
	m.ctl.ObserveEvent(e)
	m.t.record(m.observe, time.Since(t0))
	cost := m.cost(e.Node, e.Time)
	if e.Type == uerl.UncorrectedError {
		if m.g != nil {
			t0 = time.Now()
			m.g.ObserveUE(e.Node, e.Time, cost)
			m.t.record(m.observeUE, time.Since(t0))
		}
		return
	}
	t0 = time.Now()
	d := m.ctl.Recommend(e.Node, e.Time, cost)
	m.t.record(m.recommend, time.Since(t0))
	if m.g != nil {
		t0 = time.Now()
		m.g.ObserveDecision(d)
		m.t.record(m.observeDecision, time.Since(t0))
	}
}
