package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	uerl "repro"
	"repro/internal/mathx"
	"repro/internal/scenario"
)

// pollInput is poll-mixed's set-up: the stream, the five served policies
// in phase order and the guard budget.
type pollInput struct {
	c     *scenario.Compiled
	pols  []uerl.Policy
	gs    *scenario.GuardSpec
	nodes []int
}

// pollPass is one pass's tally. The poller goroutine owns it until the
// pass's WaitGroup releases it.
type pollPass struct {
	ingest                             time.Duration
	polls, vetoed, violations, aheadOf uint64
	lat                                []time.Duration
}

// pollTrace holds the poller's and the ingester's tracers; each belongs
// to one goroutine.
type pollTrace struct {
	poll, ingest                    *tracer
	recommend, observeDecision, obs *layer
	byName                          map[string]*layer
	decide                          []*layer
}

func newPollTrace(pols []uerl.Policy) *pollTrace {
	pt := &pollTrace{poll: newTracer(), ingest: newTracer(), byName: map[string]*layer{}}
	pt.recommend = pt.poll.layer("controller.recommend")
	pt.observeDecision = pt.poll.layer("guard.observe_decision")
	pt.obs = pt.ingest.layer("controller.observe")
	for i, p := range pols {
		pt.byName[p.Name()] = pt.poll.layer("controller.recommend." + kinds[i])
		pt.decide = append(pt.decide, pt.poll.layer("policy.decide."+kinds[i]))
	}
	return pt
}

// runPollMixed measures reads beside writes on one guarded Controller.
// The calling goroutine ingests the stream with ObserveEvent in closed
// loop; one poller goroutine calls Recommend in closed loop and feeds each
// served decision to Guard.ObserveDecision. The served policy steps
// through the five kinds by ingest position, so every kind sees the same
// write pressure, and the poller stops when ingest ends. Pollers query at
// the newest ingested event time, never ahead of it.
func runPollMixed(cfg config, r *result) error {
	var in pollInput
	var compile []float64
	setup, err := timeSetup(3, func() error {
		spec, err := driftSpec(repoRoot, cfg.seed)
		if err != nil {
			return err
		}
		loss, err := loadSpec(repoRoot, "worker-loss")
		if err != nil {
			return err
		}
		t0 := time.Now()
		c, err := scenario.Compile(spec)
		if err != nil {
			return err
		}
		compile = append(compile, time.Since(t0).Seconds())
		// The served models are the CI-budget fits of the default world:
		// the seed varies the telemetry stream they serve, not the models.
		sys := uerl.NewSystem(uerl.WithBudgetCI())
		pols := make([]uerl.Policy, len(kinds))
		for i, k := range kinds {
			if pols[i], err = sys.TrainPolicy(uerl.PolicyKind(k)); err != nil {
				return err
			}
		}
		in = pollInput{c: c, pols: pols, gs: loss.Lifecycle.Guard, nodes: streamNodes(c)}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	r.set("scenario.compile_s", median(compile))
	n := len(in.c.Events)
	note("stream: %d events, %d nodes; phases %v, %d events each", n, len(in.nodes), kinds, n/len(kinds))

	var pt *pollTrace
	if cfg.trace {
		pt = newPollTrace(in.pols)
	}
	rng := mathx.NewRNG(cfg.seed)
	lat := make([]time.Duration, 0, 1<<18)
	var (
		eps, pps, p50s, p99s, allocs, tracedEPS []float64
		ctl                                     *uerl.Controller
		g                                       *uerl.Guard
		polls                                   []float64
	)
	start := time.Now()
	for pass := 0; ; pass++ {
		elapsed := time.Since(start).Seconds()
		traced := pt != nil && pass > 0 && elapsed >= cfg.seconds/2
		if pass > 0 && elapsed >= cfg.seconds && (pt == nil || len(tracedEPS) > 0) {
			break
		}
		var ptr *pollTrace
		if traced {
			ptr = pt
		}
		runtime.GC()
		m0 := mallocs()
		var p pollPass
		p.lat = lat[:0]
		ctl, g = pollPassRun(in, rng, &p, ptr)
		m1 := mallocs()
		lat = p.lat
		switch {
		case p.violations > 0:
			return gatef("%d vetoed decisions served an action other than ActionNone", p.violations)
		case p.aheadOf > 0:
			return gatef("%d polls queried ahead of the newest ingested event", p.aheadOf)
		case g.Stats().SuppressedMitigations != p.vetoed:
			return gatef("guard suppressed %d mitigations but the poller was served %d vetoes", g.Stats().SuppressedMitigations, p.vetoed)
		}
		r.attempted += int64(n) + int64(p.polls)
		r.failed += int64(p.violations)
		if traced {
			pt.poll.flush()
			pt.ingest.flush()
			tracedEPS = append(tracedEPS, float64(n)/p.ingest.Seconds())
			continue
		}
		eps = append(eps, float64(n)/p.ingest.Seconds())
		pps = append(pps, float64(p.polls)/p.ingest.Seconds())
		polls = append(polls, float64(p.polls))
		p50s = append(p50s, us(quantile(p.lat, 0.50)))
		p99s = append(p99s, us(quantile(p.lat, 0.99)))
		allocs = append(allocs, float64(m1-m0)/float64(uint64(n)+p.polls))
	}
	if pt != nil {
		r.set("controller.recommend_allocs", recommendAllocs(ctl, in))
	}
	ctl, g = nil, nil

	// The served stream is timing-dependent (the poller runs free), so
	// decision quality is scored on the deterministic twin: the same
	// phases with one Recommend per decision tick at its event time.
	first, _, err := pollScore(in)
	if err != nil {
		return err
	}
	again, twin, err := pollScore(in)
	if err != nil {
		return err
	}
	if first != again {
		return gatef("scoring pass diverged on the same seed: %+v vs %+v", first, again)
	}
	r.set("guard.trips", float64(twin.Stats().BudgetTrips))
	// The twin's stack (its guard holds the controller) is what heap_mb
	// weighs: unlike the timed passes' stacks, its guard state does not
	// depend on how many polls ran.
	heap := retainedMiB(func() { twin, in.pols = nil, nil }, in.c, lat)

	r.set("events_per_s", median(eps))
	r.set("decisions_per_s", median(pps))
	r.set("latency_p50_us", median(p50s))
	r.set("latency_p99_us", median(p99s))
	r.set("heap_mb", heap)
	r.set("lost_node_hours", first.LostNodeHours)
	r.set("failed_frac", 0)
	r.set("allocs_per_event", median(allocs))
	r.set("guard.vetoes", float64(first.Vetoed))
	note("samples: %d untraced passes, median %.0f polls per pass (%.1f per ingested event); latency is per Recommend poll; each pass's p99 has %.0f polls beyond it",
		len(eps), median(polls), median(polls)/float64(n), median(polls)/100)
	note("polls_per_s=%.1f poll_p50_us=%.4f poll_p99_us=%.4f allocs_per_op=%.3f", median(pps), median(p50s), median(p99s), median(allocs))
	note("scored tick stream: %+v", first)
	if pt != nil {
		pt.report(r, median(eps), median(tracedEPS))
	}
	return nil
}

// streamNodes lists the stream's node ids in ascending order.
func streamNodes(c *scenario.Compiled) []int {
	seen := map[int]bool{}
	var nodes []int
	for _, e := range c.Events {
		if !seen[e.Node] {
			seen[e.Node] = true
			nodes = append(nodes, e.Node)
		}
	}
	slices.Sort(nodes)
	return nodes
}

// pollPassRun runs one pass into a fresh guarded controller and returns
// it with its guard.
func pollPassRun(in pollInput, rng *mathx.RNG, p *pollPass, pt *pollTrace) (*uerl.Controller, *uerl.Guard) {
	served := in.pols
	if pt != nil {
		served = make([]uerl.Policy, len(in.pols))
		for i, pol := range in.pols {
			served[i] = tracedPolicy{Policy: pol, t: pt.poll, l: pt.decide[i]}
		}
	}
	c := in.c
	ctl := uerl.NewController(served[0])
	g := uerl.NewGuard(ctl, budgetOptions(in.gs, c)...)
	var newest atomic.Int64 // UnixNano of the newest ingested event; 0 before the first
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		poll(ctl, g, in, rng, &newest, &stop, p, pt)
	}()
	n := len(c.Events)
	phase := 0
	t0 := time.Now()
	for i, e := range c.Events {
		if k := i * len(served) / n; k != phase {
			phase = k
			ctl.SwapPolicy(served[k])
		}
		if pt != nil {
			s := time.Now()
			ctl.ObserveEvent(e)
			pt.ingest.record(pt.obs, time.Since(s))
		} else {
			ctl.ObserveEvent(e)
		}
		newest.Store(e.Time.UnixNano())
	}
	p.ingest = time.Since(t0)
	stop.Store(true)
	wg.Wait()
	return ctl, g
}

// poll is the poller's closed loop.
func poll(ctl *uerl.Controller, g *uerl.Guard, in pollInput, rng *mathx.RNG, newest *atomic.Int64, stop *atomic.Bool, p *pollPass, pt *pollTrace) {
	for !stop.Load() {
		at := newest.Load()
		if at == 0 {
			runtime.Gosched()
			continue
		}
		node := in.nodes[rng.Intn(len(in.nodes))]
		when := time.Unix(0, at)
		cost := in.c.Cost(node, when)
		var d uerl.Decision
		if pt != nil {
			pt.poll.top()
			start := pt.poll.begin()
			d = ctl.Recommend(node, when, cost)
			pt.poll.end(pt.recommend, start)
			pt.poll.topEnd()
			pt.poll.record(pt.byName[d.Policy], pt.recommend.durs[len(pt.recommend.durs)-1])
			s := time.Now()
			g.ObserveDecision(d)
			pt.poll.record(pt.observeDecision, time.Since(s))
		} else {
			s := time.Now()
			d = ctl.Recommend(node, when, cost)
			p.lat = append(p.lat, time.Since(s))
			g.ObserveDecision(d)
		}
		if at > newest.Load() {
			p.aheadOf++
		}
		p.polls++
		if d.Vetoed {
			p.vetoed++
		}
		if (d.Vetoed || d.Degraded) && d.Action != uerl.ActionNone {
			p.violations++
		}
	}
}

// pollScore serves the stream deterministically — same phases, one
// Recommend per decision tick at its event time, each decision charged
// to the guard — and scores the served decisions against realized UEs.
func pollScore(in pollInput) (score, *uerl.Guard, error) {
	c := in.c
	ctl := uerl.NewController(in.pols[0])
	g := uerl.NewGuard(ctl, budgetOptions(in.gs, c)...)
	var (
		log                []outcome
		vetoed, violations uint64
		n, phase           = len(c.Events), 0
	)
	for i, e := range c.Events {
		if k := i * len(in.pols) / n; k != phase {
			phase = k
			ctl.SwapPolicy(in.pols[k])
		}
		ctl.ObserveEvent(e)
		cost := c.Cost(e.Node, e.Time)
		if e.Type == uerl.UncorrectedError {
			g.ObserveUE(e.Node, e.Time, cost)
			log = append(log, outcome{at: e.Time, node: e.Node, realized: cost, ue: true})
			continue
		}
		d := ctl.Recommend(e.Node, e.Time, cost)
		g.ObserveDecision(d)
		log = append(log, outcome{at: e.Time, node: e.Node, mitigate: d.Mitigate()})
		if d.Vetoed {
			vetoed++
			if d.Action != uerl.ActionNone {
				violations++
			}
		}
	}
	if violations > 0 {
		return score{}, nil, gatef("scoring pass: %d vetoed decisions served an action other than ActionNone", violations)
	}
	if s := g.Stats().SuppressedMitigations; s != vetoed {
		return score{}, nil, gatef("scoring pass: guard suppressed %d mitigations but served %d vetoes", s, vetoed)
	}
	return scoreLog(log, c, vetoed, 0), g, nil
}

// recommendAllocs is the mean heap allocations per Recommend over the
// five kinds, on the last pass's fully ingested controller.
func recommendAllocs(ctl *uerl.Controller, in pollInput) float64 {
	const calls = 2000
	last := in.c.Events[len(in.c.Events)-1].Time
	total := 0.0
	for _, p := range in.pols {
		ctl.SwapPolicy(p)
		m0 := mallocs()
		for i := 0; i < calls; i++ {
			node := in.nodes[i%len(in.nodes)]
			ctl.Recommend(node, last, in.c.Cost(node, last))
		}
		total += float64(mallocs()-m0) / calls
	}
	return total / float64(len(in.pols))
}

// report sets poll-mixed's per-layer metrics.
func (pt *pollTrace) report(r *result, plainEPS, tracedEPS float64) {
	r.set("controller.observe_us", pt.ingest.p50("controller.observe"))
	r.set("controller.recommend_us", pt.poll.p50("controller.recommend"))
	for _, k := range kinds {
		r.set("controller.recommend."+k+"_us", pt.poll.p50("controller.recommend."+k))
		r.set("policy.decide."+k+"_us", pt.poll.p50("policy.decide."+k))
	}
	r.set("guard.observe_decision_us", pt.poll.p50("guard.observe_decision"))
	r.set("trace.events_per_s", tracedEPS)
	r.set("trace.overhead_pct", 100*(plainEPS-tracedEPS)/plainEPS)
	passes, perPass := pt.poll.samples("controller.recommend")
	note("trace: %d traced passes, %d polls in the last; per-layer times are medians over passes of each pass's p50", passes, perPass)
	note("trace: untraced %.0f ingested events/s, traced %.0f", plainEPS, tracedEPS)
}
