package scenario

import (
	"fmt"
	"slices"
	"time"

	uerl "repro"
	"repro/internal/errlog"
	"repro/internal/mathx"
	"repro/internal/telemetry"
)

// mn3Nodes is the full-scale fleet the telemetry defaults are calibrated
// for; scenario fleets scale the absolute counts proportionally.
const mn3Nodes = 3056

// injectionSalt decorrelates the fault-injection RNG tree from the
// telemetry generator, which consumes Spec.Seed directly.
const injectionSalt = 0x5ce7a510

// WorkerFault is one compiled serving-layer fault.
type WorkerFault struct {
	At     time.Time
	Worker int
	Kind   string
}

// Window is a closed time interval, used for the attack windows burst
// trains cover.
type Window struct {
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.Start) && !t.After(w.End)
}

// Compiled is a scenario lowered to a concrete event stream: the final
// sorted telemetry the runner feeds the serving stack, plus everything
// the survival scorer needs to interpret it.
type Compiled struct {
	Spec  Spec
	Start time.Time
	End   time.Time
	// Events is the full stream, time-sorted, injections applied.
	Events []uerl.Event
	// GeneratedUEs and InjectedUEs split the uncorrected errors between
	// the generative fault model and the burst injections.
	GeneratedUEs int
	InjectedUEs  int
	// AttackWindows covers each injected burst train; UEs inside them
	// score the recall-under-attack survival metric.
	AttackWindows []Window
	// Dropped/Delayed/Duplicated count events the delivery faults
	// removed, shifted, or re-delivered.
	Dropped    int
	Delayed    int
	Duplicated int
	// WorkerFaults is the serving-layer fault schedule lowered to
	// absolute times, in schedule order (empty without a Serving
	// section); the runner applies each fault to the fleet transport
	// just before the first event at or after its time.
	WorkerFaults []WorkerFault
	// Cost is the workload model: the potential/realized UE cost at any
	// instant, following the spec's cost phases.
	Cost uerl.CostFunc
	// MitigationCostNodeMinutes and Restartable mirror the workload spec
	// with defaults applied.
	MitigationCostNodeMinutes float64
	Restartable               bool

	// The run seams: inputs a spec file cannot carry. Compile leaves them
	// zero; callers set them before RunCompiled.
	//
	// Initial, when set, serves from event zero in place of the spec's
	// lifecycle.initial_policy — how a trained model artifact enters a
	// run. The summary's InitialVersion and lineage name it.
	Initial uerl.Policy
	// Probe, when set, is invoked with the built serving layer and
	// learner — a Controller or a fleet Coordinator — before the stream
	// is fed; the returned stop function (if any) runs once the run
	// finishes. Callers read the audit log or the final serving model
	// through it, and tests attach concurrent Recommend probers. The
	// runner never serves through it, so a probe cannot perturb the
	// summary.
	Probe func(serving uerl.Serving, l *uerl.OnlineLearner) (stop func())
}

// Compile validates the spec and lowers it to a Compiled stream. The
// result is a pure function of the spec: same spec, byte-identical
// stream, on any GOMAXPROCS and under the race detector.
func Compile(spec Spec) (*Compiled, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	base := baseConfig(spec)
	start := base.Start
	c := &Compiled{
		Spec:                      spec,
		Start:                     start,
		End:                       start.Add(day(spec.DurationDays)),
		MitigationCostNodeMinutes: spec.Workload.MitigationCostNodeMinutes,
		Restartable:               true,
	}
	if c.MitigationCostNodeMinutes == 0 {
		c.MitigationCostNodeMinutes = 2
	}
	if spec.Workload.Restartable != nil {
		c.Restartable = *spec.Workload.Restartable
	}
	c.Cost = compileCost(spec, start)

	// Generate the drift phases back to back. Phase i gets seed Seed+i so
	// a shifted generator re-rolls its world rather than replaying the
	// pre-drift one with different rates; each phase's log is sorted and
	// confined to its window, so plain concatenation stays time-ordered.
	for _, cfg := range phaseConfigs(spec, base) {
		log := telemetry.Generate(cfg)
		c.Events = slices.Grow(c.Events, len(log.Events))
		for _, e := range log.Events {
			ev, ok := toServing(e)
			if !ok {
				continue
			}
			if ev.Type == uerl.UncorrectedError {
				c.GeneratedUEs++
			}
			c.Events = append(c.Events, ev)
		}
	}

	// Apply the injection schedule in spec order, each primitive drawing
	// from its own forked RNG so adding or reparameterizing one fault
	// never perturbs another's stream.
	injRoot := mathx.NewRNG(spec.Seed ^ injectionSalt)
	for _, f := range spec.Faults {
		rng := injRoot.Fork()
		switch f.Kind {
		case FaultBurst:
			c.injectBurst(f, rng)
		case FaultRamp:
			c.applyRamp(f)
		case FaultBlackout:
			c.applyBlackout(f)
		case FaultDelay:
			c.applyDelay(f)
		case FaultDuplicate:
			c.applyDuplicate(f, rng)
		}
	}

	// Only the burst, delay and duplicate faults leave the stream out of
	// time order; one stable sort restores it while keeping the
	// deterministic construction order on ties.
	byTime := func(a, b uerl.Event) int { return a.Time.Compare(b.Time) }
	if !slices.IsSortedFunc(c.Events, byTime) {
		slices.SortStableFunc(c.Events, byTime)
	}

	// The serving-layer schedule is validated non-decreasing, so the
	// lowered form is already time-sorted.
	if spec.Serving != nil {
		for _, f := range spec.Serving.Faults {
			c.WorkerFaults = append(c.WorkerFaults, WorkerFault{
				At: start.Add(day(f.AtDay)), Worker: f.Worker, Kind: f.Kind,
			})
		}
	}
	return c, nil
}

// baseConfig builds the phase-0 generator configuration: the calibrated
// defaults scaled to the fleet, livened for a days-long run, with the
// spec's fleet shape and telemetry overlay applied.
func baseConfig(spec Spec) telemetry.Config {
	cfg := telemetry.Default().Scale(float64(spec.Fleet.Nodes) / mn3Nodes)
	cfg.Nodes = spec.Fleet.Nodes
	cfg.Seed = spec.Seed
	cfg.Duration = day(spec.DurationDays)
	// The full-scale defaults are calibrated for a two-year log; scenario
	// runs last days, so the per-DIMM rates are livened the same way the
	// serving demo always has.
	cfg.CEEntriesPerDay *= 4
	cfg.FaultyDIMMFraction *= 2
	if spec.Fleet.DIMMsPerNode > 0 {
		cfg.DIMMsPerNode = spec.Fleet.DIMMsPerNode
	}
	if spec.Fleet.ManufacturerShares != nil {
		cfg.ManufacturerShares = *spec.Fleet.ManufacturerShares
	}
	if spec.Fleet.FaultMultiplier != nil {
		cfg.FaultMultiplier = *spec.Fleet.FaultMultiplier
	}
	applyOverlay(&cfg, spec.Telemetry)
	return cfg
}

// phaseConfigs slices the scenario into per-drift-phase generator
// configurations. Phase 0 is the base; each drift phase restarts the
// generator at its boundary with the phase's overlay applied to the
// phase-0 rates (not cumulatively), seeded Seed+phase.
func phaseConfigs(spec Spec, base telemetry.Config) []telemetry.Config {
	bounds := []float64{0}
	for _, d := range spec.Drift {
		bounds = append(bounds, d.AtDay)
	}
	bounds = append(bounds, spec.DurationDays)

	out := make([]telemetry.Config, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		cfg := base
		cfg.Seed = spec.Seed + int64(i)
		cfg.Start = base.Start.Add(day(bounds[i]))
		cfg.Duration = day(bounds[i+1] - bounds[i])
		if i > 0 {
			d := spec.Drift[i-1]
			applyOverlay(&cfg, d.Overlay)
			if d.ManufacturerShares != nil {
				cfg.ManufacturerShares = *d.ManufacturerShares
			}
			if d.FaultMultiplier != nil {
				cfg.FaultMultiplier = *d.FaultMultiplier
			}
		}
		// UE counts are absolute per generator run: prorate to the phase
		// length so drift phases don't each re-emit the full scenario's
		// UE allotment.
		frac := (bounds[i+1] - bounds[i]) / spec.DurationDays
		cfg.SignaledUEs = max(1, int(float64(cfg.SignaledUEs)*frac+0.5))
		cfg.SuddenUEs = max(1, int(float64(cfg.SuddenUEs)*frac+0.5))
		cfg.RetiredDIMMs = int(float64(cfg.RetiredDIMMs)*frac + 0.5)
		out = append(out, cfg)
	}
	return out
}

// applyOverlay multiplies cfg's rates by the overlay (zero multiplier =
// unchanged).
func applyOverlay(cfg *telemetry.Config, o OverlaySpec) {
	cfg.CEEntriesPerDay *= mult(o.CERateMult)
	cfg.MeanCEBurst *= mult(o.CEBurstMult)
	cfg.FaultyDIMMFraction *= mult(o.FaultyFractionMult)
	cfg.StormsPerFaultyDIMM *= mult(o.StormMult)
	if o.UEMult != 0 {
		cfg.SignaledUEs = max(1, int(float64(cfg.SignaledUEs)*o.UEMult+0.5))
		cfg.SuddenUEs = max(1, int(float64(cfg.SuddenUEs)*o.UEMult+0.5))
	}
}

// mult treats a zero overlay multiplier as 1 (field omitted).
func mult(m float64) float64 {
	if m == 0 {
		return 1
	}
	return m
}

// toServing converts an internal log record to a serving event.
// Retirements are administrative records, not node telemetry.
func toServing(e errlog.Event) (uerl.Event, bool) {
	var typ uerl.EventType
	switch e.Type {
	case errlog.CE:
		typ = uerl.CorrectedError
	case errlog.UEWarning:
		typ = uerl.UEWarning
	case errlog.Boot:
		typ = uerl.NodeBoot
	case errlog.UE:
		typ = uerl.UncorrectedError
	default:
		return uerl.Event{}, false
	}
	return uerl.Event{
		Time: e.Time, Node: e.Node, DIMM: e.DIMM, Type: typ, Count: e.Count,
		Rank: e.Rank, Bank: e.Bank, Row: e.Row, Col: e.Col,
	}, true
}

// injectBurst appends the RowHammer-style burst trains: per train an
// optional CE-storm prefix (attack shaping) followed by UEs striking
// round-robin across the node range, and records the attack window.
func (c *Compiled) injectBurst(f FaultSpec, rng *mathx.RNG) {
	lo, hi := nodeRange(f, c.Spec.Fleet.Nodes)
	span := hi - lo
	trains := f.Trains
	if trains <= 0 {
		trains = 1
	}
	spacing := time.Duration(f.SpacingSeconds * float64(time.Second))
	if spacing <= 0 {
		spacing = 15 * time.Second
	}
	gap := time.Duration(f.TrainGapHours * float64(time.Hour))
	if gap <= 0 {
		gap = 6 * time.Hour
	}
	for t := 0; t < trains; t++ {
		at := c.Start.Add(day(f.StartDay)).Add(time.Duration(t) * gap)
		if at.After(c.End) {
			break
		}
		// The attack window opens at the shaping prefix: vetoes during
		// the prefix storm are part of the attack's blast radius.
		winStart := at.Add(-time.Duration(f.CEPrefix) * time.Second)
		for i := f.CEPrefix; i > 0; i-- {
			c.Events = append(c.Events, uerl.Event{
				Time: at.Add(-time.Duration(i) * time.Second),
				Node: lo + (f.CEPrefix-i)%span, DIMM: -1,
				Type: uerl.CorrectedError, Count: 1 + rng.Intn(32),
				Rank: -1, Bank: -1, Row: -1, Col: -1,
			})
		}
		last := at
		for i := 0; i < f.UEs; i++ {
			last = at.Add(time.Duration(i) * spacing)
			c.Events = append(c.Events, uerl.Event{
				Time: last, Node: lo + i%span, DIMM: -1,
				Type: uerl.UncorrectedError, Count: 1,
				Rank: -1, Bank: -1, Row: -1, Col: -1,
			})
			c.InjectedUEs++
		}
		c.AttackWindows = append(c.AttackWindows, Window{Start: winStart, End: last})
	}
}

// applyRamp scales CE counts in the window linearly from 1× at StartDay
// to RateMult× at EndDay.
func (c *Compiled) applyRamp(f FaultSpec) {
	lo, hi := nodeRange(f, c.Spec.Fleet.Nodes)
	start := c.Start.Add(day(f.StartDay))
	end := c.Start.Add(day(f.EndDay))
	width := end.Sub(start)
	for i := range c.Events {
		e := &c.Events[i]
		if e.Type != uerl.CorrectedError || e.Node < lo || e.Node >= hi ||
			e.Time.Before(start) || !e.Time.Before(end) {
			continue
		}
		frac := float64(e.Time.Sub(start)) / float64(width)
		m := 1 + (f.RateMult-1)*frac
		count := e.Count
		if count <= 0 {
			count = 1
		}
		e.Count = int(float64(count)*m + 0.5)
		if e.Count < 1 {
			e.Count = 1
		}
	}
}

// applyBlackout drops every event from the node range in the window.
func (c *Compiled) applyBlackout(f FaultSpec) {
	lo, hi := nodeRange(f, c.Spec.Fleet.Nodes)
	start := c.Start.Add(day(f.StartDay))
	end := c.Start.Add(day(f.EndDay))
	kept := c.Events[:0]
	for _, e := range c.Events {
		if e.Node >= lo && e.Node < hi && !e.Time.Before(start) && e.Time.Before(end) {
			c.Dropped++
			continue
		}
		kept = append(kept, e)
	}
	c.Events = kept
}

// applyDelay shifts delivery of the node range's events in the window by
// DelayMinutes.
func (c *Compiled) applyDelay(f FaultSpec) {
	lo, hi := nodeRange(f, c.Spec.Fleet.Nodes)
	start := c.Start.Add(day(f.StartDay))
	end := c.Start.Add(day(f.EndDay))
	shift := time.Duration(f.DelayMinutes * float64(time.Minute))
	for i := range c.Events {
		e := &c.Events[i]
		if e.Node >= lo && e.Node < hi && !e.Time.Before(start) && e.Time.Before(end) {
			e.Time = e.Time.Add(shift)
			c.Delayed++
		}
	}
}

// applyDuplicate re-delivers a deterministic fraction of the node
// range's events in the window one second late.
func (c *Compiled) applyDuplicate(f FaultSpec, rng *mathx.RNG) {
	lo, hi := nodeRange(f, c.Spec.Fleet.Nodes)
	start := c.Start.Add(day(f.StartDay))
	end := c.Start.Add(day(f.EndDay))
	n := len(c.Events) // iterate the pre-duplication stream only
	for i := 0; i < n; i++ {
		e := c.Events[i]
		if e.Node < lo || e.Node >= hi || e.Time.Before(start) || !e.Time.Before(end) {
			continue
		}
		if !rng.Bool(f.Fraction) {
			continue
		}
		dup := e
		dup.Time = dup.Time.Add(time.Second)
		c.Events = append(c.Events, dup)
		c.Duplicated++
	}
}

// compileCost builds the workload cost model from the spec's phases.
func compileCost(spec Spec, start time.Time) uerl.CostFunc {
	base := spec.Workload.CostNodeHours
	if base == 0 {
		base = 100
	}
	if len(spec.Workload.Phases) == 0 {
		return uerl.ConstantCost(base)
	}
	type step struct {
		at   time.Time
		cost float64
	}
	steps := make([]step, 0, len(spec.Workload.Phases))
	for _, p := range spec.Workload.Phases {
		steps = append(steps, step{start.Add(day(p.AtDay)), p.CostNodeHours})
	}
	return func(_ int, at time.Time) float64 {
		cost := base
		for _, s := range steps {
			if at.Before(s.at) {
				break
			}
			cost = s.cost
		}
		return cost
	}
}

// InAttack reports whether t falls inside any attack window.
func (c *Compiled) InAttack(t time.Time) bool {
	for _, w := range c.AttackWindows {
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// String summarizes the compiled stream.
func (c *Compiled) String() string {
	return fmt.Sprintf("scenario %q: %d nodes, %.1f days, %d events (%d generated + %d injected UEs, %d dropped, %d delayed, %d duplicated)",
		c.Spec.Name, c.Spec.Fleet.Nodes, c.Spec.DurationDays, len(c.Events),
		c.GeneratedUEs, c.InjectedUEs, c.Dropped, c.Delayed, c.Duplicated)
}
