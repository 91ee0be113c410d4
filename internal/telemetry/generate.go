package telemetry

import (
	"math"
	"time"

	"repro/internal/errlog"
	"repro/internal/mathx"
)

// dimmState describes one simulated DIMM.
type dimmState struct {
	id           int
	node         int
	manufacturer errlog.Manufacturer
	faulty       bool
	onset        time.Time // fault onset, valid when faulty
	// Fault locality: a fault affects one rank/bank and a few rows.
	rank, bank int
	rows       []int
}

// Generate synthesizes a full error log from cfg. The result is sorted and
// unpreprocessed (raw): callers apply errlog.Preprocess to obtain the
// training/evaluation view, exactly as the paper filters its raw logs.
func Generate(cfg Config) *errlog.Log {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	root := mathx.NewRNG(cfg.Seed)
	nodeMfr := assignManufacturers(cfg, root.Fork())
	dimms := buildDIMMs(cfg, nodeMfr, root.Fork())

	log := &errlog.Log{Events: make([]errlog.Event, 0, eventCapacity(cfg, dimms))}
	end := cfg.Start.Add(cfg.Duration)

	genBoots(cfg, dimms, nodeMfr, root.Fork(), log)
	genFaultyCEs(cfg, dimms, root.Fork(), log, end)
	genBackgroundCEs(cfg, dimms, root.Fork(), log, end)
	genUEs(cfg, dimms, root.Fork(), log, end)
	genRetirements(cfg, dimms, root.Fork(), log, end)

	log.Sort()
	return log
}

// eventCapacity sizes the event log for the drawn DIMM population: the
// expected boots, faulty-DIMM CE records (base rate from onset, storms
// with their warnings), background CEs, UEs with their escalations and
// bursts, and retirements, plus headroom for the draws' spread, so the
// generators append without regrowing it. It reads the DIMM states only
// and draws nothing, so the generated stream does not depend on it.
func eventCapacity(cfg Config, dimms []*dimmState) int {
	days := cfg.Duration.Hours() / 24
	end := cfg.Start.Add(cfg.Duration)
	boost := cfg.StormBoost
	if boost <= 0 {
		boost = 8
	}
	stormRate := cfg.CEEntriesPerDay*boost + cfg.WarningsPerStormDay
	// Storm lengths are exponential, clamped below at half a day.
	stormDays := 0.5 + cfg.StormDurationDays*math.Exp(-0.5/cfg.StormDurationDays)
	n := float64(cfg.Nodes) * (1 + days/cfg.BootIntervalDays)
	for _, d := range dimms {
		if !d.faulty {
			n += cfg.BackgroundCEPerDIMMYear * days / 365
			continue
		}
		span := end.Sub(d.onset).Hours() / 24
		n += span*cfg.CEEntriesPerDay + cfg.StormsPerFaultyDIMM*stormDays*stormRate +
			span*max(cfg.FaultyNodeBootMultiplier-1, 0)/cfg.BootIntervalDays
	}
	n += float64(cfg.SignaledUEs)*(cfg.EscalationDays*stormRate+1+cfg.UEBurstMean) +
		float64(cfg.SuddenUEs)*(1+cfg.UEBurstMean) + float64(cfg.RetiredDIMMs)
	if !(n >= 0 && n < 1e8) {
		return 0 // negative or absurd rates: no size hint, the log grows as needed
	}
	return int(1.1*n) + 256
}

// assignManufacturers deterministically assigns one manufacturer per node
// in proportion to the configured shares.
func assignManufacturers(cfg Config, rng *mathx.RNG) []errlog.Manufacturer {
	out := make([]errlog.Manufacturer, cfg.Nodes)
	// Deterministic proportional blocks, then shuffle for spatial mixing.
	total := 0.0
	for _, s := range cfg.ManufacturerShares {
		total += s
	}
	idx := 0
	for m := 0; m < errlog.NumManufacturers; m++ {
		n := int(float64(cfg.Nodes)*cfg.ManufacturerShares[m]/total + 0.5)
		for i := 0; i < n && idx < cfg.Nodes; i++ {
			out[idx] = errlog.Manufacturer(m)
			idx++
		}
	}
	for ; idx < cfg.Nodes; idx++ {
		out[idx] = errlog.ManufacturerC
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// buildDIMMs creates the DIMM population and selects the faulty subset.
func buildDIMMs(cfg Config, nodeMfr []errlog.Manufacturer, rng *mathx.RNG) []*dimmState {
	dimms := make([]*dimmState, 0, cfg.Nodes*cfg.DIMMsPerNode)
	for node := 0; node < cfg.Nodes; node++ {
		mfr := nodeMfr[node]
		for slot := 0; slot < cfg.DIMMsPerNode; slot++ {
			d := &dimmState{
				id:           node*cfg.DIMMsPerNode + slot,
				node:         node,
				manufacturer: mfr,
			}
			p := cfg.FaultyDIMMFraction * cfg.FaultMultiplier[mfr]
			if rng.Bool(p) {
				d.faulty = true
				d.onset = cfg.Start.Add(time.Duration(rng.Float64() * float64(cfg.Duration)))
				d.rank = rng.Intn(4)
				d.bank = rng.Intn(16)
				nrows := 1 + rng.Intn(4)
				for r := 0; r < nrows; r++ {
					d.rows = append(d.rows, rng.Intn(1<<16))
				}
			}
			dimms = append(dimms, d)
		}
	}
	return dimms
}

// genBoots emits routine node boots as Poisson processes; nodes holding a
// faulty DIMM boot more frequently after fault onset.
func genBoots(cfg Config, dimms []*dimmState, nodeMfr []errlog.Manufacturer, rng *mathx.RNG, log *errlog.Log) {
	end := cfg.Start.Add(cfg.Duration)
	faultyNode := map[int]time.Time{}
	for _, d := range dimms {
		if d.faulty {
			if t, ok := faultyNode[d.node]; !ok || d.onset.Before(t) {
				faultyNode[d.node] = d.onset
			}
		}
	}
	for node := 0; node < cfg.Nodes; node++ {
		nrng := rng.Fork()
		t := cfg.Start
		// Every node boots at the start of the period.
		log.Events = append(log.Events, bootEvent(cfg.Start, node, nodeMfr[node]))
		for {
			interval := cfg.BootIntervalDays
			if onset, ok := faultyNode[node]; ok && t.After(onset) && cfg.FaultyNodeBootMultiplier > 0 {
				interval /= cfg.FaultyNodeBootMultiplier
			}
			t = t.Add(time.Duration(nrng.Exponential(interval) * 24 * float64(time.Hour)))
			if !t.Before(end) {
				break
			}
			log.Events = append(log.Events, bootEvent(t, node, nodeMfr[node]))
		}
	}
}

func bootEvent(t time.Time, node int, m errlog.Manufacturer) errlog.Event {
	return errlog.Event{Time: t, Node: node, DIMM: -1, Manufacturer: m,
		Type: errlog.Boot, Count: 1, Rank: -1, Bank: -1, Row: -1, Col: -1}
}

// genFaultyCEs emits the clustered corrected-error records of faulty
// DIMMs: a base rate after fault onset, plus non-fatal storm episodes at
// the escalated rate with UE warnings — the same signature that precedes a
// UE, occurring without one.
func genFaultyCEs(cfg Config, dimms []*dimmState, rng *mathx.RNG, log *errlog.Log, end time.Time) {
	for _, d := range dimms {
		if !d.faulty {
			continue
		}
		drng := rng.Fork()
		t := d.onset
		for {
			t = t.Add(time.Duration(drng.Exponential(1.0/cfg.CEEntriesPerDay) * 24 * float64(time.Hour)))
			if !t.Before(end) {
				break
			}
			log.Events = append(log.Events, d.ceEvent(cfg, drng, t))
		}
		nStorms := drng.Poisson(cfg.StormsPerFaultyDIMM)
		for s := 0; s < nStorms; s++ {
			span := end.Sub(d.onset)
			if span <= 0 {
				break
			}
			start := d.onset.Add(time.Duration(drng.Float64() * float64(span)))
			days := drng.Exponential(cfg.StormDurationDays)
			if days < 0.5 {
				days = 0.5
			}
			stop := start.Add(time.Duration(days * 24 * float64(time.Hour)))
			if stop.After(end) {
				stop = end
			}
			emitStorm(cfg, d, drng, log, start, stop)
		}
	}
}

// emitStorm writes a CE storm in [start, stop): escalated-rate CE records
// plus UE warnings, indistinguishable from the pre-UE escalation.
func emitStorm(cfg Config, d *dimmState, rng *mathx.RNG, log *errlog.Log, start, stop time.Time) {
	boost := cfg.StormBoost
	if boost <= 0 {
		boost = 8
	}
	rate := cfg.CEEntriesPerDay * boost
	t := start
	for {
		t = t.Add(time.Duration(rng.Exponential(1.0/rate) * 24 * float64(time.Hour)))
		if !t.Before(stop) {
			break
		}
		log.Events = append(log.Events, d.ceEvent(cfg, rng, t))
	}
	days := stop.Sub(start).Hours() / 24
	nWarn := rng.Poisson(cfg.WarningsPerStormDay * days)
	for i := 0; i < nWarn; i++ {
		wt := start.Add(time.Duration(rng.Float64() * float64(stop.Sub(start))))
		log.Events = append(log.Events, errlog.Event{
			Time: wt, Node: d.node, DIMM: d.id, Manufacturer: d.manufacturer,
			Type: errlog.UEWarning, Count: 1, Rank: -1, Bank: -1, Row: -1, Col: -1,
		})
	}
}

// ceEvent builds one CE record localized to the DIMM's fault region.
func (d *dimmState) ceEvent(cfg Config, rng *mathx.RNG, t time.Time) errlog.Event {
	count := 1
	if cfg.MeanCEBurst > 1 {
		count = 1 + rng.Geometric(1/cfg.MeanCEBurst)
	}
	row := d.rows[rng.Intn(len(d.rows))]
	return errlog.Event{
		Time: t, Node: d.node, DIMM: d.id, Manufacturer: d.manufacturer,
		Type: errlog.CE, Count: count,
		Rank: d.rank, Bank: d.bank, Row: row, Col: rng.Intn(1 << 10),
		Scrub: rng.Bool(cfg.ScrubFraction),
	}
}

// genBackgroundCEs emits rare transient CEs on healthy DIMMs.
func genBackgroundCEs(cfg Config, dimms []*dimmState, rng *mathx.RNG, log *errlog.Log, end time.Time) {
	years := cfg.Duration.Hours() / (24 * 365)
	for _, d := range dimms {
		if d.faulty {
			continue
		}
		n := rng.Poisson(cfg.BackgroundCEPerDIMMYear * years)
		for i := 0; i < n; i++ {
			t := cfg.Start.Add(time.Duration(rng.Float64() * float64(cfg.Duration)))
			log.Events = append(log.Events, errlog.Event{
				Time: t, Node: d.node, DIMM: d.id, Manufacturer: d.manufacturer,
				Type: errlog.CE, Count: 1,
				Rank: rng.Intn(4), Bank: rng.Intn(16), Row: rng.Intn(1 << 16), Col: rng.Intn(1 << 10),
				Scrub: rng.Bool(cfg.ScrubFraction),
			})
		}
	}
}

// genUEs emits signaled UEs (on faulty DIMMs, with escalating CE rate and
// UE warnings beforehand), sudden UEs (no preceding signal), and the
// post-UE test-week bursts that UE reduction later removes.
func genUEs(cfg Config, dimms []*dimmState, rng *mathx.RNG, log *errlog.Log, end time.Time) {
	var faulty, healthy []*dimmState
	for _, d := range dimms {
		if d.faulty {
			faulty = append(faulty, d)
		} else {
			healthy = append(healthy, d)
		}
	}
	// Weight faulty DIMM selection by manufacturer fault multiplier so UE
	// incidence also differs per manufacturer.
	pickWeighted := func(pool []*dimmState) *dimmState {
		if len(pool) == 0 {
			return nil
		}
		w := make([]float64, len(pool))
		for i, d := range pool {
			w[i] = cfg.FaultMultiplier[d.manufacturer]
		}
		return pool[rng.WeightedChoice(w)]
	}

	usedNode := map[int]bool{}
	faultyNode := map[int]bool{}
	for _, d := range faulty {
		faultyNode[d.node] = true
	}
	margin := time.Duration(cfg.EscalationDays * 24 * float64(time.Hour))

	for i := 0; i < cfg.SignaledUEs; i++ {
		var d *dimmState
		for tries := 0; tries < 200; tries++ {
			cand := pickWeighted(faulty)
			if cand == nil {
				break
			}
			// The UE must land after onset+margin and before the end.
			if usedNode[cand.node] {
				continue
			}
			if end.Sub(cand.onset) > 2*margin {
				d = cand
				break
			}
		}
		if d == nil {
			// Not enough eligible faulty DIMMs (tiny scale): fall back to
			// converting a healthy DIMM into a late-onset faulty one.
			if len(healthy) == 0 {
				continue
			}
			d = healthy[rng.Intn(len(healthy))]
			d.faulty = true
			d.onset = cfg.Start.Add(time.Duration(rng.Float64() * 0.5 * float64(cfg.Duration)))
			d.rank, d.bank = rng.Intn(4), rng.Intn(16)
			d.rows = []int{rng.Intn(1 << 16)}
		}
		usedNode[d.node] = true
		lo := d.onset.Add(margin)
		span := end.Sub(lo) - margin
		if span <= 0 {
			span = time.Hour
		}
		ueTime := lo.Add(time.Duration(rng.Float64() * float64(span)))
		emitEscalation(cfg, d, rng, log, ueTime)
		emitUEBurst(cfg, d, rng, log, ueTime, end)
	}

	for i := 0; i < cfg.SuddenUEs; i++ {
		if len(healthy) == 0 {
			break
		}
		var d *dimmState
		for tries := 0; tries < 200; tries++ {
			cand := healthy[rng.Intn(len(healthy))]
			// A sudden UE must carry no preceding signal: avoid nodes that
			// already host a faulty DIMM or another UE.
			if !usedNode[cand.node] && !cand.faulty && !faultyNode[cand.node] {
				d = cand
				break
			}
		}
		if d == nil {
			continue
		}
		usedNode[d.node] = true
		ueTime := cfg.Start.Add(time.Duration((0.02 + 0.96*rng.Float64()) * float64(cfg.Duration)))
		emitUEBurst(cfg, d, rng, log, ueTime, end)
	}
}

// emitEscalation writes the pre-UE signature: a storm over the escalation
// window ending at the UE. It is generated by the same process as the
// non-fatal storms, so rate and warning statistics cannot give the UE
// away — only the (stochastic) storm→UE correlation is learnable, which is
// what keeps precision at the paper's order of magnitude.
func emitEscalation(cfg Config, d *dimmState, rng *mathx.RNG, log *errlog.Log, ueTime time.Time) {
	window := time.Duration(cfg.EscalationDays * 24 * float64(time.Hour))
	emitStorm(cfg, d, rng, log, ueTime.Add(-window), ueTime)
}

// emitUEBurst writes the first UE and the test-week burst that follows it.
func emitUEBurst(cfg Config, d *dimmState, rng *mathx.RNG, log *errlog.Log, ueTime time.Time, end time.Time) {
	mk := func(t time.Time) errlog.Event {
		return errlog.Event{
			Time: t, Node: d.node, DIMM: d.id, Manufacturer: d.manufacturer,
			Type: errlog.UE, Count: 1, Rank: -1, Bank: -1, Row: -1, Col: -1,
			Scrub:    rng.Bool(cfg.ScrubFraction),
			OverTemp: rng.Bool(cfg.OverTempFraction),
		}
	}
	log.Events = append(log.Events, mk(ueTime))
	extra := rng.Poisson(cfg.UEBurstMean)
	for i := 0; i < extra; i++ {
		t := ueTime.Add(time.Duration(rng.Float64() * float64(6*24*time.Hour)))
		if t.Before(end) {
			log.Events = append(log.Events, mk(t))
		}
	}
}

// genRetirements writes administrative DIMM retirements on DIMMs with no
// preceding error signal, reproducing the §2.1.4 bias source.
func genRetirements(cfg Config, dimms []*dimmState, rng *mathx.RNG, log *errlog.Log, end time.Time) {
	var healthy []*dimmState
	for _, d := range dimms {
		if !d.faulty {
			healthy = append(healthy, d)
		}
	}
	n := cfg.RetiredDIMMs
	if n > len(healthy) {
		n = len(healthy)
	}
	perm := rng.Perm(len(healthy))
	for i := 0; i < n; i++ {
		d := healthy[perm[i]]
		t := cfg.Start.Add(time.Duration(rng.Float64() * float64(cfg.Duration)))
		log.Events = append(log.Events, errlog.Event{
			Time: t, Node: d.node, DIMM: d.id, Manufacturer: d.manufacturer,
			Type: errlog.Retirement, Count: 1, Rank: -1, Bank: -1, Row: -1, Col: -1,
		})
	}
}

// Stats summarizes a log for calibration checks and tooling.
type Stats struct {
	Events      int
	CERecords   int
	TotalCEs    int
	UEs         int
	UEWarnings  int
	Boots       int
	Retirements int
	Nodes       int
	// PostMergeTicks is the number of agent invocation points after
	// same-minute merging.
	PostMergeTicks int
	// FirstUEs is the UE count after burst reduction.
	FirstUEs int
	// PerManufacturerUEs counts reduced UEs per manufacturer.
	PerManufacturerUEs [errlog.NumManufacturers]int
}

// Summarize computes Stats for a raw (sorted, unpreprocessed) log.
func Summarize(l *errlog.Log) Stats {
	s := Stats{
		Events:      len(l.Events),
		CERecords:   l.CountType(errlog.CE),
		TotalCEs:    l.TotalCEs(),
		UEs:         l.CountType(errlog.UE),
		UEWarnings:  l.CountType(errlog.UEWarning),
		Boots:       l.CountType(errlog.Boot),
		Retirements: l.CountType(errlog.Retirement),
		Nodes:       len(l.Nodes()),
	}
	reduced := errlog.ReduceUEBursts(l, errlog.UEBurstWindow)
	s.FirstUEs = reduced.CountType(errlog.UE)
	for _, e := range reduced.Events {
		if e.Type == errlog.UE {
			s.PerManufacturerUEs[e.Manufacturer]++
		}
	}
	s.PostMergeTicks = len(errlog.Merge(reduced, errlog.MergeWindow))
	return s
}
