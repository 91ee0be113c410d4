// Command uerlserve runs the online continual-learning serving loop on a
// deterministic scenario: a telemetry stream whose fault behaviour shifts
// mid-run (DIMM aging / fault-mode change) is served through a Controller
// — or a fleet of workers — wrapped in an OnlineLearner, and the run
// reports the model lifecycle (drift detection, incremental retraining on
// live experience, shadow evaluation of each candidate against the
// incumbent, hot-swap promotions and their model lineage) together with
// the scenario's survival scorecard.
//
// Every run is a scenario (see scenarios/ and internal/scenario). With
// -scenario the spec comes from a JSON file; without it the spec flags
// describe one: a fleet of -nodes nodes over -days days whose CE rate and
// burst size grow -drift-mult-fold at -drift-day. -print-spec writes the
// spec the flags describe and exits, ready to edit and pass to -scenario.
//
// Usage:
//
//	uerlserve [-scenario spec.json] [-model artifact.json] [-save final.json]
//	          [-json] [-print-spec] [spec flags]
//
// Spec flags (rejected beside -scenario; edit the spec file instead):
//
//	-seed -nodes -days -drift-day -drift-mult -policy -cost -mitcost
//	-drift-window -drift-threshold -retrain-min -epoch-steps -shadow
//	-shadow-ues
//	-guard -node-budget -node-budget-window -fleet-budget
//	-fleet-budget-window -promotions-per-day -approve -probation
//	-probation-tolerance
//	-workers -kill-worker -rejoin-worker
//
// A lifecycle, workload or guard flag left unset leaves its spec field
// unset, so the scenario package's defaults apply.
//
// With -guard the lifecycle runs behind the production guardrails:
// budgets (-node-budget, -fleet-budget, -promotions-per-day), promotion
// approval (-approve auto|deny), and post-promotion probation with
// rollback-on-regression (-probation, -probation-tolerance).
//
// With -workers N the stream is served through the distributed fleet
// layer (internal/fleet): a coordinator rendezvous-hashes nodes across N
// in-process workers, and -kill-worker / -rejoin-worker (comma-separated
// id@day entries) schedule worker crashes and rejoins mid-stream. A fleet
// lowers -guard to per-worker budgets; the promotion/approval/probation
// flags are rejected there.
//
// -json writes the scenario summary (the golden-artifact format) instead
// of the text log. The whole run is deterministic for a fixed spec.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	uerl "repro"
	"repro/internal/scenario"
)

// runFlags shape how a spec is served, not the spec itself; they are the
// only flags that combine with -scenario.
var runFlags = map[string]bool{
	"scenario": true, "model": true, "save": true, "json": true, "print-spec": true,
}

func main() {
	cmd := newCommand(flag.CommandLine)
	flag.Parse()
	if err := cmd.run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "uerlserve:", err)
		os.Exit(1)
	}
}

// command is the parsed command line.
type command struct {
	fs           *flag.FlagSet
	scenarioFile string
	model, save  string
	jsonOut      bool
	printSpec    bool
	spec         *specFlags
}

// newCommand registers every flag on fs.
func newCommand(fs *flag.FlagSet) *command {
	c := &command{fs: fs}
	fs.StringVar(&c.scenarioFile, "scenario", "", "run this scenario spec (JSON file) instead of the one the spec flags describe")
	fs.StringVar(&c.model, "model", "", "initial model artifact (overrides the spec's initial policy)")
	fs.StringVar(&c.save, "save", "", "save the final serving model artifact to this path")
	fs.BoolVar(&c.jsonOut, "json", false, "emit the scenario summary as JSON instead of the text log")
	fs.BoolVar(&c.printSpec, "print-spec", false, "print the scenario spec and exit")
	c.spec = newSpecFlags(fs)
	return c
}

// run builds the spec, serves it through scenario.RunCompiled and writes
// the report to w.
func (c *command) run(w io.Writer) error {
	spec, err := c.loadSpec()
	if err != nil {
		return err
	}
	if c.printSpec {
		out, err := scenario.Encode(spec)
		if err != nil {
			return err
		}
		_, err = w.Write(out)
		return err
	}
	compiled, err := scenario.Compile(spec)
	if err != nil {
		return err
	}
	if c.model != "" {
		if compiled.Initial, err = uerl.LoadModelFile(c.model); err != nil {
			return err
		}
	}
	var learner *uerl.OnlineLearner
	compiled.Probe = func(_ uerl.Serving, l *uerl.OnlineLearner) func() {
		learner = l
		return nil
	}
	sum, err := scenario.RunCompiled(compiled)
	if err != nil {
		return err
	}
	if c.save != "" {
		if err := uerl.SaveModelFile(c.save, learner.Serving().Policy()); err != nil {
			return err
		}
	}

	if c.jsonOut {
		out, err := scenario.EncodeSummary(sum)
		if err != nil {
			return err
		}
		_, err = w.Write(out)
		return err
	}
	printReport(w, sum, compiled.Start, learner.Events())
	if c.save != "" {
		fmt.Fprintf(w, "saved serving model to %s\n", c.save)
	}
	return nil
}

// loadSpec returns the spec the run serves: the -scenario file, or the
// one the spec flags describe. A spec flag set beside -scenario would be
// silently ignored, so it is an error instead.
func (c *command) loadSpec() (scenario.Spec, error) {
	if c.scenarioFile == "" {
		return c.spec.build()
	}
	var set []string
	c.fs.Visit(func(f *flag.Flag) {
		if !runFlags[f.Name] {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) > 0 {
		return scenario.Spec{}, fmt.Errorf("spec flags %s do not combine with -scenario; edit the spec file instead",
			strings.Join(set, " "))
	}
	data, err := os.ReadFile(c.scenarioFile)
	if err != nil {
		return scenario.Spec{}, err
	}
	return scenario.Decode(data)
}

// specFlags are the flags describing a generated scenario spec. Most bind
// straight to a spec field; the rest are lowered by build.
type specFlags struct {
	spec                    scenario.Spec
	guard                   scenario.GuardSpec
	guarded                 bool
	driftDay, driftMult     float64
	nodeWindow, fleetWindow time.Duration
	workers                 int
	kill, rejoin            string
}

// newSpecFlags registers the spec flags on fs. Past the fleet shape and
// drift, every flag defaults to its spec field's zero value, which the
// scenario package reads as its own default.
func newSpecFlags(fs *flag.FlagSet) *specFlags {
	f := &specFlags{spec: scenario.Spec{Name: "uerlserve", Description: "generated from uerlserve flags"}}
	s, l, g := &f.spec, &f.spec.Lifecycle, &f.guard

	fs.Int64Var(&s.Seed, "seed", 1, "random seed (stream and trainer)")
	fs.IntVar(&s.Fleet.Nodes, "nodes", 64, "fleet size in nodes")
	fs.Float64Var(&s.DurationDays, "days", 30, "scenario length in days")
	fs.Float64Var(&f.driftDay, "drift-day", 15, "day the fault behaviour shifts (0 disables drift)")
	fs.Float64Var(&f.driftMult, "drift-mult", 6, "CE rate/burst multiplier after the shift")
	fs.StringVar(&l.InitialPolicy, "policy", "", "initial policy: always or never (default always; see -model)")
	fs.Float64Var(&s.Workload.CostNodeHours, "cost", 0, "potential UE cost in node-hours (default 100)")
	fs.Float64Var(&s.Workload.MitigationCostNodeMinutes, "mitcost", 0, "mitigation cost in node-minutes (default 2)")
	fs.IntVar(&l.DriftWindow, "drift-window", 0, "drift-detection window samples (default 256)")
	fs.Float64Var(&l.DriftThreshold, "drift-threshold", 0, "drift z-score threshold (default 8)")
	fs.IntVar(&l.RetrainMin, "retrain-min", 0, "minimum new transitions between retrains (default 256)")
	fs.IntVar(&l.EpochSteps, "epoch-steps", 0, "gradient steps per retraining epoch (default 64)")
	fs.IntVar(&l.ShadowDecisions, "shadow", 0, "shadow decisions required before promotion is judged (default 128)")
	fs.Func("shadow-ues", "realized UEs required in the shadow window before promotion is judged (default 1; 0 judges on mitigation spend alone)", func(v string) error {
		n, err := strconv.Atoi(v)
		l.ShadowUEs = &n
		return err
	})

	fs.BoolVar(&f.guarded, "guard", false, "run the lifecycle behind production guardrails")
	fs.Float64Var(&g.NodeBudgetNodeHours, "node-budget", 0, "per-node checkpoint budget in node-hours per window (0 disables)")
	fs.DurationVar(&f.nodeWindow, "node-budget-window", 0, "sliding window of the per-node budget (default 24h)")
	fs.IntVar(&g.FleetMitigations, "fleet-budget", 0, "fleet-wide mitigation budget per window (0 disables)")
	fs.DurationVar(&f.fleetWindow, "fleet-budget-window", 0, "sliding window of the fleet budget (default 1h)")
	fs.IntVar(&g.PromotionsPerDay, "promotions-per-day", 0, "promotion budget per sliding 24h (0 disables)")
	fs.StringVar(&g.Approve, "approve", "", "promotion approval hook: auto or deny (default auto)")
	fs.IntVar(&g.ProbationDecisions, "probation", 0, "post-promotion probation window in decisions (default 4096; negative disables rollback)")
	fs.Func("probation-tolerance", "probation regression tolerance in node-hours (default 5)", func(v string) error {
		tol, err := strconv.ParseFloat(v, 64)
		g.ProbationToleranceNH = &tol
		return err
	})

	fs.IntVar(&f.workers, "workers", 0, "serve through the distributed fleet layer with this many in-process workers (0 = single-process Controller)")
	fs.StringVar(&f.kill, "kill-worker", "", "comma-separated id@day entries: crash the worker at that stream day (state lost, journal replays on rejoin)")
	fs.StringVar(&f.rejoin, "rejoin-worker", "", "comma-separated id@day entries: bring a killed worker back")
	return f
}

// build lowers the parsed flags to a validated spec.
func (f *specFlags) build() (scenario.Spec, error) {
	s := f.spec
	if f.driftDay > 0 && f.driftDay < s.DurationDays {
		// The fault-mode change: CE records arrive more often and carry
		// larger bursts, and more DIMMs fail.
		s.Drift = []scenario.DriftPhase{{AtDay: f.driftDay, Overlay: scenario.OverlaySpec{
			CERateMult: f.driftMult, CEBurstMult: f.driftMult, FaultyFractionMult: 2,
		}}}
	}
	if f.guarded {
		g := f.guard
		g.NodeWindowHours = f.nodeWindow.Hours()
		g.FleetWindowHours = f.fleetWindow.Hours()
		s.Lifecycle.Guard = &g
	}
	faults, err := workerFaults(f.kill, f.rejoin)
	if err != nil {
		return s, err
	}
	switch {
	case f.workers > 0:
		s.Serving = &scenario.ServingSpec{Workers: f.workers, Faults: faults}
	case len(faults) > 0:
		return s, fmt.Errorf("-kill-worker/-rejoin-worker need -workers")
	}
	return s, s.Validate()
}

// workerFaults parses the id@day schedules into one time-sorted fault
// list (stable, so a kill and a rejoin on the same day keep kill-first
// order). The spec's validator checks the ids and days.
func workerFaults(kill, rejoin string) ([]scenario.WorkerFaultSpec, error) {
	var out []scenario.WorkerFaultSpec
	for _, sched := range []struct{ list, kind string }{{kill, scenario.WorkerKill}, {rejoin, scenario.WorkerRejoin}} {
		if sched.list == "" {
			continue
		}
		for _, entry := range strings.Split(sched.list, ",") {
			id, day, ok := strings.Cut(strings.TrimSpace(entry), "@")
			w, errID := strconv.Atoi(id)
			d, errDay := strconv.ParseFloat(day, 64)
			if !ok || errID != nil || errDay != nil {
				return nil, fmt.Errorf("-%s-worker entry %q is not id@day", sched.kind, entry)
			}
			out = append(out, scenario.WorkerFaultSpec{Worker: w, Kind: sched.kind, AtDay: d})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtDay < out[j].AtDay })
	return out, nil
}

// printReport renders the run as the text log: stream, audit log on the
// scenario's day scale, survival, lifecycle, fleet health and lineage.
func printReport(w io.Writer, sum scenario.Summary, start time.Time, events []uerl.LifecycleEvent) {
	fmt.Fprintf(w, "scenario %s: %d nodes, %.0f days, seed %d, guarded=%v, serving %s\n",
		sum.Scenario, sum.Nodes, sum.DurationDays, sum.Seed, sum.Guarded, sum.InitialVersion)
	st := sum.Stream
	fmt.Fprintf(w, "stream: %d events, %d generated + %d injected UEs, %d dropped, %d delayed, %d duplicated, %d attack windows\n",
		st.Events, st.GeneratedUEs, st.InjectedUEs, st.Dropped, st.Delayed, st.Duplicated, st.AttackWindows)
	for _, ev := range events {
		fmt.Fprintf(w, "[day %5.1f] %-7s %s", ev.Time.Sub(start).Hours()/24, ev.Kind, ev.Detail)
		if ev.Kind != uerl.LifecycleDrift && ev.ModelVersion != "" {
			fmt.Fprintf(w, " (model %s)", ev.ModelVersion)
		}
		fmt.Fprintln(w)
	}
	sv := sum.Survival
	fmt.Fprintf(w, "survival: lost %.1f node-hours (UE %.1f + mitigation %.1f over %d mitigations)\n",
		sv.LostNodeHours, sv.UENodeHours, sv.MitigationNodeHours, sv.Mitigations)
	fmt.Fprintf(w, "recall %.4f overall, %.4f under attack (%d/%d attack UEs mitigated); vetoed %d decisions (%d during attack)\n",
		sv.Recall, sv.RecallUnderAttack, sv.AttackMitigated, sv.AttackUEs,
		sv.VetoedDecisions, sv.VetoedDuringAttack)
	lc, ls := sum.Lifecycle, sum.Learner
	fmt.Fprintf(w, "lifecycle: generation %d, serving %s, swap churn %d\n",
		lc.FinalGeneration, lc.ServingVersion, lc.SwapChurn)
	fmt.Fprintf(w, "decisions=%d ues=%d transitions=%d (dropped %d) epochs=%d\n",
		ls.Decisions, ls.UEs, ls.Transitions, ls.DroppedTransitions, ls.Epochs)
	if gs := ls.Guard; gs != nil {
		fmt.Fprintf(w, "guard: suppressed=%d trips=%d promotions=%d denied=%d rollbacks=%d probation=%v\n",
			gs.SuppressedMitigations, gs.BudgetTrips, gs.Promotions, gs.DeniedPromotions,
			gs.Rollbacks, gs.ProbationActive)
	}
	if fs := sum.Fleet; fs != nil {
		fmt.Fprintf(w, "fleet: %d workers, failovers=%d rejoins=%d replayed=%d events over %d nodes, acked=%d, orphans=%d, degraded=%d\n",
			fs.Workers, fs.Failovers, fs.Rejoins, fs.ReplayedEvents, fs.ReplayedNodes,
			fs.AckedEvents, fs.OrphanNodes, fs.DegradedDecisions)
		fmt.Fprintf(w, "journal: appended=%d deduped=%d trimmed=%d\n",
			fs.JournalAppended, fs.JournalDeduped, fs.JournalTrimmed)
		for _, ws := range fs.WorkerStates {
			fmt.Fprintf(w, "  worker %d: %-7s nodes=%d serving=%s vetoes=%d\n",
				ws.ID, ws.State, ws.OwnedNodes, ws.ServingVersion, ws.Vetoes)
		}
	}
	fmt.Fprintf(w, "lineage: %s\n", strings.Join(lc.Lineage, " <- "))
}
