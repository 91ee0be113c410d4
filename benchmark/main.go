// Command uerlbench is the repository benchmark. It runs one named
// workload against the serving stack or the paper's research harness,
// checks the outputs, and prints every metric by name with its unit; the
// last line of standard output is the machine-readable result:
//
//	bash benchmark/run.sh --workload lifecycle-drift --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer ladder instead, timed around the calls the
// benchmark itself makes into each layer. README.md in this directory
// explains the workloads, the metrics and which layer should move which
// end-to-end number.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// repoRoot is where the command runs: the repository root, which holds
// scenarios/.
const repoRoot = "."

// metricDef declares one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (BENCHMARK.json declares the same list).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"decisions_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"heap_mb", "MiB"},
}

// kinds are the five served policy kinds poll-mixed steps through, in
// phase order.
var kinds = []string{"never", "always", "sc20-rf", "myopic-rf", "rl"}

// perLayer is the traced run's ladder. A workload that does not exercise
// a layer reports it as 0 (README.md maps layers to workloads).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.compile_s", "s"},
		{"controller.observe_us", "us"},
		{"controller.recommend_us", "us"},
	}
	for _, k := range kinds {
		defs = append(defs, metricDef{"controller.recommend." + k + "_us", "us"})
	}
	defs = append(defs, metricDef{"controller.recommend_allocs", "count"})
	for _, k := range kinds {
		defs = append(defs, metricDef{"policy.decide." + k + "_us", "us"})
	}
	return append(defs, []metricDef{
		{"guard.observe_decision_us", "us"},
		{"guard.observe_ue_us", "us"},
		{"guard.vetoes", "count"},
		{"guard.trips", "count"},
		{"lifecycle.process_tick_us", "us"},
		{"lifecycle.process_ue_us", "us"},
		{"lifecycle.self_us", "us"},
		{"lifecycle.retrain_ms", "ms"},
		{"lifecycle.retrain_wall_share", "ratio"},
		{"lifecycle.retrains", "count"},
		{"lifecycle.promotions", "count"},
		{"lifecycle.rollbacks", "count"},
		{"lifecycle.experience_dropped", "count"},
		{"fleet.observe_us", "us"},
		{"fleet.recommend_us", "us"},
		{"fleet.observe_decision_us", "us"},
		{"fleet.self_us", "us"},
		{"fleet.replayed_events", "count"},
		{"fleet.failovers", "count"},
		{"fleet.degraded", "count"},
		{"transport.observe_us", "us"},
		{"transport.replay_us", "us"},
		{"transport.recommend_us", "us"},
		{"transport.observe_decision_us", "us"},
		{"transport.calls_per_event", "ratio"},
		{"transport.errors", "count"},
		{"evalx.ticks_s", "s"},
		{"rf.train_s", "s"},
		{"evalx.threshold_s", "s"},
		{"rl.train_s", "s"},
		{"evalx.replay_all_s", "s"},
		{"lost_node_hours", "node-h"},
		{"failed_frac", "ratio"},
		{"allocs_per_event", "count"},
		{"trace.events_per_s", "1/s"},
		{"trace.overhead_pct", "%"},
	}...)
}()

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(cfg config, r *result) error
}

var workloads = []workload{
	{"lifecycle-drift", runLifecycleDrift},
	{"fleet-failover", runFleetFailover},
	{"poll-mixed", runPollMixed},
	{"paper-fig3", runPaperFig3},
}

// result collects one run's outcome.
type result struct {
	attempted, failed int64
	values            map[string]float64
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// note prints one human-readable line; every line but the last of
// standard output is such a note.
func note(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// gateError is a failed correctness check: the run completed but its
// outputs are wrong, so the result line reports correct=false.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "correctness gate: " + e.msg }

func gatef(format string, args ...any) error {
	return &gateError{msg: fmt.Sprintf(format, args...)}
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer ladder instead of the end-to-end metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "uerlbench: --trace must be 0 or 1")
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "uerlbench: --seconds must be positive")
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "uerlbench: unknown workload %q (want one of %s)\n", cfg.workload, workloadNames())
		return 2
	}

	note("host: nproc=%d gomaxprocs=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	note("run: workload=%s seed=%d seconds=%g trace=%d", cfg.workload, cfg.seed, cfg.seconds, trace)
	r := &result{values: map[string]float64{}}
	err := w.run(cfg, r)
	var gate *gateError
	if err != nil && !errors.As(err, &gate) {
		fmt.Fprintln(os.Stderr, "uerlbench:", err)
		return 1
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]reportedMetric `json:"metrics"`
	}{Correct: err == nil, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]reportedMetric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "uerlbench: workload %s did not measure %s\n", cfg.workload, d.name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "uerlbench: %s is not finite (%v)\n", d.name, v)
			return 1
		}
		note("metric %-34s %18.6f %s", d.name, v, d.unit)
		out.Metrics[d.name] = reportedMetric{Value: v, Unit: d.unit}
	}
	line, jerr := json.Marshal(out)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "uerlbench:", jerr)
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "uerlbench:", err)
	}
	fmt.Println(string(line))
	if err != nil {
		return 1
	}
	return 0
}

type reportedMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// cpuModel reads the CPU model name for the host line; "unknown" where
// /proc/cpuinfo is unavailable.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
