// Command uerlgen generates a synthetic MareNostrum-3-style DRAM error log
// (and optionally a MareNostrum-4-style job trace) and prints calibration
// statistics against the paper's §2.1 aggregate counts.
//
// Usage:
//
//	uerlgen [-scale 0.1] [-seed 1] [-out log.csv] [-stats]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/errlog"
	"repro/internal/jobs"
	"repro/internal/telemetry"
)

func main() {
	scale := flag.Float64("scale", 0.1, "population scale factor (1 = full MareNostrum 3)")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "", "write the raw error log as CSV to this file")
	jobsOut := flag.String("jobs", "", "write a job trace summary to this file")
	jobCount := flag.Int("jobcount", 20000, "number of jobs in the trace")
	manufacturer := flag.String("manufacturer", "", "restrict the CSV export to one DRAM manufacturer (A, B or C)")
	flag.Parse()

	filter := errlog.Manufacturer(-1)
	if *manufacturer != "" {
		m, err := errlog.ParseManufacturer(*manufacturer)
		if err != nil {
			fatal(err)
		}
		filter = m
	}

	cfg := telemetry.Default().Scale(*scale)
	cfg.Seed = *seed
	log := telemetry.Generate(cfg)
	stats := telemetry.Summarize(log)
	if filter >= 0 {
		log = log.PartitionManufacturer(filter)
	}

	fmt.Printf("generated %d events on %d nodes over %v\n",
		stats.Events, stats.Nodes, cfg.Duration)
	fmt.Printf("  CE records:        %d (%d corrected errors)\n", stats.CERecords, stats.TotalCEs)
	fmt.Printf("  UEs:               %d raw, %d first-in-burst\n", stats.UEs, stats.FirstUEs)
	fmt.Printf("  UE warnings:       %d\n", stats.UEWarnings)
	fmt.Printf("  boots:             %d\n", stats.Boots)
	fmt.Printf("  retirements:       %d\n", stats.Retirements)
	fmt.Printf("  post-merge ticks:  %d\n", stats.PostMergeTicks)
	fmt.Printf("  UEs by manufacturer: A=%d B=%d C=%d\n",
		stats.PerManufacturerUEs[0], stats.PerManufacturerUEs[1], stats.PerManufacturerUEs[2])

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := errlog.WriteCSV(f, log); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *jobsOut != "" {
		jcfg := jobs.Default()
		jcfg.Seed = *seed + 1
		jcfg.Count = *jobCount
		trace := jobs.Generate(jcfg)
		st := jobs.Stats(trace)
		f, err := os.Create(*jobsOut)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(f, "id,nodes,duration_hours")
		for _, j := range trace {
			fmt.Fprintf(f, "%d,%d,%.3f\n", j.ID, j.Nodes, j.Duration.Hours())
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d jobs, mean %.1f nodes, max %.0f node-hours\n",
			*jobsOut, st.Count, st.MeanNodes, st.MaxNodeHours)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uerlgen:", err)
	os.Exit(1)
}
