// Command reprogen regenerates every table and figure of the paper's
// evaluation section and prints paper-vs-measured comparisons.
//
// Usage:
//
//	reprogen                 # Tables 1–5, the headline, the scaling study,
//	                         # Figures 6–10 and the jitter comparison
//	reprogen -csv out/       # also write the figure curves as CSV files
//	reprogen -dur 60         # figure observation length in seconds
//	reprogen -faults         # fault-recovery chaos experiment (opt-in)
//	reprogen -telemetry      # instrumented observability run (opt-in)
//	reprogen -overload       # overload-protection sweep, claim 4 (opt-in)
//	reprogen -slo            # chaos-diagnostics run: flight recorder + SLO (opt-in)
//
// Every run is a row of experiments.Scenarios: a bare reprogen runs the
// "paper" row, and an opt-in flag runs its own row instead; its stdout and
// artifacts are the same bytes at any -workers. -cpuprofile and -memprofile
// are complete on every way out.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/sim"
)

func main() {
	// A row is selected by the flag its name gives and writes to its OutFlag
	// directory; the paper's evaluation is what runs when no flag selects one.
	var paper experiments.Scenario
	selected := map[string]*bool{}
	for _, s := range experiments.Scenarios {
		switch {
		case s.Cmd != "reprogen":
		case s.Name == "paper":
			paper = s
		default:
			selected[s.Name] = flag.Bool(s.Name, false, s.Help)
		}
	}
	flag.String("telemetry-out", "telemetry-out", "directory for -telemetry artifacts")
	flag.String("overload-out", "overload-out", "directory for -overload artifacts")
	flag.String("slo-out", "slo-out", "directory for -slo artifacts")
	flag.String("csv", "", "directory to write the figure curves (with -faults, its curves) as CSV")
	durSec := flag.Int("dur", 100, "figure observation length (seconds)")
	workers := flag.Int("workers", 0, "worker pool for every experiment fan-out (0 = GOMAXPROCS, 1 = sequential); never changes output bytes")
	cpuProfile, memProfile := profiling.Flags()
	flag.Parse()
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprogen:", err)
		os.Exit(1)
	}
	// Every way out goes through exit, so the profiles are complete.
	exit := profiling.Exit("reprogen", stopProfiles)
	experiments.DefaultWorkers = *workers

	// The opt-in runs never ride along with the paper's evaluation: each is
	// its own selection, printed in table order.
	var picked []experiments.Scenario
	for _, s := range experiments.Scenarios {
		if on := selected[s.Name]; on != nil && *on {
			picked = append(picked, s)
		}
	}
	if len(picked) == 0 {
		picked = []experiments.Scenario{paper}
	}
	cfg := cluster.FleetConfig{Dur: sim.Time(*durSec) * sim.Second, Workers: *workers}
	for _, s := range picked {
		dir := flag.Lookup(s.OutFlag).Value.String()
		if err := s.RunTo(cfg, dir, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "reprogen:", err)
			exit(1)
		}
	}
	exit(0)
}
