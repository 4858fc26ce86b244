// Command reprogen regenerates every table and figure of the paper's
// evaluation section and prints paper-vs-measured comparisons.
//
// Usage:
//
//	reprogen                 # Tables 1–5, the headline, the scaling study,
//	                         # Figures 6–10 and the jitter comparison
//	reprogen -out out/       # also write the figure curves as CSV files
//	reprogen -dur 60         # figure observation length in seconds
//	reprogen -faults         # fault-recovery chaos experiment (opt-in)
//	reprogen -telemetry      # instrumented observability run (opt-in)
//	reprogen -overload       # overload-protection sweep, claim 4 (opt-in)
//	reprogen -slo            # chaos-diagnostics run: flight recorder + SLO (opt-in)
//
// Every run is one row of experiments.Scenarios, served by experiments.Main:
// a bare reprogen runs the "paper" row, an opt-in flag runs its own row
// instead, and two of them is a usage error (exit 2). Stdout and the -out
// artifacts are the same bytes at any -workers. -cpuprofile and -memprofile
// are complete on every way out.
package main

import (
	"os"

	"repro/internal/experiments"
)

func main() { os.Exit(experiments.Main("reprogen", 100, os.Args[1:], os.Stdout, os.Stderr)) }
