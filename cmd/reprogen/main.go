// Command reprogen regenerates every table and figure of the paper's
// evaluation section and prints paper-vs-measured comparisons.
//
// Usage:
//
//	reprogen                 # everything
//	reprogen -table 4        # one table (1–5)
//	reprogen -figure 9       # one figure (6–10)
//	reprogen -headline       # the 50 µs vs 65 µs headline
//	reprogen -faults         # fault-recovery chaos experiment (opt-in)
//	reprogen -telemetry      # instrumented observability run (opt-in)
//	reprogen -overload       # overload-protection sweep, claim 4 (opt-in)
//	reprogen -slo            # chaos-diagnostics run: flight recorder + SLO (opt-in)
//	reprogen -csv out/       # also dump the figure curves as CSV files
//	reprogen -dur 60         # figure observation length in seconds
//
// -cpuprofile and -memprofile are complete on every way out.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/sim"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-5)")
	figure := flag.Int("figure", 0, "regenerate one figure (6-10)")
	headline := flag.Bool("headline", false, "regenerate the headline overhead comparison")
	scaling := flag.Bool("scaling", false, "run the stream-count scaling study (§6 future work)")
	// The opt-in artifact runs are rows of the experiments table, each
	// selected by the flag the row names and writing to its OutFlag directory.
	selected := map[string]*bool{}
	for _, s := range experiments.Scenarios {
		if s.Cmd == "reprogen" {
			selected[s.Name] = flag.Bool(s.Name, false, s.Help)
		}
	}
	flag.String("telemetry-out", "telemetry-out", "directory for -telemetry artifacts")
	flag.String("overload-out", "overload-out", "directory for -overload artifacts")
	flag.String("slo-out", "slo-out", "directory for -slo artifacts")
	csvDir := flag.String("csv", "", "directory to write figure curves as CSV")
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
	if err := checkSelection(*table, *figure); err != nil {
		fmt.Fprintln(os.Stderr, "reprogen:", err)
		flag.Usage()
		exit(2)
	}
	experiments.DefaultWorkers = *workers

	dur := sim.Time(*durSec) * sim.Second
	// The opt-in runs never ride along with the paper's tables and figures:
	// each is its own selection, so default runs are bit-identical with or
	// without those subsystems present.
	var picked []experiments.Scenario
	for _, s := range experiments.Scenarios {
		if on := selected[s.Name]; on != nil && *on {
			picked = append(picked, s)
		}
	}
	all := *table == 0 && *figure == 0 && !*headline && !*scaling && len(picked) == 0

	// Every table, figure bundle, and sweep is an independent simulation:
	// fan the selected set across the worker pool, then print in the fixed
	// report order so the output is byte-identical to a sequential run.
	var (
		hostFigs                             *experiments.HostFigures
		niFigs                               *experiments.NIFigures
		t1, t2, t3, t4, t5, headlineRes, sca *experiments.Result
	)
	needHost := all || (*figure >= 6 && *figure <= 8)
	needNI := all || *figure == 9 || *figure == 10

	var jobs []func()
	add := func(cond bool, job func()) {
		if cond {
			jobs = append(jobs, job)
		}
	}
	add(needHost, func() { hostFigs = experiments.RunHostFigures(dur) })
	add(needNI, func() { niFigs = experiments.RunNIFigures(dur / 2) })
	add(all || *table == 1, func() { t1 = experiments.RunTable1() })
	add(all || *table == 2, func() { t2 = experiments.RunTable2() })
	add(all || *table == 3, func() { t3 = experiments.RunTable3() })
	add(all || *table == 4, func() { t4 = experiments.RunTable4() })
	add(all || *table == 5, func() { t5 = experiments.RunTable5() })
	add(all || *headline, func() { headlineRes = experiments.RunHeadline() })
	add(all || *scaling, func() { _, sca = experiments.RunStreamScaling([]int{4, 16, 64, 256}) })
	experiments.Parallel(jobs...)

	// A picked row runs, prints and writes its artifact directory in one go;
	// its -workers is the pool of its own fan-out (the overload sweep's grid).
	// The fault-recovery report is a Result table and prints with the tables,
	// ahead of the figures; the artifact-directory runs follow them.
	emit := func(faults bool) {
		for _, s := range picked {
			if (s.Name == "faults") != faults {
				continue
			}
			dir := flag.Lookup(s.OutFlag).Value.String()
			cfg := cluster.FleetConfig{Dur: dur, Workers: *workers}
			if err := s.RunTo(cfg, dir, os.Stdout, os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "reprogen:", err)
				exit(1)
			}
		}
	}

	for _, res := range []*experiments.Result{t1, t2, t3, t4, t5, headlineRes, sca} {
		if res != nil {
			fmt.Print(res)
		}
	}
	emit(true)
	if hostFigs != nil {
		if all || *figure == 6 {
			fmt.Print(hostFigs.Figure6())
		}
		if all || *figure == 7 {
			fmt.Print(hostFigs.Figure7())
		}
		if all || *figure == 8 {
			fmt.Print(hostFigs.Figure8())
		}
	}
	if niFigs != nil {
		if all || *figure == 9 {
			fmt.Print(niFigs.Figure9())
		}
		if all || *figure == 10 {
			fmt.Print(niFigs.Figure10())
		}
	}
	if all && hostFigs != nil && niFigs != nil {
		fmt.Print(experiments.JitterComparison(hostFigs, niFigs))
	}

	emit(false)

	if *csvDir != "" {
		if err := dumpCSV(*csvDir, hostFigs, niFigs); err != nil {
			fmt.Fprintln(os.Stderr, "csv:", err)
			exit(1)
		}
		fmt.Printf("curves written to %s\n", *csvDir)
	}
	exit(0)
}

// checkSelection rejects a -table or -figure the paper does not have; 0 is
// "not selected".
func checkSelection(table, figure int) error {
	if table != 0 && (table < 1 || table > 5) {
		return fmt.Errorf("-table %d: the paper has tables 1-5", table)
	}
	if figure != 0 && (figure < 6 || figure > 10) {
		return fmt.Errorf("-figure %d: the paper has figures 6-10", figure)
	}
	return nil
}

// dumpCSV writes the figure curves; -faults adds its own curves to the same
// directory (the row's OutFlag is "csv").
func dumpCSV(dir string, hostFigs *experiments.HostFigures, niFigs *experiments.NIFigures) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, body string) error {
		return os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
	}
	if hostFigs != nil {
		for pct, run := range hostFigs.Runs {
			prefix := fmt.Sprintf("host-load%.0f", pct)
			if err := write(prefix+"-util.csv", run.Util.CSV()); err != nil {
				return err
			}
			for name, s := range run.BW {
				if err := write(fmt.Sprintf("%s-bw-%s.csv", prefix, name), s.CSV()); err != nil {
					return err
				}
			}
			for name, d := range run.QDelay {
				if err := write(fmt.Sprintf("%s-qdelay-%s.csv", prefix, name), d.CSV()); err != nil {
					return err
				}
			}
		}
	}
	if niFigs != nil {
		for label, run := range map[string]*experiments.StreamCurves{
			"ni-noload": niFigs.NoLoad, "ni-load60": niFigs.Loaded60,
		} {
			for name, s := range run.BW {
				if err := write(fmt.Sprintf("%s-bw-%s.csv", label, name), s.CSV()); err != nil {
					return err
				}
			}
			for name, d := range run.QDelay {
				if err := write(fmt.Sprintf("%s-qdelay-%s.csv", label, name), d.CSV()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
