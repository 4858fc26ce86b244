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
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/sim"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-5)")
	figure := flag.Int("figure", 0, "regenerate one figure (6-10)")
	headline := flag.Bool("headline", false, "regenerate the headline overhead comparison")
	scaling := flag.Bool("scaling", false, "run the stream-count scaling study (§6 future work)")
	faultsRun := flag.Bool("faults", false, "run the fault-recovery chaos experiment (strictly opt-in)")
	telemetryRun := flag.Bool("telemetry", false, "run the instrumented observability demonstration (strictly opt-in)")
	telemetryOut := flag.String("telemetry-out", "telemetry-out", "directory for -telemetry artifacts")
	overloadRun := flag.Bool("overload", false, "run the overload-protection sweep (strictly opt-in)")
	overloadOut := flag.String("overload-out", "overload-out", "directory for -overload artifacts")
	sloRun := flag.Bool("slo", false, "run the chaos-diagnostics experiment: flight recorder, SLO monitor, incident dumps (strictly opt-in)")
	sloOut := flag.String("slo-out", "slo-out", "directory for -slo artifacts")
	overloadWorkers := flag.Int("overload-workers", 0, "worker pool for the overload sweep (0 = GOMAXPROCS)")
	csvDir := flag.String("csv", "", "directory to write figure curves as CSV")
	durSec := flag.Int("dur", 100, "figure observation length (seconds)")
	workers := flag.Int("workers", 0, "worker pool for every experiment fan-out (0 = GOMAXPROCS, 1 = sequential); never changes output bytes")
	flag.Parse()
	if err := checkSelection(*table, *figure); err != nil {
		fmt.Fprintln(os.Stderr, "reprogen:", err)
		flag.Usage()
		os.Exit(2)
	}
	experiments.DefaultWorkers = *workers

	dur := sim.Time(*durSec) * sim.Second
	// Chaos and telemetry never ride along with the paper's tables and
	// figures: -faults and -telemetry are their own selections, so default
	// runs are bit-identical with or without those subsystems present.
	all := *table == 0 && *figure == 0 && !*headline && !*scaling && !*faultsRun && !*telemetryRun && !*overloadRun && !*sloRun

	// Every table, figure bundle, and sweep is an independent simulation:
	// fan the selected set across the worker pool, then print in the fixed
	// report order so the output is byte-identical to a sequential run.
	var (
		hostFigs                             *experiments.HostFigures
		niFigs                               *experiments.NIFigures
		faultRec                             *experiments.FaultRecovery
		telArt                               *experiments.TelemetryArtifacts
		ovArt                                *experiments.OverloadArtifacts
		sloArt                               *experiments.DiagnosticsArtifacts
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
	add(*faultsRun, func() { faultRec = experiments.RunFaultRecovery(experiments.FaultConfig{Dur: dur}) })
	add(*telemetryRun, func() { telArt = experiments.RunTelemetry(experiments.TelemetryConfig{Dur: dur}) })
	add(*sloRun, func() { sloArt = experiments.RunDiagnostics(experiments.DiagnosticsConfig{Dur: dur}) })
	// The overload sweep manages its own worker pool (its grid cells are the
	// parallel unit), so it runs after the shared fan-out, not inside it.
	experiments.Parallel(jobs...)
	if *overloadRun {
		ow := *overloadWorkers
		if ow == 0 {
			ow = *workers // -workers governs unless the sweep-specific knob is set
		}
		ovArt = experiments.RunOverload(experiments.OverloadConfig{Dur: dur, Workers: ow})
	}

	for _, res := range []*experiments.Result{t1, t2, t3, t4, t5, headlineRes, sca} {
		if res != nil {
			fmt.Print(res)
		}
	}
	if faultRec != nil {
		fmt.Print(faultRec.Result())
	}
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

	if telArt != nil {
		if err := dumpTelemetry(*telemetryOut, telArt); err != nil {
			fmt.Fprintln(os.Stderr, "telemetry:", err)
			os.Exit(1)
		}
		fmt.Print(telArt.Summary)
		fmt.Print(telArt.StageTable)
		fmt.Print(telArt.CycleTable)
		// Status goes to stderr: stdout carries only deterministic artifact
		// text, so CI can diff two runs writing to different directories.
		fmt.Fprintf(os.Stderr, "telemetry artifacts written to %s\n", *telemetryOut)
	}

	if ovArt != nil {
		if err := dumpOverload(*overloadOut, ovArt); err != nil {
			fmt.Fprintln(os.Stderr, "overload:", err)
			os.Exit(1)
		}
		fmt.Print(ovArt.Summary)
		fmt.Print(ovArt.Ladder)
		fmt.Print(ovArt.Table)
		fmt.Fprintf(os.Stderr, "overload artifacts written to %s\n", *overloadOut)
	}

	if sloArt != nil {
		if err := dumpDiagnostics(*sloOut, sloArt); err != nil {
			fmt.Fprintln(os.Stderr, "slo:", err)
			os.Exit(1)
		}
		fmt.Print(sloArt.Summary)
		fmt.Print(sloArt.SLO)
		fmt.Fprintf(os.Stderr, "diagnostics artifacts written to %s\n", *sloOut)
	}

	if *csvDir != "" {
		if err := dumpCSV(*csvDir, hostFigs, niFigs, faultRec); err != nil {
			fmt.Fprintln(os.Stderr, "csv:", err)
			os.Exit(1)
		}
		fmt.Printf("curves written to %s\n", *csvDir)
	}
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

// dumpTelemetry writes the observability artifacts of an instrumented run.
func dumpTelemetry(dir string, a *experiments.TelemetryArtifacts) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name string
		body []byte
	}{
		{"trace.json", a.TraceJSON},
		{"metrics.prom", []byte(a.Prom)},
		{"metrics.csv", []byte(a.CSV)},
		{"stages.txt", []byte(a.StageTable)},
		{"spans.folded", []byte(a.Folded)},
		{"cycles.txt", []byte(a.CycleTable)},
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.body, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dumpOverload writes the overload sweep's artifacts: the pinned ladder
// summary, the full grid as CSV, the claim table, and the prose verdicts.
func dumpOverload(dir string, a *experiments.OverloadArtifacts) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name string
		body string
	}{
		{"ladder.txt", a.Ladder},
		{"overload.csv", a.CSV},
		{"table.txt", a.Table.String()},
		{"summary.txt", a.Summary},
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), []byte(f.body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dumpDiagnostics writes the chaos-diagnostics artifacts: the incident dumps
// from the flight recorder, the SLO health table, the metrics/stage views the
// run-diff engine consumes, and the chaos plan that produced them.
func dumpDiagnostics(dir string, a *experiments.DiagnosticsArtifacts) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name string
		body string
	}{
		{"incidents.txt", a.Incidents},
		{"slo.txt", a.SLO},
		{"metrics.csv", a.MetricsCSV},
		{"stages.txt", a.Stages},
		{"plan.txt", a.Plan},
		{"summary.txt", a.Summary},
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), []byte(f.body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func dumpCSV(dir string, hostFigs *experiments.HostFigures, niFigs *experiments.NIFigures, faultRec *experiments.FaultRecovery) error {
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
	if faultRec != nil {
		for name, s := range faultRec.BW {
			if err := write("fault-bw-"+name+".csv", s.CSV()); err != nil {
				return err
			}
		}
	}
	return nil
}
