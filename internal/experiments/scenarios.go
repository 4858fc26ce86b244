// Scenarios: the one table of runs. Every run reprogen or clustersim makes
// is one row here, under the "same bytes at any -workers" contract; a row is
// the only place that knows the run's stdout order, artifact names, flags,
// pinned shape, baseline file and numeric gates. Main, both commands' front
// end, builds their flags from the rows and runs the one picked (a bare
// reprogen runs "paper"); TestScenarios holds every row to the contract with
// Verify. A new scenario is one row plus, if it pins bytes, one baseline file.
package experiments

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/profiling"
	"repro/internal/sim"
)

// File is one artifact of a run: a name inside the artifact directory and
// its exact bytes.
type File struct{ Name, Body string }

// Output is everything one scenario run produced. Stdout and Files are the
// byte-identical contract; Diag (engine diagnostics, printed to stderr) and
// Gates are not compared.
type Output struct {
	Stdout string
	Files  []File // the artifact directory, in write order
	Diag   string
	Gates  error // nil when every numeric gate of the scenario holds
}

// contract lists every byte-compared artifact: Stdout under the name
// "stdout", then Files.
func (o Output) contract() []File {
	return append([]File{{"stdout", o.Stdout}}, o.Files...)
}

// WriteDir writes the artifact directory, creating it if needed.
func (o Output) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range o.Files {
		if err := os.WriteFile(filepath.Join(dir, f.Name), []byte(f.Body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Scenario is one row of the table. Its configuration is the cluster
// layer's, set by the flags Reads names; every row reads -workers too.
type Scenario struct {
	Name  string // the selecting flag: clustersim -fleet-chaos, reprogen -slo
	Cmd   string // the command that serves it
	Help  string // the flag's usage line; "" = no flag, the row runs when none is set
	Reads string // the flags it reads besides its selector, -workers and the profiles

	// Pinned is the shape CI holds the row to; Verify varies Workers and
	// Monolithic over it. Mono marks rows with a single-engine reference.
	Pinned cluster.FleetConfig
	Mono   bool
	// Baseline is the repo-root file Pins must equal at the pinned shape
	// ("" = nothing pinned); Pins names a File, or "stdout".
	Baseline, Pins string

	Run func(cluster.FleetConfig) Output
}

// The flags every fleet row reads, and every chaos-fleet row.
const (
	fleetReads = "dur out cards fleet-streams"
	chaosReads = fleetReads + " host-crashes net-partitions rolling-drains fault-seed"
)

// Scenarios lists every run, in each command's selector order.
var Scenarios = []Scenario{
	{
		Name: "fleet", Cmd: "clustersim", Reads: fleetReads,
		Help:   "run the partitioned multi-card fleet on the parallel engine",
		Pinned: cluster.FleetConfig{Cards: 64, Dur: 2 * sim.Second}, Mono: true,
		Baseline: "FLEET_BASELINE.txt", Pins: "streams.csv",
		Run: func(cfg cluster.FleetConfig) Output {
			r := cluster.RunFleet(cfg)
			return Output{
				Stdout: r.Summary + "\n" + r.Table + r.Pulse,
				Files: []File{
					{"summary.txt", r.Summary + "\n"}, {"table.txt", r.Table},
					{"pulse.txt", r.Pulse}, {"streams.csv", r.CSV},
				},
				Diag: roundsDiag("fleet", r.Rounds, cfg.Workers),
			}
		},
	},
	{
		Name: "fleet-chaos", Cmd: "clustersim", Reads: chaosReads,
		Help:   "inject correlated failure domains into the fleet and migrate streams live",
		Pinned: cluster.FleetConfig{Dur: 6 * sim.Second}, Mono: true,
		Baseline: "CHAOS_BASELINE.txt", Pins: "stdout",
		Run: func(cfg cluster.FleetConfig) Output {
			c := cluster.RunFleetChaos(cfg)
			return Output{
				Stdout: c.Plan + "\n" + c.Summary + "\n" + c.Table + c.Recovery + c.Violations,
				Files:  chaosFiles(c, c.Summary+"\n"),
				Diag:   roundsDiag("fleet-chaos", c.Rounds, cfg.Workers),
				Gates:  wantZero("violations outside outage windows", c.ViolOutside),
			}
		},
	},
	{
		Name: "fleet-obs", Cmd: "clustersim", Reads: chaosReads + " stress-pct",
		Help:   "scrape the chaos fleet in-band: rollups, incident timeline, stitched traces",
		Pinned: cluster.FleetConfig{Cards: 64, Dur: 6 * sim.Second}, Mono: true,
		Baseline: "FLEETOBS_BASELINE.txt", Pins: "stdout",
		Run: func(cfg cluster.FleetConfig) Output {
			a := cluster.RunFleetObs(cfg)
			c := a.Chaos
			return Output{
				Stdout: a.Summary + "\n" + c.Summary + "\n" + a.Rollup + a.TopK +
					a.ScrapeStats + excerpt(a.Timeline, 14) + a.Stitched,
				Files: chaosFiles(c, a.Summary+"\n"+c.Summary+"\n",
					File{"rollup.txt", a.Rollup}, File{timelineFile, a.Timeline},
					File{"topk.txt", a.TopK}, File{"scrape.txt", a.ScrapeStats},
					File{"stitched.txt", a.Stitched}),
				Diag: roundsDiag("fleet-obs", c.Rounds, cfg.Workers),
				Gates: errors.Join(
					within2Pct("in-band scrape", a.ObsBytes, a.MediaBytes),
					wantZero("budget breaches", a.Breaches),
					wantZero("violations outside outage windows", c.ViolOutside)),
			}
		},
	},
	{
		Name: "ctrl-chaos", Cmd: "clustersim", Reads: chaosReads + " ctrl-crashes ctrl-partitions",
		Help:   "replicate the DVCM controller and inject controller crashes/partitions into the chaos fleet",
		Pinned: cluster.FleetConfig{Dur: 8 * sim.Second}, Mono: true,
		Baseline: "CTRLCHAOS_BASELINE.txt", Pins: "stdout",
		Run: func(cfg cluster.FleetConfig) Output {
			a := cluster.RunCtrlChaos(cfg)
			c := a.Chaos
			return Output{
				Stdout: c.Plan + "\n" + c.Summary + "\n" + a.HASummary + "\n" + a.CtrlPlane +
					excerpt(a.HATimeline, 18) + c.Recovery + c.Violations,
				Files: chaosFiles(c, c.Summary+"\n"+a.HASummary+"\n",
					File{"ctrlplane.txt", a.CtrlPlane}, File{timelineFile, a.HATimeline}),
				Diag: roundsDiag("ctrl-chaos", c.Rounds, cfg.Workers),
				Gates: errors.Join(
					within2Pct("journal replication", a.JournalBytes, a.MediaBytes),
					wantZero("double-placed streams", int64(a.DoublePlaced)),
					wantZero("violations outside outage windows", c.ViolOutside)),
			}
		},
	},
	{
		Name: "chaos-sweep", Cmd: "clustersim",
		Help: "run the chaos fleet across fault severity × fleet size and print the recovery table",
		Run:  func(cfg cluster.FleetConfig) Output { return Output{Stdout: FleetChaosSweep(cfg.Workers)} },
	},
	{
		Name: "paper", Cmd: "reprogen", Reads: "dur out",
		Pinned:   cluster.FleetConfig{Dur: 100 * sim.Second},
		Baseline: "PAPER_BASELINE.txt", Pins: "stdout",
		Run: runPaper,
	},
	{
		Name: "faults", Cmd: "reprogen", Reads: "dur out",
		Help:   "run the fault-recovery chaos experiment (strictly opt-in)",
		Pinned: cluster.FleetConfig{Dur: 20 * sim.Second},
		Run: func(cfg cluster.FleetConfig) Output {
			fr := RunFaultRecovery(FaultConfig{Dur: cfg.Dur})
			var files []File
			for name, s := range fr.BW {
				files = append(files, File{"fault-bw-" + name + ".csv", s.CSV()})
			}
			return Output{Stdout: fr.Result().String(), Files: byName(files)}
		},
	},
	{
		Name: "telemetry", Cmd: "reprogen", Reads: "dur out",
		Help:     "run the instrumented observability demonstration (strictly opt-in)",
		Pinned:   cluster.FleetConfig{Dur: 5 * sim.Second},
		Baseline: "STAGE_BASELINE.txt", Pins: "stages.txt",
		Run: func(cfg cluster.FleetConfig) Output {
			a := RunTelemetry(TelemetryConfig{Dur: cfg.Dur})
			return Output{
				Stdout: a.Summary + a.StageTable + a.CycleTable,
				Files: []File{
					{"trace.json", string(a.TraceJSON)}, {"metrics.prom", a.Prom},
					{"metrics.csv", a.CSV}, {"stages.txt", a.StageTable},
					{"spans.folded", a.Folded}, {"cycles.txt", a.CycleTable},
				},
			}
		},
	},
	{
		Name: "overload", Cmd: "reprogen", Reads: "dur out",
		Help:     "run the overload-protection sweep (strictly opt-in)",
		Pinned:   cluster.FleetConfig{Dur: 10 * sim.Second},
		Baseline: "OVERLOAD_BASELINE.txt", Pins: "stdout",
		Run: func(cfg cluster.FleetConfig) Output {
			a := RunOverload(OverloadConfig{Dur: cfg.Dur, Workers: cfg.Workers})
			table := a.Table.String()
			return Output{
				Stdout: a.Summary + a.Ladder + table,
				Files: []File{
					{"ladder.txt", a.Ladder}, {"overload.csv", a.CSV},
					{"table.txt", table}, {"summary.txt", a.Summary},
				},
			}
		},
	},
	{
		Name: "slo", Cmd: "reprogen", Reads: "dur out",
		Help:     "run the chaos-diagnostics experiment: flight recorder, SLO monitor, incident dumps (strictly opt-in)",
		Pinned:   cluster.FleetConfig{Dur: 8 * sim.Second},
		Baseline: "SLO_BASELINE.txt", Pins: "incidents.txt",
		Run: func(cfg cluster.FleetConfig) Output {
			a := RunDiagnostics(DiagnosticsConfig{Dur: cfg.Dur})
			return Output{
				Stdout: a.Summary + a.SLO,
				Files: []File{
					{"incidents.txt", a.Incidents}, {"slo.txt", a.SLO},
					{"metrics.csv", a.MetricsCSV}, {"stages.txt", a.Stages},
					{"plan.txt", a.Plan}, {"summary.txt", a.Summary},
				},
			}
		},
	},
}

// timelineFile is the incident timeline's name in both rows that write one,
// so tracetool -timeline parses either unchanged.
const timelineFile = "timeline.txt"

// chaosFiles lists the artifact directory every chaos-fleet scenario writes:
// the plan, the scenario's summary lines, whatever the layer on top adds, and
// the chaos run's own tables.
func chaosFiles(c *cluster.FleetChaosResult, summary string, layer ...File) []File {
	files := append([]File{{"plan.txt", c.Plan + "\n"}, {"summary.txt", summary}}, layer...)
	return append(files,
		File{"table.txt", c.Table}, File{"pulse.txt", c.Pulse},
		File{"migrations.txt", c.MigLog}, File{"recovery.txt", c.Recovery},
		File{"violations.txt", c.Violations}, File{"streams.csv", c.CSV})
}

func roundsDiag(name string, rounds int64, workers int) string {
	return fmt.Sprintf("%s: %d synchronization rounds (workers=%d)\n", name, rounds, workers)
}

// excerpt returns the first n lines of a rendered artifact plus an elision
// marker — enough of the incident timeline to read on a terminal without
// drowning stdout; the full artifact goes to the artifact directory. A
// deterministic prefix of a deterministic string, so the stdout contract
// still holds.
func excerpt(s string, n int) string {
	lines := strings.SplitAfter(s, "\n")
	if len(lines) <= n+1 {
		return s
	}
	return strings.Join(lines[:n], "") + fmt.Sprintf("  … %d more line(s); full timeline in -out\n", len(lines)-n-1)
}

func wantZero(what string, n int64) error {
	if n != 0 {
		return fmt.Errorf("%s = %d, want 0", what, n)
	}
	return nil
}

// within2Pct is the overhead gate: control traffic riding the media links
// must stay at or under 2% of the media bytes delivered.
func within2Pct(what string, overhead, media int64) error {
	if media <= 0 || float64(overhead) > 0.02*float64(media) {
		return fmt.Errorf("%s overhead %dB against %dB of media, over the 2%% gate", what, overhead, media)
	}
	return nil
}

// Main is the whole of reprogen and clustersim and returns the exit code. It
// registers a selector per row of cmd (a row with no Help runs when none is
// set), the flags those rows read with durSec as the -dur default, -workers
// and the profile flags. Two rows, no row, a set flag the picked row does
// not read, or a negative -dur, -cards, -fleet-streams or -workers is exit 2
// before anything is written; a broken gate or a failed write is exit 1.
// The profiles are complete on every way out.
func Main(cmd string, durSec int, args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg       cluster.FleetConfig
		out       string
		rows      []Scenario
		selectors []string
		on        = map[string]*bool{}
		readers   = map[string][]string{} // flag name → the rows that read it
	)
	for _, s := range Scenarios {
		if s.Cmd != cmd {
			continue
		}
		rows = append(rows, s)
		if s.Help != "" {
			on[s.Name] = fs.Bool(s.Name, false, s.Help)
			selectors = append(selectors, "-"+s.Name)
		}
		for _, f := range strings.Fields(s.Reads) {
			readers[f] = append(readers[f], "-"+s.Name)
		}
	}

	// Every flag a row can read, bound to what it sets; only those some row
	// of cmd reads are registered, each naming its readers unless all read it.
	all := flag.NewFlagSet(cmd, flag.ContinueOnError)
	all.IntVar(&durSec, "dur", durSec, "simulated run length (seconds)")
	all.StringVar(&out, "out", "", "artifact directory (empty = stdout only)")
	all.IntVar(&cfg.Cards, "cards", 8, "card complexes in the fleet")
	all.IntVar(&cfg.StreamsPerCard, "fleet-streams", 2, "streams sourced per card")
	all.IntVar(&cfg.HostCrashes, "host-crashes", 0, "host-crash faults to draw; 0 = default, negative = none")
	all.IntVar(&cfg.NetPartitions, "net-partitions", 0, "switch-partition faults to draw; 0 = default, negative = none")
	all.IntVar(&cfg.RollingDrains, "rolling-drains", 0, "rolling-drain faults to draw; 0 = default, negative = none")
	all.Int64Var(&cfg.FaultSeed, "fault-seed", 0, "chaos plan seed; 0 = derived from the fleet seed")
	all.IntVar(&cfg.CtrlCrashes, "ctrl-crashes", 0, "controller-crash faults to draw; 0 = default, negative = none")
	all.IntVar(&cfg.CtrlPartitions, "ctrl-partitions", 0, "replica-pair partition faults to draw; 0 = default, negative = none")
	all.IntVar(&cfg.StressPct, "stress-pct", 0, "fill every card's budget to this % mid-run to exercise scrape shedding; 0 = off")
	all.VisitAll(func(f *flag.Flag) {
		if r := readers[f.Name]; r != nil {
			if len(r) < len(rows) {
				f.Usage += " (" + strings.Join(r, ", ") + ")"
			}
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
	fs.IntVar(&cfg.Workers, "workers", 0, "worker pool for every fan-out and the parallel engine (0 = GOMAXPROCS, 1 = sequential); never changes output bytes")
	cpuPath, memPath := profiling.Flags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stop, err := profiling.Start(*cpuPath, *memPath)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", cmd, err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", cmd, err)
			code = max(code, 1)
		}
	}()

	// Two rows would run something other than what was asked, none runs
	// nothing, and a flag the row does not read would change nothing.
	picked := slices.DeleteFunc(slices.Clone(rows), func(s Scenario) bool { return on[s.Name] == nil || !*on[s.Name] })
	if len(picked) == 0 {
		picked = slices.DeleteFunc(rows, func(s Scenario) bool { return on[s.Name] != nil })
	}
	var misuse string
	switch {
	case len(picked) > 1:
		misuse = fmt.Sprintf("-%s and -%s: pick one scenario", picked[0].Name, picked[1].Name)
	case len(picked) == 0:
		misuse = "pick one scenario: " + strings.Join(selectors, ", ")
	default:
		reads := strings.Fields("workers cpuprofile memprofile " + picked[0].Reads)
		var unread []string
		fs.Visit(func(f *flag.Flag) {
			if on[f.Name] == nil && !slices.Contains(reads, f.Name) {
				unread = append(unread, "-"+f.Name)
			}
		})
		if len(unread) > 0 {
			misuse = fmt.Sprintf("-%s does not read %s", picked[0].Name, strings.Join(unread, ", "))
		}
	}
	// A size is 0 for the default or positive; the chaos counts alone read
	// a negative value (none).
	for _, f := range []struct {
		name string
		v    int
	}{{"dur", durSec}, {"cards", cfg.Cards}, {"fleet-streams", cfg.StreamsPerCard}, {"workers", cfg.Workers}} {
		if misuse == "" && f.v < 0 {
			misuse = fmt.Sprintf("-%s %d: must not be negative", f.name, f.v)
		}
	}
	if misuse != "" {
		fmt.Fprintf(stderr, "%s: %s\n", cmd, misuse)
		fs.Usage()
		return 2
	}

	DefaultWorkers = cfg.Workers
	cfg.Dur = sim.Time(durSec) * sim.Second
	if err := picked[0].RunTo(cfg, out, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", cmd, err)
		return 1
	}
	return 0
}

// RunTo is what Main does with the picked row: run it, print Stdout,
// send the engine diagnostics to stderr, and write the artifact directory
// when one was asked for. A gate that breaks fails it at any shape: the
// artifacts are written first, and the error names the row.
func (s Scenario) RunTo(cfg cluster.FleetConfig, dir string, stdout, stderr io.Writer) error {
	out := s.Run(cfg)
	fmt.Fprint(stdout, out.Stdout)
	fmt.Fprint(stderr, out.Diag)
	if dir != "" && len(out.Files) > 0 {
		if err := out.WriteDir(dir); err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		fmt.Fprintf(stderr, "%s artifacts written to %s\n", s.Name, dir)
	}
	if out.Gates != nil {
		return fmt.Errorf("%s: %w", s.Name, out.Gates)
	}
	return nil
}

// pinned returns the artifact the row's baseline file holds.
func (s Scenario) pinned(out Output) string {
	for _, f := range out.contract() {
		if f.Name == s.Pins {
			return f.Body
		}
	}
	panic("scenario " + s.Name + " pins " + s.Pins + ", which its run does not produce")
}

// Verify holds the row to the contract at its pinned shape. The shape runs
// at Workers=1 (the reference), at Workers=4 and, where the row has one, on
// the monolithic single engine — concurrently, so state leaking between runs
// shows too. Stdout and every File must be byte-identical to the reference,
// the pinned artifact must equal the baseline file under root, and every
// gate must hold. The error names scenario, variant, file and the first
// differing line; on failure each variant's output is kept under
// os.TempDir()/scenario-fail/<name>/<variant>/ and the error says where.
func (s Scenario) Verify(root string) error {
	type variant struct {
		name    string
		workers int
		mono    bool
	}
	variants := []variant{{"workers=1", 1, false}, {"workers=4", 4, false}}
	if s.Mono {
		variants = append(variants, variant{"monolithic", 0, true})
	}
	jobs := make([]func() Output, len(variants))
	for i, v := range variants {
		cfg := s.Pinned
		cfg.Workers, cfg.Monolithic = v.workers, v.mono
		jobs[i] = func() Output { return s.Run(cfg) }
	}
	outs := CollectWith(Runner{Workers: len(jobs)}, jobs)

	var errs []error
	fail := func(variant string, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("scenario %s, %s: %w", s.Name, variant, err))
		}
	}
	ref := outs[0]
	for i, v := range variants {
		fail(v.name, outs[i].Gates)
		if i > 0 {
			fail(v.name+" against "+variants[0].name, diffOutputs(outs[i], ref))
		}
	}
	if s.Baseline != "" {
		want, err := os.ReadFile(filepath.Join(root, s.Baseline))
		if err == nil {
			err = diffText(s.Pins, s.pinned(ref), string(want))
		}
		fail(variants[0].name+" against "+s.Baseline, err)
	}
	if len(errs) == 0 {
		return nil
	}
	kept := filepath.Join(os.TempDir(), "scenario-fail", s.Name)
	os.RemoveAll(kept) // an earlier failure's files would read as this one's
	for i, v := range variants {
		fail(v.name, Output{Files: outs[i].contract()}.WriteDir(filepath.Join(kept, v.name)))
	}
	return fmt.Errorf("%w\nevery variant's stdout and artifacts kept under %s", errors.Join(errs...), kept)
}

// diffOutputs compares the byte contract of two runs, artifact by artifact
// in write order.
func diffOutputs(got, want Output) error {
	g, w := got.contract(), want.contract()
	if len(g) != len(w) {
		return fmt.Errorf("%d artifacts, want %d", len(g), len(w))
	}
	for i, f := range w {
		if g[i].Name != f.Name {
			return fmt.Errorf("artifact %d is %s, want %s", i, g[i].Name, f.Name)
		}
		if err := diffText(f.Name, g[i].Body, f.Body); err != nil {
			return err
		}
	}
	return nil
}

// diffText reports the first line at which two texts differ, quoting both
// from the start of that line — or, on a very long line (trace.json is one),
// from a little before the differing byte.
func diffText(name, got, want string) error {
	if got == want {
		return nil
	}
	k := 0
	for k < len(got) && k < len(want) && got[k] == want[k] {
		k++
	}
	from := max(strings.LastIndexByte(got[:k], '\n')+1, k-60)
	toEOL := func(s string) string {
		line, _, _ := strings.Cut(s[from:], "\n")
		return line
	}
	return fmt.Errorf("%s differs at line %d: got %.120q, want %.120q",
		name, 1+strings.Count(got[:k], "\n"), toEOL(got), toEOL(want))
}
