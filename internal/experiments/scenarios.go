// Scenarios: the one table of artifact-producing runs. Every run whose
// stdout and artifact directory are under the "same bytes at any -workers"
// contract is one row here, and a row is the only place that knows the run's
// stdout order, its artifact file names, the shape CI pins it at, the
// baseline file that shape must reproduce, and its numeric gates. The
// commands look a row up by its flag name and RunTo it; TestScenarios holds
// every row to the contract with the one Verify. Adding a scenario is one
// row plus, if it pins bytes, one baseline file (DESIGN.md "Scenarios").
package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/telemetry"
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
// layer's: the fleet rows read all of it, the single-card rows only Dur and
// Workers.
type Scenario struct {
	Name    string // the selecting flag: clustersim -fleet-chaos, reprogen -slo
	Cmd     string // the command that serves it
	Help    string // the flag's usage line
	OutFlag string // the command's flag naming the artifact directory

	// Pinned is the shape CI holds the row to; Verify varies Workers and
	// Monolithic over it. Mono marks rows with a single-engine reference.
	Pinned cluster.FleetConfig
	Mono   bool
	// Baseline is the repo-root file Pins must equal at the pinned shape
	// ("" = nothing pinned); Pins names a File, or "stdout".
	Baseline, Pins string

	Run func(cluster.FleetConfig) Output
}

// Scenarios lists every artifact-producing run, in each command's print
// order.
var Scenarios = []Scenario{
	{
		Name: "fleet", Cmd: "clustersim", OutFlag: "fleet-out",
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
		Name: "fleet-chaos", Cmd: "clustersim", OutFlag: "fleet-out",
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
		Name: "fleet-obs", Cmd: "clustersim", OutFlag: "fleet-out",
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
		Name: "ctrl-chaos", Cmd: "clustersim", OutFlag: "fleet-out",
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
		Name: "faults", Cmd: "reprogen", OutFlag: "csv",
		Help:   "run the fault-recovery chaos experiment (strictly opt-in)",
		Pinned: cluster.FleetConfig{Dur: 20 * sim.Second},
		Run: func(cfg cluster.FleetConfig) Output {
			fr := RunFaultRecovery(FaultConfig{Dur: cfg.Dur})
			out := Output{Stdout: fr.Result().String()}
			for name, s := range fr.BW {
				out.Files = append(out.Files, File{"fault-bw-" + name + ".csv", s.CSV()})
			}
			sort.Slice(out.Files, func(i, j int) bool { return out.Files[i].Name < out.Files[j].Name })
			return out
		},
	},
	{
		Name: "telemetry", Cmd: "reprogen", OutFlag: "telemetry-out",
		Help:     "run the instrumented observability demonstration (strictly opt-in)",
		Pinned:   cluster.FleetConfig{Dur: 5 * sim.Second},
		Baseline: "STAGE_BASELINE.txt", Pins: "stages.txt",
		Run: func(cfg cluster.FleetConfig) Output {
			a := RunTelemetry(TelemetryConfig{Dur: cfg.Dur})
			return Output{
				Stdout: a.Summary + a.StageTable + a.CycleTable,
				Files:  append(a.dumpFiles(), File{"cycles.txt", a.CycleTable}),
			}
		},
	},
	{
		Name: "overload", Cmd: "reprogen", OutFlag: "overload-out",
		Help:     "run the overload-protection sweep (strictly opt-in)",
		Pinned:   cluster.FleetConfig{Dur: 10 * sim.Second},
		Baseline: "OVERLOAD_BASELINE.txt", Pins: "ladder.txt",
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
		Name: "slo", Cmd: "reprogen", OutFlag: "slo-out",
		Help:   "run the chaos-diagnostics experiment: flight recorder, SLO monitor, incident dumps (strictly opt-in)",
		Pinned: cluster.FleetConfig{Dur: 8 * sim.Second},
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

// dumpFiles names the standard dumps of one instrumented run.
func (a *TelemetryArtifacts) dumpFiles() []File {
	return []File{
		{"trace.json", string(a.TraceJSON)}, {"metrics.prom", a.Prom},
		{"metrics.csv", a.CSV}, {"stages.txt", a.StageTable},
		{"spans.folded", a.Folded},
	}
}

// RegistryFiles renders a registry's standard dumps under the names the
// telemetry scenario writes them, for runs instrumented outside the table
// (clustersim -telemetry).
func RegistryFiles(reg *telemetry.Registry) []File { return registryArtifacts(reg).dumpFiles() }

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
	return strings.Join(lines[:n], "") + fmt.Sprintf("  … %d more line(s); full timeline in -fleet-out\n", len(lines)-n-1)
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

// RunTo is what a command does with its selected row: run it, print Stdout,
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
