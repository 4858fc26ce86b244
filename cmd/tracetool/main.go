// Command tracetool inspects and transforms the diagnostic artifacts written
// by reprogen and clustersim: Chrome trace-event dumps, Prometheus text
// dumps, metrics.csv snapshot dumps, and whole artifact directories.
//
// Usage:
//
//	tracetool -in trace.json                     # re-emit canonically (stdout)
//	tracetool -in a.json -in b.json -out m.json  # merge traces
//	tracetool -in trace.json -stream 2           # keep one stream
//	tracetool -in trace.json -stage wire         # keep one stage
//	tracetool -in trace.json -where ni-sched     # filter by location substring
//	tracetool -in trace.json -summary            # per-stage event counts
//	tracetool -checkprom metrics.prom            # validate a Prometheus dump
//	tracetool -pressure metrics.csv              # overload pressure view
//	tracetool -timeline timeline.txt             # fleet incident timeline view
//	tracetool -timeline t.txt -stream 9          # one stream's incident history
//	tracetool -timeline t.txt -kind migrate      # one event kind
//	tracetool -timeline t.txt -src ctl-b         # one source's rows (a card, or
//	                                             # a controller replica)
//	tracetool -diff dirA dirB                    # run-diff two artifact dirs
//	tracetool -diff -conformance simdir realdir  # sim-vs-real conformance diff
//
// Exit codes (all modes):
//
//	0  success, and (for -diff) no regression
//	1  usage error: bad flags, missing inputs
//	2  parse error: unreadable or malformed artifact
//	3  regression: -diff found at least one regression
//
// Trace output always goes through the same canonical writer the exporters
// use, so a filter-free pass re-emits its input byte-identically — the
// property CI relies on. The -diff mode is the CI perf gate: it compares the
// seven artifact files internal/rundiff reads — stages.txt, metrics.csv,
// slo.txt, ladder.txt, cycles.txt, and the fleet-obs rollup.txt and
// timeline.txt — between two artifact directories against a relative
// threshold and exits 3 on regression; rollup findings name the failing
// switch domain. -pressure and -timeline read metrics.csv and timeline.txt
// through the same rundiff readers, so each format has one parser.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/overload"
	"repro/internal/rundiff"
	"repro/internal/telemetry"
)

// Exit codes. Documented in the package comment and pinned by tests.
const (
	exitOK         = 0
	exitUsage      = 1
	exitParse      = 2
	exitRegression = 3
)

// multiFlag collects repeated -in values.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can assert exit codes.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracetool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var ins multiFlag
	fs.Var(&ins, "in", "input trace JSON (repeatable; inputs are merged)")
	out := fs.String("out", "", "output file (default stdout)")
	stream := fs.Int("stream", 0, "keep only events of this stream id")
	stage := fs.String("stage", "", "keep only events of this stage (disk, bus, queue, tx, wire, playout)")
	where := fs.String("where", "", "keep only events whose location contains this substring")
	summary := fs.Bool("summary", false, "print per-stage event counts instead of JSON")
	checkprom := fs.String("checkprom", "", "validate a Prometheus text dump and exit")
	pressure := fs.String("pressure", "", "render the overload pressure view from a metrics.csv snapshot dump and exit")
	timeline := fs.String("timeline", "", "filter/summarize a fleet incident timeline artifact and exit (-stream, -kind, -src)")
	kind := fs.String("kind", "", "keep only timeline events of this kind (with -timeline)")
	src := fs.String("src", "", "keep only timeline events from this source, e.g. ni03 or ctl-b (with -timeline)")
	diff := fs.Bool("diff", false, "compare two artifact directories (positional: dirA dirB); exit 3 on regression")
	diffThreshold := fs.Float64("diff-threshold", 0, "relative delta beyond which a -diff series regresses (default 0.10, or 0.50 with -conformance)")
	diffJSON := fs.Bool("diff-json", false, "emit the -diff report as JSON instead of a table")
	conformance := fs.Bool("conformance", false, "with -diff: sim-vs-real mode — wall-clock tolerances, max latency informational")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tracetool [mode flags]")
		fmt.Fprintln(stderr, "modes:")
		fmt.Fprintln(stderr, "  -in trace.json [...]   filter/merge/re-emit Chrome traces (-stream, -stage, -where, -summary, -out)")
		fmt.Fprintln(stderr, "  -checkprom dump.prom   validate a Prometheus text dump")
		fmt.Fprintln(stderr, "  -pressure metrics.csv  overload pressure view of a snapshot dump")
		fmt.Fprintln(stderr, "  -timeline timeline.txt fleet incident timeline view (-stream, -kind, -src)")
		fmt.Fprintln(stderr, "  -diff dirA dirB        run-diff two artifact directories (-diff-threshold, -diff-json, -conformance)")
		fmt.Fprintln(stderr, "exit codes: 0 ok, 1 usage, 2 parse error, 3 regression")
		fmt.Fprintln(stderr, "flags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	if *diff {
		return runDiff(fs.Args(), *diffThreshold, *diffJSON, *conformance, stdout, stderr)
	}

	if *timeline != "" {
		data, err := os.ReadFile(*timeline)
		if err != nil {
			fmt.Fprintln(stderr, "tracetool:", err)
			return exitParse
		}
		if err := printTimeline(stdout, string(data), *stream, *kind, *src); err != nil {
			fmt.Fprintf(stderr, "tracetool: %s: %v\n", *timeline, err)
			return exitParse
		}
		return exitOK
	}

	if *pressure != "" {
		data, err := os.ReadFile(*pressure)
		if err != nil {
			fmt.Fprintln(stderr, "tracetool:", err)
			return exitParse
		}
		if err := printPressure(stdout, string(data)); err != nil {
			fmt.Fprintf(stderr, "tracetool: %s: %v\n", *pressure, err)
			return exitParse
		}
		return exitOK
	}

	if *checkprom != "" {
		data, err := os.ReadFile(*checkprom)
		if err != nil {
			fmt.Fprintln(stderr, "tracetool:", err)
			return exitParse
		}
		families, samples, err := telemetry.CheckPrometheus(string(data))
		if err != nil {
			fmt.Fprintf(stderr, "tracetool: %s: %v\n", *checkprom, err)
			return exitParse
		}
		fmt.Fprintf(stdout, "%s: ok (%d families, %d samples)\n", *checkprom, families, samples)
		return exitOK
	}

	if len(ins) == 0 {
		fmt.Fprintln(stderr, "tracetool: need at least one -in (or -checkprom/-pressure/-diff)")
		fs.Usage()
		return exitUsage
	}

	var events []telemetry.ChromeEvent
	for _, in := range ins {
		data, err := os.ReadFile(in)
		if err != nil {
			fmt.Fprintln(stderr, "tracetool:", err)
			return exitParse
		}
		evs, err := telemetry.UnmarshalChrome(data)
		if err != nil {
			fmt.Fprintf(stderr, "tracetool: %s: %v\n", in, err)
			return exitParse
		}
		events = append(events, evs...)
	}

	kept := events[:0]
	for _, e := range events {
		if *stream != 0 && e.Args.Stream != *stream {
			continue
		}
		if *stage != "" && e.Name != *stage {
			continue
		}
		if *where != "" && !strings.Contains(e.Args.Where, *where) {
			continue
		}
		kept = append(kept, e)
	}

	if *summary {
		printSummary(stdout, kept)
		return exitOK
	}

	raw, err := telemetry.MarshalChrome(kept)
	if err != nil {
		fmt.Fprintln(stderr, "tracetool:", err)
		return exitParse
	}
	if *out == "" {
		stdout.Write(raw)
		return exitOK
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fmt.Fprintln(stderr, "tracetool:", err)
		return exitParse
	}
	return exitOK
}

// runDiff is the CI perf gate: compare two artifact directories and exit 3
// when any series regressed past the threshold. With conformance set it
// runs the sim-vs-real mode: one side was measured on a wall clock, so
// tolerances widen and per-stage max latency is informational.
func runDiff(dirs []string, threshold float64, asJSON, conformance bool, stdout, stderr io.Writer) int {
	if len(dirs) != 2 {
		fmt.Fprintln(stderr, "tracetool: -diff needs exactly two directories: dirA (baseline) dirB (candidate)")
		return exitUsage
	}
	rep, err := rundiff.DiffDirs(dirs[0], dirs[1],
		rundiff.Options{Threshold: threshold, WallClock: conformance})
	if err != nil {
		if errors.Is(err, rundiff.ErrParse) {
			fmt.Fprintln(stderr, "tracetool:", err)
			return exitParse
		}
		fmt.Fprintln(stderr, "tracetool:", err)
		return exitUsage
	}
	if asJSON {
		fmt.Fprintln(stdout, rep.JSON())
	} else {
		fmt.Fprint(stdout, rep.Table())
	}
	if rep.Regression() {
		return exitRegression
	}
	return exitOK
}

// printSummary tallies events per stage: count and total duration.
func printSummary(w io.Writer, events []telemetry.ChromeEvent) {
	type agg struct {
		count int
		durUs float64
	}
	byStage := make(map[string]*agg)
	for _, e := range events {
		a := byStage[e.Name]
		if a == nil {
			a = &agg{}
			byStage[e.Name] = a
		}
		a.count++
		a.durUs += e.Dur
	}
	stages := make([]string, 0, len(byStage))
	for s := range byStage {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	fmt.Fprintf(w, "%-10s %10s %14s\n", "stage", "events", "total_us")
	for _, s := range stages {
		a := byStage[s]
		fmt.Fprintf(w, "%-10s %10d %14.2f\n", s, a.count, a.durUs)
	}
	fmt.Fprintf(w, "%-10s %10d\n", "total", len(events))
}

// printTimeline filters a fleet incident timeline artifact (the fixed-column
// form Timeline.Render writes: t, src, host, sw, kind, detail) and tallies
// the surviving events per kind and per source. stream matches the
// "stream=N" prefix the renderer puts on stream-scoped details; kind is a
// substring match so "scrape" covers scrape-dark/-degrade/-restore at once;
// src is an exact match on the source column (a card like "ni03", or a
// controller replica like "ctl-b" on the control-plane timeline).
func printTimeline(w io.Writer, content string, stream int, kind, src string) error {
	columns, rows, err := rundiff.ReadTimeline(content)
	if err != nil {
		return err
	}
	streamTag := fmt.Sprintf("stream=%d ", stream)
	byKind := make(map[string]int)
	bySrc := make(map[string]int)
	var kept []string
	for _, r := range rows {
		if kind != "" && !strings.Contains(r.Kind, kind) {
			continue
		}
		if src != "" && r.Src != src {
			continue
		}
		if stream != 0 && !strings.HasPrefix(r.Detail, streamTag) && r.Detail != strings.TrimSpace(streamTag) {
			continue
		}
		kept = append(kept, r.Line)
		byKind[r.Kind]++
		bySrc[r.Src]++
	}
	fmt.Fprintf(w, "%d of %d event(s) match\n", len(kept), len(rows))
	fmt.Fprintln(w, columns)
	for _, line := range kept {
		fmt.Fprintln(w, line)
	}
	for _, sec := range []struct {
		header string
		counts map[string]int
	}{{"events by kind:", byKind}, {"events by source:", bySrc}} {
		header, counts := sec.header, sec.counts
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintln(w, header)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-14s %d\n", k, counts[k])
		}
	}
	return nil
}

// printPressure renders the overload controller's view of a metrics.csv
// snapshot dump (time_ms,component,metric,value): budget occupancy, the
// degradation ladder's position and per-rung shed counts, admission verdicts,
// and backpressure activity — each series at its last snapshot.
func printPressure(w io.Writer, csv string) error {
	series, err := rundiff.ReadMetrics(csv)
	if err != nil {
		return err
	}
	last := make(map[string]map[string]float64) // component → metric → value
	for name, v := range series {
		c, metric, _ := strings.Cut(name, ".")
		if last[c] == nil {
			last[c] = make(map[string]float64)
		}
		last[c][metric] = v
	}
	ov := last["overload"]
	if len(ov) == 0 {
		return fmt.Errorf("no overload metrics — was the run armed with -overload?")
	}
	used, size, peak := ov["budget_used_bytes"], ov["budget_size_bytes"], ov["budget_peak_bytes"]
	fmt.Fprintln(w, "overload pressure (last snapshot per series)")
	if size > 0 {
		fmt.Fprintf(w, "  budget: used %.0f B of %.0f B (%.1f%%), peak %.0f B (%.1f%%)\n",
			used, size, 100*used/size, peak, 100*peak/size)
	}
	rung := overload.Rung(int(ov["ladder_rung"]))
	fmt.Fprintf(w, "  ladder: rung %s, %.0f transition(s)\n", rung, ov["ladder_transitions_total"])
	fmt.Fprintf(w, "  shed by rung: tolerant %.0f, B frames %.0f, P frames %.0f, revoked %.0f (reinstated %.0f)\n",
		ov["shed_tolerant_total"], ov["shed_b_frames_total"], ov["shed_p_frames_total"],
		ov["revoked_total"], ov["reinstated_total"])
	fmt.Fprintf(w, "  admission: rejects %.0f, breaches %.0f\n",
		ov["admission_rejects_total"], ov["budget_breaches_total"])
	fmt.Fprintf(w, "  backpressure: engages %.0f, releases %.0f, source stalls %.0f\n",
		ov["backpressure_engages_total"], ov["backpressure_releases_total"], ov["source_stalls_total"])
	// Queue/drop pressure seen by the rest of the pipeline, per component.
	comps := make([]string, 0, len(last))
	for c := range last {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		if c == "overload" {
			continue
		}
		var rows []string
		for name, v := range last[c] {
			if strings.Contains(name, "drop") || strings.Contains(name, "reject") ||
				strings.Contains(name, "stall") || strings.Contains(name, "queue") {
				rows = append(rows, fmt.Sprintf("%s=%.0f", name, v))
			}
		}
		if len(rows) == 0 {
			continue
		}
		sort.Strings(rows)
		fmt.Fprintf(w, "  %s: %s\n", c, strings.Join(rows, " "))
	}
	return nil
}
