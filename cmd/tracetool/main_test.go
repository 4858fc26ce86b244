package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fleetobs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// stagesDir writes an artifact directory holding a real StageTable whose
// queue-stage latency is scaled by num/den.
func stagesDir(t *testing.T, num, den sim.Time) string {
	t.Helper()
	var l telemetry.SpanLog
	for i := 0; i < 50; i++ {
		base := sim.Time(i) * sim.Millisecond
		l.Record(telemetry.Segment{Stream: 1, Seq: int64(i), Stage: telemetry.StageQueue,
			Where: "ni0", Start: base, End: base + (2*sim.Millisecond*num)/den})
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "stages.txt"), []byte(l.StageTable()), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestDiffExitCodes(t *testing.T) {
	clean := stagesDir(t, 1, 1)
	slow := stagesDir(t, 6, 5) // 20% queue-latency regression

	var out, errOut strings.Builder
	if code := run([]string{"-diff", clean, clean}, &out, &errOut); code != exitOK {
		t.Fatalf("identical dirs: exit %d, want %d\n%s%s", code, exitOK, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "no significant differences") {
		t.Fatalf("clean table:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-diff", clean, slow}, &out, &errOut); code != exitRegression {
		t.Fatalf("20%% regression: exit %d, want %d\n%s", code, exitRegression, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("regression table:\n%s", out.String())
	}

	// A loose threshold lets the same delta pass.
	out.Reset()
	if code := run([]string{"-diff", "-diff-threshold", "0.5", clean, slow}, &out, &errOut); code != exitOK {
		t.Fatalf("threshold 0.5: exit %d, want %d\n%s", code, exitOK, out.String())
	}

	// JSON verdict carries the same regression bit.
	out.Reset()
	if code := run([]string{"-diff", "-diff-json", clean, slow}, &out, &errOut); code != exitRegression {
		t.Fatalf("json mode: exit %d", code)
	}
	if !strings.Contains(out.String(), `"regression": true`) {
		t.Fatalf("json:\n%s", out.String())
	}
}

func TestTimelineMode(t *testing.T) {
	// Render a real timeline artifact through the same code path the fleet
	// writer uses, so the parser here is tested against the writer's format.
	tl := fleetobs.NewTimeline()
	tl.Add(fleetobs.TimelineEvent{At: sim.Second, Src: fleetobs.SrcController,
		SrcName: "dvcm", Kind: "scrape-dark", Note: "ni04 answered nothing"})
	tl.Add(fleetobs.TimelineEvent{At: sim.Second, Src: 4, SrcName: "ni04",
		Host: "h02", Switch: "sw1", Kind: "domain-fault", Note: "host-crash h02"})
	tl.Add(fleetobs.TimelineEvent{At: 2 * sim.Second, Src: fleetobs.SrcController,
		SrcName: "dvcm", Kind: "migrate-live", Stream: 9, Seq: 44,
		Note: "ni04→ni06 epoch 0→1"})
	file := filepath.Join(t.TempDir(), "timeline.txt")
	if err := os.WriteFile(file, []byte(tl.Render()), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut strings.Builder
	if code := run([]string{"-timeline", file}, &out, &errOut); code != exitOK {
		t.Fatalf("unfiltered: exit %d\n%s", code, errOut.String())
	}
	for _, want := range []string{"3 of 3 event(s) match", "scrape-dark", "events by kind:", "events by source:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("unfiltered output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if code := run([]string{"-timeline", file, "-kind", "scrape"}, &out, &errOut); code != exitOK {
		t.Fatalf("-kind: exit %d", code)
	}
	if !strings.Contains(out.String(), "1 of 3 event(s) match") ||
		strings.Contains(out.String(), "domain-fault") {
		t.Fatalf("-kind scrape output:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-timeline", file, "-stream", "9"}, &out, &errOut); code != exitOK {
		t.Fatalf("-stream: exit %d", code)
	}
	if !strings.Contains(out.String(), "1 of 3 event(s) match") ||
		!strings.Contains(out.String(), "migrate-live") {
		t.Fatalf("-stream 9 output:\n%s", out.String())
	}

	// -src keeps one source's rows — exact match, so "ni04" must not also
	// match a detail that mentions ni04.
	out.Reset()
	if code := run([]string{"-timeline", file, "-src", "ni04"}, &out, &errOut); code != exitOK {
		t.Fatalf("-src: exit %d", code)
	}
	if !strings.Contains(out.String(), "1 of 3 event(s) match") ||
		!strings.Contains(out.String(), "domain-fault") ||
		strings.Contains(out.String(), "scrape-dark") {
		t.Fatalf("-src ni04 output:\n%s", out.String())
	}

	// Garbage input is a parse error, not a crash.
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("not a timeline\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-timeline", bad}, &out, &errOut); code != exitParse {
		t.Fatalf("garbage timeline: exit %d, want %d", code, exitParse)
	}
}

// TestPressureMode pins the -pressure view of the diagnostics run's
// metrics.csv (the reprogen -slo shape) byte for byte, and holds malformed
// or overload-free dumps to the parse-error exit.
func TestPressureMode(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "metrics.csv")
	csv := experiments.RunDiagnostics(experiments.DiagnosticsConfig{Dur: 8 * sim.Second}).MetricsCSV
	if err := os.WriteFile(file, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-pressure", file}, &out, &errOut); code != exitOK {
		t.Fatalf("exit %d\n%s", code, errOut.String())
	}
	const want = `overload pressure (last snapshot per series)
  budget: used 1121930 B of 1572864 B (71.3%), peak 1572864 B (100.0%)
  ladder: rung none, 12 transition(s)
  shed by rung: tolerant 61, B frames 274, P frames 76, revoked 5 (reinstated 5)
  admission: rejects 3, breaches 0
  backpressure: engages 1, releases 1, source stalls 1527
  dwcs: frames_dropped_total=65 queue_delay_ms_count=119 queue_delay_ms_sum=183303
`
	if out.String() != want {
		t.Fatalf("pressure view:\n%s\nwant:\n%s", out.String(), want)
	}

	for name, body := range map[string]string{
		"bad header":  "time,component\n1000,overload,ladder_rung,0\n",
		"short row":   "time_ms,component,metric,value\n1000,overload,ladder_rung\n",
		"bad value":   "time_ms,component,metric,value\n1000,overload,ladder_rung,x\n",
		"NaN value":   "time_ms,component,metric,value\n1000,overload,ladder_rung,NaN\n",
		"no overload": "time_ms,component,metric,value\n1000,nic,tx_frames_total,1\n",
	} {
		bad := filepath.Join(dir, "bad.csv")
		if err := os.WriteFile(bad, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if code := run([]string{"-pressure", bad}, &out, &errOut); code != exitParse {
			t.Errorf("%s: exit %d, want %d", name, code, exitParse)
		}
	}
	if code := run([]string{"-pressure", filepath.Join(dir, "absent.csv")}, &out, &errOut); code != exitParse {
		t.Fatalf("missing file: exit %d, want %d", code, exitParse)
	}
}

func TestUsageAndParseExitCodes(t *testing.T) {
	var out, errOut strings.Builder

	// Usage errors: unknown flag, -diff arity, no mode selected.
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != exitUsage {
		t.Fatalf("unknown flag: exit %d, want %d", code, exitUsage)
	}
	if code := run([]string{"-diff", "onlyone"}, &out, &errOut); code != exitUsage {
		t.Fatalf("-diff arity: exit %d, want %d", code, exitUsage)
	}
	errOut.Reset()
	if code := run(nil, &out, &errOut); code != exitUsage {
		t.Fatalf("no mode: exit %d, want %d", code, exitUsage)
	}
	// The usage block lists every mode and the exit-code contract.
	usage := errOut.String()
	for _, want := range []string{"-in", "-checkprom", "-pressure", "-diff",
		"exit codes: 0 ok, 1 usage, 2 parse error, 3 regression"} {
		if !strings.Contains(usage, want) {
			t.Fatalf("usage missing %q:\n%s", want, usage)
		}
	}

	// Parse errors: malformed artifact directory, unreadable trace.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "metrics.csv"), []byte("not,a,header\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-diff", bad, bad}, &out, &errOut); code != exitParse {
		t.Fatalf("malformed dir: exit %d, want %d", code, exitParse)
	}
	if code := run([]string{"-in", filepath.Join(bad, "absent.json")}, &out, &errOut); code != exitParse {
		t.Fatalf("missing trace: exit %d, want %d", code, exitParse)
	}
}

// TestDiffConformanceMode pins the sim-vs-real gate: the same 20% queue
// drift that regresses in exact mode is tolerated under -conformance
// (wall-clock threshold 0.50), a 2x drift still fails, and the report
// names the mode.
func TestDiffConformanceMode(t *testing.T) {
	clean := stagesDir(t, 1, 1)
	drift := stagesDir(t, 6, 5)
	double := stagesDir(t, 2, 1)

	var out, errOut strings.Builder
	if code := run([]string{"-diff", "-conformance", clean, drift}, &out, &errOut); code != exitOK {
		t.Fatalf("20%% drift under -conformance: exit %d, want %d\n%s%s",
			code, exitOK, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "mode: conformance") {
		t.Fatalf("report missing mode line:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-diff", "-conformance", clean, double}, &out, &errOut); code != exitRegression {
		t.Fatalf("2x drift under -conformance: exit %d, want %d\n%s", code, exitRegression, out.String())
	}

	// An explicit threshold still overrides the conformance default.
	out.Reset()
	if code := run([]string{"-diff", "-conformance", "-diff-threshold", "0.1", clean, drift}, &out, &errOut); code != exitRegression {
		t.Fatalf("explicit threshold under -conformance: exit %d, want %d\n%s", code, exitRegression, out.String())
	}
}
