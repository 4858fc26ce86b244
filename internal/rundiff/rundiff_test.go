package rundiff

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// writeDir materializes an artifact directory from name → content.
func writeDir(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// stagesTable builds a real StageTable from a SpanLog whose queue-stage
// latency is scaled by num/den — the injected-regression fixture.
func stagesTable(num, den sim.Time) string {
	var l telemetry.SpanLog
	for i := 0; i < 50; i++ {
		base := sim.Time(i) * sim.Millisecond
		l.Record(telemetry.Segment{Stream: 1, Seq: int64(i), Stage: telemetry.StageDisk,
			Where: "d0", Start: base, End: base + 5*sim.Millisecond})
		l.Record(telemetry.Segment{Stream: 1, Seq: int64(i), Stage: telemetry.StageQueue,
			Where: "ni0", Start: base, End: base + (2*sim.Millisecond*num)/den})
	}
	return l.StageTable()
}

func TestInjectedLatencyRegressionCaught(t *testing.T) {
	// Run B's queue-stage latency is 20% worse than run A's — above the 10%
	// default threshold, so the diff must flag a regression.
	a := writeDir(t, map[string]string{"stages.txt": stagesTable(1, 1)})
	b := writeDir(t, map[string]string{"stages.txt": stagesTable(6, 5)})
	r, err := DiffDirs(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Regression() {
		t.Fatalf("20%% queue-latency regression not caught:\n%s", r.Table())
	}
	var hit bool
	for _, f := range r.Findings {
		if strings.HasPrefix(f.Series, "queue.") && f.Severity == SevRegression {
			hit = true
			if f.Delta < 0.15 || f.Delta > 0.25 {
				t.Fatalf("queue delta %.3f, want ~0.20", f.Delta)
			}
		}
		if strings.HasPrefix(f.Series, "disk.") && f.Severity == SevRegression {
			t.Fatalf("disk stage unchanged but flagged: %+v", f)
		}
	}
	if !hit {
		t.Fatalf("no queue-stage regression finding:\n%s", r.Table())
	}

	// Swapped direction is an improvement, not a regression.
	r2, err := DiffDirs(b, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Regression() {
		t.Fatalf("latency drop misread as regression:\n%s", r2.Table())
	}
}

func TestIdenticalDirsClean(t *testing.T) {
	files := map[string]string{"stages.txt": stagesTable(1, 1)}
	r, err := DiffDirs(writeDir(t, files), writeDir(t, files), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Regression() || len(r.Findings) != 0 {
		t.Fatalf("identical dirs produced findings:\n%s", r.Table())
	}
	if !strings.Contains(r.Table(), "no significant differences") {
		t.Fatalf("table:\n%s", r.Table())
	}
}

const metricsA = `time_ms,component,metric,value
1000,nic,tx_frames_total,100
1000,overload,admission_rejects_total,2
1000,overload,budget_used_bytes,50000
`

func TestMetricsBadnessDirection(t *testing.T) {
	metricsB := strings.NewReplacer(
		"admission_rejects_total,2", "admission_rejects_total,10",
		"tx_frames_total,100", "tx_frames_total,150",
	).Replace(metricsA)
	a := writeDir(t, map[string]string{"metrics.csv": metricsA})
	b := writeDir(t, map[string]string{"metrics.csv": metricsB})
	r, err := DiffDirs(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rejects, tx *Finding
	for i := range r.Findings {
		switch r.Findings[i].Series {
		case "overload.admission_rejects_total":
			rejects = &r.Findings[i]
		case "nic.tx_frames_total":
			tx = &r.Findings[i]
		}
	}
	if rejects == nil || rejects.Severity != SevRegression {
		t.Fatalf("reject growth should regress: %+v\n%s", rejects, r.Table())
	}
	if tx == nil || tx.Severity != SevInfo {
		t.Fatalf("neutral throughput change should be info: %+v", tx)
	}
}

const ladderA = `overload ladder/admission summary (2 cells)
load       mult  max_rung  trans   shed  dropB  dropP  revok  reins rejects  admits breaches  bp_engag
no web load 4     drop-B        6     76      0      0      0      0       3       4        0         2
45% web    8     drop-B        8     90      4      0      0      0       4       4        0         3
`

func TestLadderEscalationAndBreachRegress(t *testing.T) {
	ladderB := strings.NewReplacer(
		"no web load 4     drop-B", "no web load 4     revoke",
		"0         3\n", "2         3\n", // breaches 0 → 2 in the second cell
	).Replace(ladderA)
	a := writeDir(t, map[string]string{"ladder.txt": ladderA})
	b := writeDir(t, map[string]string{"ladder.txt": ladderB})
	r, err := DiffDirs(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Regression() {
		t.Fatalf("rung escalation + breaches not caught:\n%s", r.Table())
	}
	var rung, breach bool
	for _, f := range r.Findings {
		if strings.HasSuffix(f.Series, ".max_rung") && f.Severity == SevRegression {
			rung = true
			if !strings.Contains(f.Note, "drop-B → revoke") {
				t.Fatalf("rung note %q", f.Note)
			}
		}
		if strings.HasSuffix(f.Series, ".breaches") && f.Severity == SevRegression {
			breach = true
		}
	}
	if !rung || !breach {
		t.Fatalf("rung=%v breach=%v:\n%s", rung, breach, r.Table())
	}
	// De-escalation reads as improvement.
	r2, err := DiffDirs(b, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range r2.Findings {
		if strings.HasSuffix(f.Series, ".max_rung") && f.Severity != SevImprovement {
			t.Fatalf("de-escalation severity %v", f.Severity)
		}
	}
}

const cyclesA = `cycle attribution (i960RD-66)
component      operation             ops         cycles           us    share
dwcs           decision            10000        5000000       100.00    50.0%
nic            dispatch            10000        5000000       100.00    50.0%
total                                          10000000       200.00   100.0%
`

func TestCyclesGrowthRegresses(t *testing.T) {
	cyclesB := strings.Replace(cyclesA,
		"dwcs           decision            10000        5000000",
		"dwcs           decision            10000        7000000", 1)
	a := writeDir(t, map[string]string{"cycles.txt": cyclesA})
	b := writeDir(t, map[string]string{"cycles.txt": cyclesB})
	r, err := DiffDirs(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Regression() {
		t.Fatalf("40%% cycle growth not caught:\n%s", r.Table())
	}
}

func TestMissingAndUnknownFiles(t *testing.T) {
	a := writeDir(t, map[string]string{
		"stages.txt": stagesTable(1, 1), "metrics.csv": metricsA})
	b := writeDir(t, map[string]string{"stages.txt": stagesTable(1, 1)})
	r, err := DiffDirs(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MissingB) != 1 || r.MissingB[0] != "metrics.csv" {
		t.Fatalf("MissingB = %v", r.MissingB)
	}
	// Two dirs sharing no known artifacts cannot be compared at all.
	empty := t.TempDir()
	if _, err := DiffDirs(empty, empty, Options{}); !errors.Is(err, ErrParse) {
		t.Fatalf("empty dirs: %v, want ErrParse", err)
	}
}

func TestParseErrorsWrapErrParse(t *testing.T) {
	cases := map[string]map[string]string{
		"bad stages row":  {"stages.txt": "per-stage frame latency (simulated)\nstage count\ndisk 1 2\n"},
		"bad csv header":  {"metrics.csv": "nope,nope\n1,2,3,4\n"},
		"bad csv value":   {"metrics.csv": "time_ms,component,metric,value\n1000,nic,x,abc\n"},
		"bad ladder rung": {"ladder.txt": "load mult max_rung t s b p r i j a b c\nx 4 warp 1 2 3 4 5 6 7 8 9 10\n"},
		"empty cycles":    {"cycles.txt": "cycle attribution\n"},
	}
	for name, files := range cases {
		dir := writeDir(t, files)
		if _, err := DiffDirs(dir, dir, Options{}); !errors.Is(err, ErrParse) {
			t.Errorf("%s: err = %v, want ErrParse", name, err)
		}
	}
}

func TestReportJSONAndTableStable(t *testing.T) {
	a := writeDir(t, map[string]string{"stages.txt": stagesTable(1, 1)})
	b := writeDir(t, map[string]string{"stages.txt": stagesTable(6, 5)})
	r1, err := DiffDirs(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := DiffDirs(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.JSON() != r2.JSON() || r1.Table() != r2.Table() {
		t.Fatal("report output not deterministic")
	}
	if !strings.Contains(r1.JSON(), `"regression": true`) {
		t.Fatalf("JSON verdict:\n%s", r1.JSON())
	}
}

const sloA = `slo dwcsd: health=ok, 24 eval(s), 2 transition(s), 0 violation(s)
id   name           state      short_burn  long_burn   loss_tgt  trans
0    s0             ok               0.40       0.30     0.5000      1
1    s1             ok               0.20       0.20     0.5000      1
`

func TestSLOEscalationRegresses(t *testing.T) {
	sloB := strings.NewReplacer(
		"health=ok", "health=violated",
		"0 violation(s)", "1 violation(s)",
		"0    s0             ok     ", "0    s0             violated",
	).Replace(sloA)
	a := writeDir(t, map[string]string{"slo.txt": sloA, "stages.txt": stagesTable(1, 1)})
	b := writeDir(t, map[string]string{"slo.txt": sloB, "stages.txt": stagesTable(1, 1)})
	r, err := DiffDirs(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Regression() {
		t.Fatalf("SLO escalation not caught:\n%s", r.Table())
	}
	var health, stream, viol bool
	for _, f := range r.Findings {
		switch f.Series {
		case "health.rank":
			health = f.Severity == SevRegression && strings.Contains(f.Note, "ok → violated")
		case "s0.state_rank":
			stream = f.Severity == SevRegression
		case "violations":
			viol = f.Severity == SevRegression
		}
	}
	if !health || !stream || !viol {
		t.Fatalf("health=%v stream=%v violations=%v:\n%s", health, stream, viol, r.Table())
	}
	// Recovery in the other direction is an improvement, not a regression.
	r2, err := DiffDirs(b, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Regression() {
		t.Fatalf("SLO recovery misread as regression:\n%s", r2.Table())
	}
}

func TestSLOParseErrors(t *testing.T) {
	cases := map[string]string{
		"no header":  "id name state short long tgt trans\n0 s0 ok 0 0 0.5 0\n",
		"bad state":  "slo c: health=ok, 1 eval(s), 0 transition(s), 0 violation(s)\n0 s0 warp 0 0 0.5 0\n",
		"bad health": "slo c: health=warp, 1 eval(s), 0 transition(s), 0 violation(s)\n",
		"short row":  "slo c: health=ok, 1 eval(s), 0 transition(s), 0 violation(s)\n0 s0 ok 0\n",
		"bad burn":   "slo c: health=ok, 1 eval(s), 0 transition(s), 0 violation(s)\n0 s0 ok x 0 0.5 0\n",
	}
	for name, text := range cases {
		if _, err := readSLO(text); !errors.Is(err, ErrParse) {
			t.Errorf("%s: err = %v, want ErrParse", name, err)
		}
	}
}

// TestOptionalArtifactsSkippedWithNote pins the real-run tolerance: a sim
// artifact dir carrying cycles.txt and ladder.txt diffed against a real-run
// dir that cannot produce them (no cycle meter, no overload sweep on a host)
// must compare the shared core and note the optional files, not fail.
func TestOptionalArtifactsSkippedWithNote(t *testing.T) {
	sim := writeDir(t, map[string]string{
		"stages.txt":  stagesTable(1, 1),
		"metrics.csv": metricsA,
		"cycles.txt":  cyclesA,
		"ladder.txt":  ladderA,
	})
	real := writeDir(t, map[string]string{
		"stages.txt":  stagesTable(1, 1),
		"metrics.csv": metricsA,
		"slo.txt":     sloA,
	})
	r, err := DiffDirs(sim, real, Options{})
	if err != nil {
		t.Fatalf("optional-file asymmetry should not error: %v", err)
	}
	if len(r.Compared) != 2 || r.Compared[0] != "stages.txt" || r.Compared[1] != "metrics.csv" {
		t.Fatalf("Compared = %v, want the shared core", r.Compared)
	}
	if len(r.MissingA) != 0 || len(r.MissingB) != 0 {
		t.Fatalf("optional files misfiled as missing: A=%v B=%v", r.MissingA, r.MissingB)
	}
	if len(r.Skipped) != 3 {
		t.Fatalf("Skipped = %v, want slo.txt + ladder.txt + cycles.txt notes", r.Skipped)
	}
	for _, s := range r.Skipped {
		if !strings.Contains(s, "optional") {
			t.Fatalf("skip note %q lacks the optional marker", s)
		}
	}
	if !strings.Contains(r.Table(), "skipped: ") {
		t.Fatalf("table missing skip notes:\n%s", r.Table())
	}
}

// TestWallClockConformanceMode pins the sim-vs-real tolerances: a 20% p95
// drift is below the widened 50% threshold (wall-clock noise), a 2× drift
// still regresses, and max_us growth is demoted to info with a note.
func TestWallClockConformanceMode(t *testing.T) {
	a := writeDir(t, map[string]string{"stages.txt": stagesTable(1, 1)})
	drift := writeDir(t, map[string]string{"stages.txt": stagesTable(6, 5)})
	double := writeDir(t, map[string]string{"stages.txt": stagesTable(2, 1)})

	r, err := DiffDirs(a, drift, Options{WallClock: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != "conformance" {
		t.Fatalf("Mode = %q, want conformance", r.Mode)
	}
	if r.Regression() {
		t.Fatalf("20%% drift should be inside wall-clock tolerance:\n%s", r.Table())
	}
	if !strings.Contains(r.Table(), "mode: conformance") {
		t.Fatalf("table missing mode line:\n%s", r.Table())
	}

	r2, err := DiffDirs(a, double, Options{WallClock: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Regression() {
		t.Fatalf("2x queue latency should regress even with wall-clock tolerance:\n%s", r2.Table())
	}
	for _, f := range r2.Findings {
		if strings.HasSuffix(f.Series, ".max_us") {
			if f.Severity != SevInfo || !strings.Contains(f.Note, "noisy") {
				t.Fatalf("wall-clock max not demoted: %+v", f)
			}
		}
	}
	if !strings.Contains(r2.JSON(), `"mode": "conformance"`) {
		t.Fatalf("JSON missing mode:\n%s", r2.JSON())
	}

	// An explicit threshold overrides the widened default.
	r3, err := DiffDirs(a, drift, Options{WallClock: true, Threshold: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Regression() {
		t.Fatalf("explicit 10%% threshold ignored in conformance mode:\n%s", r3.Table())
	}
}

// TestReportsAreValidJSON builds the report of every fixture pair the tests
// in this package compare, in both directions and in both modes, and holds
// each JSON rendering to encoding/json's grammar.
func TestReportsAreValidJSON(t *testing.T) {
	sides := [][2]map[string]string{
		{{"stages.txt": stagesTable(1, 1)}, {"stages.txt": stagesTable(6, 5)}},
		{{"stages.txt": stagesTable(1, 1)}, {"stages.txt": stagesTable(2, 1)}},
		{{"metrics.csv": metricsA}, {"metrics.csv": strings.Replace(metricsA, ",2\n", ",10\n", 1)}},
		{{"ladder.txt": ladderA}, {"ladder.txt": strings.Replace(ladderA, "4     drop-B", "4     revoke", 1)}},
		{{"cycles.txt": cyclesA}, {"cycles.txt": strings.Replace(cyclesA, "5000000", "7000000", 1)}},
		{{"slo.txt": sloA}, {"slo.txt": strings.Replace(sloA, "health=ok", "health=violated", 1)}},
		{{"rollup.txt": rollupFixture(4.0, false)}, {"rollup.txt": rollupFixture(2.0, true)}},
		{{"timeline.txt": timelineFixture(0)}, {"timeline.txt": timelineFixture(3)}},
		{{"stages.txt": stagesTable(1, 1), "metrics.csv": metricsA, "cycles.txt": cyclesA},
			{"stages.txt": stagesTable(1, 1), "slo.txt": sloA}},
	}
	for i, s := range sides {
		a, b := writeDir(t, s[0]), writeDir(t, s[1])
		for _, opt := range []Options{{}, {WallClock: true}} {
			for _, dirs := range [][2]string{{a, b}, {b, a}} {
				r, err := DiffDirs(dirs[0], dirs[1], opt)
				if err != nil {
					t.Fatalf("pair %d: %v", i, err)
				}
				if !json.Valid([]byte(r.JSON())) {
					t.Fatalf("pair %d, %+v: invalid JSON:\n%s", i, opt, r.JSON())
				}
			}
		}
	}
}

// TestNonFiniteNumbersRejected: NaN or ±Inf where any reader expects a
// number is malformed, not a change in some direction.
func TestNonFiniteNumbersRejected(t *testing.T) {
	for name, text := range map[string]string{
		"stages.txt":  "stage count total_ms mean_us p50_us p95_us max_us\ndisk 1 2 NaN 4 5 6\n",
		"metrics.csv": "time_ms,component,metric,value\n1000,nic,tx_frames_total,NaN\n",
		"slo.txt":     strings.Replace(sloA, "0.40", "+Inf", 1),
		"ladder.txt":  strings.Replace(ladderA, "76", "Inf", 1),
		"cycles.txt":  strings.Replace(cyclesA, "5000000", "-Inf", 1),
		"rollup.txt":  strings.Replace(rollupFixture(4.0, false), "4.00", "NaN", 1),
	} {
		dir := writeDir(t, map[string]string{name: text})
		if _, err := DiffDirs(dir, dir, Options{}); !errors.Is(err, ErrParse) {
			t.Errorf("%s: err = %v, want ErrParse", name, err)
		}
	}
	if _, err := ReadMetrics("time_ms,component,metric,value\nInf,nic,x,1\n"); !errors.Is(err, ErrParse) {
		t.Errorf("non-finite time: err = %v, want ErrParse", err)
	}
}

// TestDiscreteSeriesIgnoreThreshold pins the verdicts that differ from the
// per-file comparators this rule set replaced, each where the old code broke
// its own stated rule. Breach growth and stream-state escalation regress
// below the threshold (the old comments said "always" and "even when the
// relative delta is small", but the code only saw findings past the
// threshold); their de-escalation reads as an improvement at any size, as a
// rung's and a card's health always did.
func TestDiscreteSeriesIgnoreThreshold(t *testing.T) {
	find := func(r *Report, series string) *Finding {
		for i := range r.Findings {
			if r.Findings[i].Series == series {
				return &r.Findings[i]
			}
		}
		return nil
	}
	// Breaches 20 → 21 is +5%, under the 10% threshold.
	ladder := strings.Replace(ladderA, "0         3\n", "20        3\n", 1)
	a := writeDir(t, map[string]string{"ladder.txt": ladder})
	b := writeDir(t, map[string]string{"ladder.txt": strings.Replace(ladder, "20        3\n", "21        3\n", 1)})
	for _, dirs := range [][2]string{{a, b}, {b, a}} {
		r, err := DiffDirs(dirs[0], dirs[1], Options{})
		if err != nil {
			t.Fatal(err)
		}
		f := find(r, "45% web ×8.breaches")
		want := SevRegression
		if dirs[0] == b {
			want = SevImprovement
		}
		if f == nil || f.Severity != want {
			t.Fatalf("breaches %s: %+v, want %v\n%s", dirs, f, want, r.Table())
		}
	}
	// burning → violated is +50%, under a 0.6 threshold.
	burning := strings.Replace(sloA, "0    s0             ok     ", "0    s0             burning", 1)
	violated := strings.Replace(sloA, "0    s0             ok     ", "0    s0             violated", 1)
	a = writeDir(t, map[string]string{"slo.txt": burning})
	b = writeDir(t, map[string]string{"slo.txt": violated})
	for _, dirs := range [][2]string{{a, b}, {b, a}} {
		r, err := DiffDirs(dirs[0], dirs[1], Options{Threshold: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		want := SevRegression
		if dirs[0] == b {
			want = SevImprovement
		}
		if f := find(r, "s0.state_rank"); f == nil || f.Severity != want {
			t.Fatalf("state_rank %s: %+v, want %v\n%s", dirs, f, want, r.Table())
		}
	}
}

// TestRollupScopeKeyedBySideOwnSwitch: each side's rollup series carry that
// side's own switch domain. A card re-homed to another switch is a different
// series on each side, not one side's value filed under the other side's
// domain.
func TestRollupScopeKeyedBySideOwnSwitch(t *testing.T) {
	a := writeDir(t, map[string]string{"rollup.txt": rollupFixture(4.0, false)})
	b := writeDir(t, map[string]string{"rollup.txt": strings.Replace(
		rollupFixture(2.0, false), "ni04   h02   sw1", "ni04   h02   sw2", 1)})
	r, err := DiffDirs(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range r.Findings {
		if strings.HasPrefix(f.Series, "ni04") {
			t.Fatalf("re-homed card compared across switch domains: %+v\n%s", f, r.Table())
		}
	}
	if !r.Regression() { // sw1 and the fleet still lost the goodput
		t.Fatalf("aggregate goodput drop not caught:\n%s", r.Table())
	}
}
