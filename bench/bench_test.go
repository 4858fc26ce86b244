package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary when a
// workload execs itself for a set-up probe.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-setup-probe" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestPaceErrorsKnownLatenessAndGaps(t *testing.T) {
	period := 40 * time.Millisecond
	base := 7 * time.Millisecond // the constant the receiver cannot know
	at := func(seq int, late time.Duration) arrival {
		return arrival{seq: uint32(seq), at: base + time.Duration(seq)*period + late}
	}
	arrivals := map[uint32][]arrival{
		// On time, 3 ms late, then a gap of two dropped frames, then 1 ms late.
		1: {at(0, 0), at(1, 3*time.Millisecond), at(4, time.Millisecond)},
		// A stream whose every frame is 5 ms after stream 1's schedule is
		// still on time against its own reference.
		2: {at(0, 5*time.Millisecond), at(1, 5*time.Millisecond), at(2, 7*time.Millisecond)},
	}
	got := sorted(paceErrors(arrivals, period))
	want := []float64{0, 0, 0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %d errors, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("error[%d] = %v ms, want %v", i, got[i], want[i])
		}
	}
	drains := sorted(burstDrains(arrivals))
	// Rounds 0 and 1 were delivered by both streams: 5 ms and 2 ms apart.
	if len(drains) != 2 || math.Abs(drains[0]-2) > 1e-9 || math.Abs(drains[1]-5) > 1e-9 {
		t.Errorf("burst drains = %v, want [2 5]", drains)
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10_000, 0.999}, {1_000_000, 0.9999}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare = %v, want 1", got)
	}
}

func TestParseSoakSummary(t *testing.T) {
	out := "dwcsd: something else\n" +
		"soak summary: target=300 setups=375 teardowns=75 frames_sent=89179 frames_recv=89170 drops=294 drop_ratio=0.0033 goodput_kbps_p50=88.1 goodput_kbps_p95=90.0 jitter_ms_p50=0.05 jitter_ms_p95=1.21\n"
	sum, err := parseSoakSummary(out)
	if err != nil {
		t.Fatal(err)
	}
	if sum["setups"] != 375 || sum["frames_recv"] != 89170 || sum["jitter_ms_p95"] != 1.21 {
		t.Errorf("parsed %v", sum)
	}
	for _, bad := range []string{
		"",
		"soak summary: target=300 setups",
		"soak summary: setups=x teardowns=1 frames_sent=1 frames_recv=1 drops=0 jitter_ms_p95=1",
		"soak summary: target=300 setups=1",
	} {
		if _, err := parseSoakSummary(bad); err == nil {
			t.Errorf("parseSoakSummary(%q) accepted", bad)
		}
	}
}

func TestParseUDPDrops(t *testing.T) {
	table := "  sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops\n" +
		" 1234: 0100007F:A7F1 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 31337 2 0000000000000000 17\n"
	got, err := parseUDPDrops(table, 0xA7F1)
	if err != nil || got != 17 {
		t.Errorf("drops = %d, %v; want 17", got, err)
	}
	if _, err := parseUDPDrops(table, 1); err == nil {
		t.Error("a port that is not listed must be an error")
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "cpu_us_per_unit", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "work_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		ms   metricSpec
		a, b []float64
		want verdict
	}{
		{"same", lower, steady, steady, within},
		{"slower past the bound", lower, steady, []float64{115, 116, 114, 115, 115}, worse},
		{"slower inside the bound", lower, steady, []float64{105, 106, 104, 105, 105}, within},
		{"every run faster", lower, steady, []float64{90, 91, 89, 90, 90}, better},
		{"throughput fell", higher, steady, []float64{85, 86, 84, 85, 85}, worse},
		{"throughput rose", higher, steady, []float64{120, 121, 119, 120, 120}, better},
		{"too noisy to call", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 104, 118, 92, 108}, unresolved},
		{"single runs", lower, []float64{100}, []float64{104}, within},
	} {
		if got, _, _ := judge(c.ms, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitsOnWorse(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, cpu float64) string {
		f := resultsFile{Runs: []runRecord{{Workload: "dwcsd_churn", Result: result{Correct: true, Attempted: 1,
			Metrics: map[string]value{"cpu_us_per_unit": {Value: cpu, Unit: "us"}}}}}}
		data, _ := json.Marshal(f)
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 25), write("b.json", 25.5), write("c.json", 60)
	var out bytes.Buffer
	if err := compareFiles(spec, base, same, &out); err != nil {
		t.Errorf("A/A comparison: %v\n%s", err, out.String())
	}
	if err := compareFiles(spec, base, slow, &out); err != errWorse {
		t.Errorf("a 2.4x regression returned %v, want errWorse", err)
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("no worse row in:\n%s", out.String())
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileContract holds BENCHMARK.json to the limits its reader
// enforces before a single run.
func TestBenchmarkFileContract(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 7 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("%d workloads, run_seconds %d", len(spec.Workloads), spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, ms := range spec.EndToEnd {
		name(ms.Name)
		if ms.Bound <= 0 || ms.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", ms.Name, ms.Bound)
		}
		setup = setup || (ms.Name == "setup_s" && ms.Unit == "s" && ms.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(spec.PerLayer))
	}
	for _, ms := range append(spec.EndToEnd, spec.PerLayer...) {
		if ms.Better != "lower" && ms.Better != "higher" {
			t.Errorf("%s: better = %q", ms.Name, ms.Better)
		}
	}
	for _, ms := range spec.PerLayer {
		name(ms.Name)
	}
}

// TestSmokeEveryWorkload runs every workload end to end at 1/50 of its
// shape and checks that every metric BENCHMARK.json names is reported,
// finite and carries its unit; the traced pass is exercised on a simulator
// workload and on a daemon workload.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	env := readEnvironment()
	out := t.TempDir()
	traced := map[string]bool{"fleet64_par": true, "dwcsd_churn": true}
	for _, w := range spec.Workloads {
		for trace := 0; trace <= 1; trace++ {
			if trace == 1 && !traced[w.Name] {
				continue
			}
			o := options{workload: w.Name, seed: defaultSeed, seconds: 0.3, trace: trace, out: out, scale: 50}
			t0 := time.Now()
			m, err := measure(env, o)
			t.Logf("%s trace=%d took %v", w.Name, trace, time.Since(t0))
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			res, err := m.result(spec.metrics(trace == 1))
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, ms := range spec.metrics(trace == 1) {
				v, ok := res.Metrics[ms.Name]
				if !ok || v.Unit != ms.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v)", w.Name, trace, ms.Name, v, ok)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v must be positive", w.Name, ms.Name, v.Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
}
