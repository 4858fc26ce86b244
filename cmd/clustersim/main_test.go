package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
)

// The test binary doubles as clustersim: re-executed with this variable set
// it runs main, so the tests below see the real flag parsing and exit codes.
const asMainEnv = "CLUSTERSIM_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func clustersim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// A scenario flag prints its row's stdout — the bytes CHAOS_BASELINE.txt
// pins — and -fleet-out holds exactly the row's files; the diagnostics stay
// on stderr.
func TestScenarioFlagPrintsRowAndWritesItsFiles(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, code := clustersim(t, "-fleet-chaos", "-dur", "6", "-workers", "1", "-fleet-out", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	want, err := os.ReadFile("../../CHAOS_BASELINE.txt")
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("stdout differs from CHAOS_BASELINE.txt:\n%s", stdout)
	}
	if !strings.Contains(stderr, "synchronization rounds (workers=1)") ||
		!strings.Contains(stderr, "fleet-chaos artifacts written to "+dir) {
		t.Errorf("stderr lacks the diagnostics:\n%s", stderr)
	}

	var wantFiles []string
	for _, s := range experiments.Scenarios {
		if s.Name == "fleet-chaos" {
			for _, f := range s.Run(cluster.FleetConfig{Dur: s.Pinned.Dur, Workers: 1}).Files {
				wantFiles = append(wantFiles, f.Name)
				got, err := os.ReadFile(filepath.Join(dir, f.Name))
				if err != nil || string(got) != f.Body {
					t.Errorf("%s: not the row's bytes (read error: %v)", f.Name, err)
				}
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var gotFiles []string
	for _, e := range entries {
		gotFiles = append(gotFiles, e.Name())
	}
	sort.Strings(wantFiles)
	if len(wantFiles) == 0 || strings.Join(gotFiles, " ") != strings.Join(wantFiles, " ") {
		t.Errorf("-fleet-out holds %v, want exactly %v", gotFiles, wantFiles)
	}
}

// Two scenario flags, an artifact directory for the sweep that writes none,
// a sweep without its scenario, or an artifact directory without any
// scenario are usage errors — not a silent run of something else.
func TestConflictingFlagsAreUsageErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	for _, c := range []struct {
		args   []string
		reason string
	}{
		{[]string{"-fleet-obs", "-ctrl-chaos"}, "clustersim: "},
		{[]string{"-fleet-chaos", "-chaos-sweep", "-fleet-out", dir}, "clustersim: "},
		{[]string{"-chaos-sweep"}, "clustersim: "},
		{[]string{"-fleet", "-chaos-sweep"}, "clustersim: "},
		{[]string{"-fleet-out", dir}, "clustersim: "},
		// The scrape period and the top-k bound are constants of the fleet.
		{[]string{"-fleet-obs", "-scrape-every", "100"}, "flag provided but not defined: -scrape-every"},
		{[]string{"-fleet-obs", "-topk", "3"}, "flag provided but not defined: -topk"},
	} {
		args := c.args
		stdout, stderr, code := clustersim(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout != "" {
			t.Errorf("%v: printed %q on stdout", args, stdout)
		}
		if !strings.Contains(stderr, c.reason) || !strings.Contains(stderr, "-fleet-streams") {
			t.Errorf("%v: stderr lacks the reason or the usage block:\n%s", args, stderr)
		}
	}
	if _, err := os.Stat(dir); err == nil {
		t.Errorf("a rejected run still created %s", dir)
	}
}

// -cpuprofile and -memprofile each leave a non-empty profile, after a full
// run and after a usage error alike.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	for _, flagName := range []string{"-cpuprofile", "-memprofile"} {
		for _, run := range []struct {
			args []string
			code int
		}{
			{[]string{"-streams", "2", "-dur", "1"}, 0},
			{[]string{"-chaos-sweep"}, 2},
		} {
			path := filepath.Join(t.TempDir(), "run.prof")
			args := append(run.args, flagName, path)
			if _, stderr, code := clustersim(t, args...); code != run.code {
				t.Errorf("%v: exit %d, want %d; stderr:\n%s", args, code, run.code, stderr)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("%v: no profile written (%v)", args, err)
			}
		}
	}
}

// -sweep prints a header and one row per cell of the 4 periods × 3 frame
// sizes grid, and the worker pool that fans the cells out changes no byte.
func TestSweepIsIndependentOfWorkers(t *testing.T) {
	var outs []string
	for _, workers := range []string{"1", "4"} {
		stdout, stderr, code := clustersim(t, "-sweep", "-workers", workers)
		if code != 0 {
			t.Fatalf("-workers %s: exit %d, stderr:\n%s", workers, code, stderr)
		}
		outs = append(outs, stdout)
	}
	lines := strings.Split(strings.TrimSuffix(outs[0], "\n"), "\n")
	if len(lines) != 13 || !strings.HasPrefix(lines[0], "period_ms") {
		t.Errorf("want a header and 12 rows, got %d lines:\n%s", len(lines), outs[0])
	}
	if outs[0] != outs[1] {
		t.Errorf("-workers 4 differs from -workers 1:\n%s\nvs\n%s", outs[1], outs[0])
	}
}

func TestDefaultModeAdmitsAndStreams(t *testing.T) {
	stdout, stderr, code := clustersim(t, "-streams", "4", "-dur", "2")
	if code != 0 || !strings.Contains(stdout, "admitted 4/4 streams across 1 node(s)") {
		t.Errorf("exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}
