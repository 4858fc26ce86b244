package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// reprogen runs the command in process with main's -dur default.
func reprogen(args ...string) (stdout, stderr string, code int) {
	var out, errOut strings.Builder
	code = experiments.Main("reprogen", 100, args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// A bare run is the paper row: its stdout is PAPER_BASELINE.txt, -out holds
// the figure curves, and the status line stays off stdout.
func TestBareRunPrintsThePaperBaseline(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, code := reprogen("-workers", "1", "-out", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	want, err := os.ReadFile("../../PAPER_BASELINE.txt")
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("stdout differs from PAPER_BASELINE.txt:\n%s", stdout)
	}
	if !strings.Contains(stderr, "paper artifacts written to "+dir) {
		t.Errorf("stderr lacks the status line:\n%s", stderr)
	}
	curves, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil || len(curves) != 23 {
		t.Errorf("-out holds %d curves, want 23 (%v)", len(curves), err)
	}
}

// gone runs args and wants the flag name in them rejected as undefined:
// exit 2 and nothing on stdout.
func gone(t *testing.T, name string, args ...string) {
	t.Helper()
	stdout, stderr, code := reprogen(args...)
	if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: "+name) {
		t.Errorf("%v: exit %d, stdout %q, stderr:\n%s", args, code, stdout, stderr)
	}
}

// One run regenerates the whole evaluation, so no flag selects a section of
// it.
func TestSectionFlagsAreGone(t *testing.T) {
	for _, name := range []string{"-table", "-figure", "-headline", "-scaling", "-paper"} {
		gone(t, name, name)
	}
}

// -workers governs every fan-out, the overload sweep's included; the
// sweep-specific spelling is gone.
func TestOverloadWorkersFlagIsGone(t *testing.T) {
	gone(t, "-overload-workers", "-overload", "-overload-workers", "1")
}

// One -out names every row's artifact directory. The per-row spellings are
// gone, so the old way of asking for the paper's curves on the telemetry
// row is rejected, naming the flag, before any directory is made.
func TestOutDirFlagsAreGone(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "curves")
	gone(t, "-csv", "-telemetry", "-csv", dir, "-dur", "1")
	for _, name := range []string{"-telemetry-out", "-overload-out", "-slo-out"} {
		gone(t, name, "-slo", name, dir)
	}
	for _, d := range []string{dir, "telemetry-out"} {
		if _, err := os.Stat(d); err == nil {
			t.Errorf("a rejected run created %s", d)
		}
	}
}

// The opt-in runs are one selection each, as on clustersim: two of them is a
// usage error, not a run of both.
func TestTwoScenariosAreAUsageError(t *testing.T) {
	stdout, stderr, code := reprogen("-faults", "-slo")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "reprogen: -faults and -slo: pick one scenario") {
		t.Errorf("exit %d, stdout %q, stderr:\n%s", code, stdout, stderr)
	}
}

// -telemetry writes the table row's artifact directory: its stages.txt is
// the file STAGE_BASELINE.txt pins at this shape, and the status line stays
// off stdout.
func TestTelemetryWritesThePinnedStageTable(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, code := reprogen("-telemetry", "-dur", "5", "-out", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	got, err := os.ReadFile(filepath.Join(dir, "stages.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../STAGE_BASELINE.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stages.txt differs from STAGE_BASELINE.txt:\n%s", got)
	}
	if !strings.Contains(stdout, string(want)) || strings.Contains(stdout, dir) {
		t.Errorf("stdout should carry the stage table and no status line:\n%s", stdout)
	}
	if !strings.Contains(stderr, "telemetry artifacts written to "+dir) {
		t.Errorf("stderr lacks the status line:\n%s", stderr)
	}
}

// -cpuprofile and -memprofile each leave a non-empty profile, after a full
// run and after a usage error alike.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	for _, run := range []struct {
		args []string
		code int
	}{{[]string{"-dur", "10"}, 0}, {[]string{"-faults", "-slo"}, 2}} {
		for _, flagName := range []string{"-cpuprofile", "-memprofile"} {
			path := filepath.Join(t.TempDir(), "run.prof")
			args := append(run.args, flagName, path)
			if _, stderr, code := reprogen(args...); code != run.code {
				t.Errorf("%v: exit %d, want %d; stderr:\n%s", args, code, run.code, stderr)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("%v: no profile written (%v)", args, err)
			}
		}
	}
}

// Every `run ./cmd/reprogen …` line in the docs, the Makefile and CI names
// only flags that reprogen -h lists, so a deleted flag cannot survive in an
// example. A line ending in a backslash continues onto the next; an inline
// code span ends at its closing backtick, and a pipe ends the command.
func TestDocsNameOnlyKnownFlags(t *testing.T) {
	stdout, usage, code := reprogen("-h")
	known := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(stdout+usage, -1) {
		known[m[1]] = true
	}
	if code != 0 || len(known) == 0 {
		t.Fatalf("-h: exit %d, usage:\n%s", code, usage)
	}
	flagRE := regexp.MustCompile(`(?:^|\s)-([a-z][\w-]*)`)
	const cmd = "run ./cmd/reprogen"
	checked := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", "Makefile", ".github/workflows/ci.yml"} {
		body, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(body), "\n")
		for i, line := range lines {
			at := strings.Index(line, cmd)
			if at < 0 {
				continue
			}
			rest := line[at+len(cmd):]
			for j := i + 1; strings.HasSuffix(rest, "\\") && j < len(lines); j++ {
				rest = strings.TrimSuffix(rest, "\\") + " " + lines[j]
			}
			if end := strings.IndexAny(rest, "`|"); end >= 0 {
				rest = rest[:end]
			}
			checked++
			for _, m := range flagRE.FindAllStringSubmatch(rest, -1) {
				if !known[m[1]] {
					t.Errorf("%s:%d names -%s, which reprogen does not have: %s", doc, i+1, m[1], line)
				}
			}
		}
	}
	if checked == 0 {
		t.Errorf("no %q line found in the docs", cmd)
	}
}
