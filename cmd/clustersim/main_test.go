package main

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
)

// clustersim runs the command in process with main's -dur default.
func clustersim(args ...string) (stdout, stderr string, code int) {
	var out, errOut strings.Builder
	code = experiments.Main("clustersim", 30, args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// A scenario flag prints its row's stdout — the bytes CHAOS_BASELINE.txt
// pins — and -out holds exactly the row's files; the diagnostics stay
// on stderr.
func TestScenarioFlagPrintsRowAndWritesItsFiles(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, code := clustersim("-fleet-chaos", "-dur", "6", "-workers", "1", "-out", dir)
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
		t.Errorf("-out holds %v, want exactly %v", gotFiles, wantFiles)
	}
}

// Two scenario flags (the chaos sweep is one of them) or no scenario at all
// (bare, or only an artifact directory) are usage errors — not a silent run
// of something else.
func TestConflictingFlagsAreUsageErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	for _, c := range []struct {
		args   []string
		reason string
	}{
		{[]string{"-fleet-obs", "-ctrl-chaos"}, "clustersim: -fleet-obs and -ctrl-chaos: pick one scenario"},
		{[]string{"-fleet-chaos", "-chaos-sweep", "-out", dir}, "clustersim: -fleet-chaos and -chaos-sweep: pick one scenario"},
		{[]string{"-fleet", "-chaos-sweep"}, "clustersim: -fleet and -chaos-sweep: pick one scenario"},
		{[]string{"-out", dir}, "clustersim: pick one scenario: "},
		{nil, "clustersim: pick one scenario: -fleet, -fleet-chaos, -fleet-obs, -ctrl-chaos, -chaos-sweep"},
		// The scrape period and the top-k bound are constants of the fleet.
		{[]string{"-fleet-obs", "-scrape-every", "100"}, "flag provided but not defined: -scrape-every"},
		{[]string{"-fleet-obs", "-topk", "3"}, "flag provided but not defined: -topk"},
		// One -out names every row's artifact directory.
		{[]string{"-fleet", "-fleet-out", dir}, "flag provided but not defined: -fleet-out"},
	} {
		args := c.args
		stdout, stderr, code := clustersim(args...)
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

// A set flag that the picked scenario does not read is a usage error naming
// the flag, not a run that quietly prints the default table.
func TestUnreadFlagsAreUsageErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	for _, c := range []struct {
		args   []string
		reason string
	}{
		{[]string{"-chaos-sweep", "-cards", "64", "-dur", "5", "-host-crashes", "3"},
			"clustersim: -chaos-sweep does not read -cards, -dur, -host-crashes"},
		{[]string{"-chaos-sweep", "-workers", "1", "-out", dir}, "clustersim: -chaos-sweep does not read -out"},
		{[]string{"-fleet", "-host-crashes", "2"}, "clustersim: -fleet does not read -host-crashes"},
		{[]string{"-fleet-chaos", "-stress-pct", "50"}, "clustersim: -fleet-chaos does not read -stress-pct"},
		{[]string{"-fleet-obs", "-ctrl-crashes", "1"}, "clustersim: -fleet-obs does not read -ctrl-crashes"},
	} {
		stdout, stderr, code := clustersim(c.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, c.reason) {
			t.Errorf("%v: exit %d, stdout %q, want exit 2 and %q on stderr:\n%s", c.args, code, stdout, c.reason, stderr)
		}
	}
	if _, err := os.Stat(dir); err == nil {
		t.Errorf("a rejected run still created %s", dir)
	}
}

// -cpuprofile and -memprofile each leave a non-empty profile, after a full
// run and after a usage error alike.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	for _, run := range []struct {
		args []string
		code int
	}{{[]string{"-fleet", "-cards", "2", "-dur", "1"}, 0}, {nil, 2}} {
		for _, flagName := range []string{"-cpuprofile", "-memprofile"} {
			path := filepath.Join(t.TempDir(), "run.prof")
			args := append(run.args, flagName, path)
			if _, stderr, code := clustersim(args...); code != run.code {
				t.Errorf("%v: exit %d, want %d; stderr:\n%s", args, code, run.code, stderr)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("%v: no profile written (%v)", args, err)
			}
		}
	}
}

// Every `run ./cmd/clustersim …` line in the docs, the Makefile and CI names
// only flags that clustersim -h lists, so a deleted flag cannot survive in an
// example. A line ending in a backslash continues onto the next; an inline
// code span ends at its closing backtick, and a pipe ends the command.
func TestDocsNameOnlyKnownFlags(t *testing.T) {
	stdout, usage, code := clustersim("-h")
	known := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(stdout+usage, -1) {
		known[m[1]] = true
	}
	if code != 0 || len(known) == 0 {
		t.Fatalf("-h: exit %d, usage:\n%s", code, usage)
	}
	flagRE := regexp.MustCompile(`(?:^|\s)-([a-z][\w-]*)`)
	const cmd = "run ./cmd/clustersim"
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
					t.Errorf("%s:%d names -%s, which clustersim does not have: %s", doc, i+1, m[1], line)
				}
			}
		}
	}
	if checked == 0 {
		t.Errorf("no %q line found in the docs", cmd)
	}
}
