package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The test binary doubles as reprogen: re-executed with this variable set it
// runs main, so the tests below see the real flag parsing and exit codes.
const asMainEnv = "REPROGEN_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func reprogen(t *testing.T, args ...string) (stdout, stderr string, code int) {
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

// A bare run is the paper row: its stdout is PAPER_BASELINE.txt, -csv holds
// the figure curves, and the status line stays off stdout.
func TestBareRunPrintsThePaperBaseline(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, code := reprogen(t, "-workers", "1", "-csv", dir)
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
		t.Errorf("-csv holds %d curves, want 23 (%v)", len(curves), err)
	}
}

// One run regenerates the whole evaluation, so there is no flag to select a
// section of it.
func TestSectionFlagsAreGone(t *testing.T) {
	for _, name := range []string{"-table", "-figure", "-headline", "-scaling", "-paper"} {
		stdout, stderr, code := reprogen(t, name)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: "+name) {
			t.Errorf("%s: exit %d, stdout %q, stderr:\n%s", name, code, stdout, stderr)
		}
	}
}

// -telemetry writes the table row's artifact directory: its stages.txt is
// the file STAGE_BASELINE.txt pins at this shape, and the status line stays
// off stdout.
func TestTelemetryWritesThePinnedStageTable(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, code := reprogen(t, "-telemetry", "-dur", "5", "-telemetry-out", dir)
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

// -cpuprofile and -memprofile each leave a non-empty profile.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	for _, flagName := range []string{"-cpuprofile", "-memprofile"} {
		path := filepath.Join(t.TempDir(), "run.prof")
		if _, stderr, code := reprogen(t, "-dur", "10", flagName, path); code != 0 {
			t.Errorf("%s: exit %d; stderr:\n%s", flagName, code, stderr)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no profile written (%v)", flagName, err)
		}
	}
}

// -workers governs every fan-out, the overload sweep's included; the
// sweep-specific spelling is gone.
func TestOverloadWorkersFlagIsGone(t *testing.T) {
	stdout, stderr, code := reprogen(t, "-overload", "-overload-workers", "1")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: -overload-workers") {
		t.Errorf("exit %d, stdout %q, stderr:\n%s", code, stdout, stderr)
	}
}

// Every `go run ./cmd/reprogen …` line in the docs names only flags that
// reprogen -h lists, so a deleted flag cannot survive in an example. A line
// ending in a backslash continues onto the next; an inline code span ends
// at its closing backtick, and a pipe ends the command.
func TestDocsNameOnlyKnownFlags(t *testing.T) {
	_, usage, code := reprogen(t, "-h")
	if code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	known := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage, -1) {
		known[m[1]] = true
	}
	flagRE := regexp.MustCompile(`(?:^|\s)-([a-z][\w-]*)`)
	const cmd = "go run ./cmd/reprogen"
	checked := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
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
