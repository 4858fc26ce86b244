package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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

// A table or figure the paper does not have is a usage error, not a silent
// empty run.
func TestOutOfRangeSelectionIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "99"}, {"-table", "-1"}, {"-table", "6"},
		{"-figure", "99"}, {"-figure", "5"}, {"-figure", "11"},
		{"-table", "2", "-figure", "99"},
	} {
		stdout, stderr, code := reprogen(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout != "" {
			t.Errorf("%v: printed %q on stdout", args, stdout)
		}
		if !strings.Contains(stderr, "reprogen: "+args[len(args)-2]+" "+args[len(args)-1]) ||
			!strings.Contains(stderr, "-headline") {
			t.Errorf("%v: stderr lacks the reason or the usage block:\n%s", args, stderr)
		}
	}

	stdout, stderr, code := reprogen(t, "-table", "1")
	if code != 0 || !strings.Contains(stdout, "Table 1") {
		t.Errorf("-table 1: exit %d, stdout %q, stderr %q", code, stdout, stderr)
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

// -cpuprofile and -memprofile each leave a non-empty profile, after a full
// run and after a usage error alike.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	for _, flagName := range []string{"-cpuprofile", "-memprofile"} {
		for _, run := range []struct {
			args []string
			code int
		}{
			{[]string{"-table", "1"}, 0},
			{[]string{"-table", "99"}, 2},
		} {
			path := filepath.Join(t.TempDir(), "run.prof")
			args := append(run.args, flagName, path)
			if _, stderr, code := reprogen(t, args...); code != run.code {
				t.Errorf("%v: exit %d, want %d; stderr:\n%s", args, code, run.code, stderr)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("%v: no profile written (%v)", args, err)
			}
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
