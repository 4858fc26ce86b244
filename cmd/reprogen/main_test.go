package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
