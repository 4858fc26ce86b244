package experiments

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// update re-pins the baselines: `go test ./internal/experiments -run
// TestScenarios -update` (what ./bench_compare.sh -update runs) rewrites each
// row's baseline file from its pinned shape before verifying.
var update = flag.Bool("update", false, "rewrite the scenario baseline files from the pinned shapes")

// repoRoot is where the baseline files live, seen from this package.
const repoRoot = "../.."

// TestScenarios is the determinism and baseline check of every
// artifact-producing run: one subtest per row of the table, each held to the
// contract by Verify.
func TestScenarios(t *testing.T) {
	for _, s := range Scenarios {
		t.Run(s.Name, func(t *testing.T) {
			if *update && s.Baseline != "" {
				cfg := s.Pinned
				cfg.Workers = 1
				body := s.pinned(s.Run(cfg))
				if err := os.WriteFile(filepath.Join(repoRoot, s.Baseline), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", s.Baseline)
			}
			if err := s.Verify(repoRoot); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A row whose gate breaks still prints and writes its artifacts, and RunTo
// returns the gate's error under the row's name, which the commands turn
// into a non-zero exit.
func TestRunToFailsOnBrokenGate(t *testing.T) {
	gate := errors.New("double-placed streams = 1, want 0")
	s := Scenario{Name: "gated", Run: func(cluster.FleetConfig) Output {
		return Output{Stdout: "out\n", Files: []File{{"a.txt", "a\n"}}, Gates: gate}
	}}
	dir := t.TempDir()
	var stdout, stderr strings.Builder
	err := s.RunTo(cluster.FleetConfig{}, dir, &stdout, &stderr)
	if !errors.Is(err, gate) || !strings.HasPrefix(err.Error(), "gated: ") {
		t.Fatalf("RunTo = %v, want the gate's error under the row's name", err)
	}
	if body, rerr := os.ReadFile(filepath.Join(dir, "a.txt")); rerr != nil || string(body) != "a\n" || stdout.String() != "out\n" {
		t.Fatalf("a broken gate must not hold back the output: stdout %q, a.txt %q (%v)", stdout.String(), body, rerr)
	}
	s.Run = func(cluster.FleetConfig) Output { return Output{Stdout: "out\n"} }
	if err := s.RunTo(cluster.FleetConfig{}, "", &stdout, &stderr); err != nil {
		t.Fatalf("RunTo with every gate held = %v", err)
	}
}

// commands maps the two front ends to the -dur default each main passes.
var commands = map[string]int{"reprogen": 100, "clustersim": 30}

// flagsOf returns the flags cmd -h lists.
func flagsOf(t *testing.T, cmd string) map[string]bool {
	t.Helper()
	var usage strings.Builder
	if code := Main(cmd, commands[cmd], []string{"-h"}, &usage, &usage); code != 0 {
		t.Fatalf("%s -h: exit %d", cmd, code)
	}
	known := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage.String(), -1) {
		known[m[1]] = true
	}
	return known
}

// Every flag a row reads is registered, and every registered flag but the
// selectors, -workers and the profiles is read by some row: no row can ask
// for a flag its command lacks, and no flag can be dead.
func TestRowReadsMatchRegisteredFlags(t *testing.T) {
	for cmd := range commands {
		registered, unread := flagsOf(t, cmd), flagsOf(t, cmd)
		delete(unread, "workers")
		delete(unread, "cpuprofile")
		delete(unread, "memprofile")
		rows := 0
		for _, s := range Scenarios {
			if s.Cmd != cmd {
				continue
			}
			rows++
			delete(unread, s.Name)
			for _, f := range strings.Fields(s.Reads) {
				if !registered[f] {
					t.Errorf("%s row %s reads -%s, which %s does not register", cmd, s.Name, f, cmd)
				}
				delete(unread, f)
			}
		}
		if rows == 0 || len(unread) > 0 {
			t.Errorf("%s: %d rows; flags no row reads: %v", cmd, rows, unread)
		}
	}
}

// A negative size is a usage error naming the flag, before anything is
// written; 0 stays "default" and a chaos count keeps -1 for "none".
func TestMainRejectsNegativeSizes(t *testing.T) {
	for _, c := range []struct {
		cmd  string
		args []string
		want string // the stderr naming the flag; "" = runs, exit 0
	}{
		{"reprogen", []string{"-dur", "-5"}, "reprogen: -dur -5: must not be negative"},
		{"clustersim", []string{"-fleet", "-cards", "-3"}, "clustersim: -cards -3: must not be negative"},
		{"clustersim", []string{"-fleet", "-fleet-streams", "-2"}, "clustersim: -fleet-streams -2: must not be negative"},
		{"clustersim", []string{"-fleet", "-workers", "-3"}, "clustersim: -workers -3: must not be negative"},
		{"clustersim", []string{"-fleet-chaos", "-dur", "1", "-host-crashes", "-1", "-net-partitions", "-1", "-rolling-drains", "-1"}, ""},
	} {
		dir := filepath.Join(t.TempDir(), "out")
		var stdout, stderr strings.Builder
		code := Main(c.cmd, commands[c.cmd], append(c.args, "-out", dir), &stdout, &stderr)
		_, statErr := os.Stat(dir)
		switch {
		case c.want == "" && (code != 0 || statErr != nil):
			t.Errorf("%s %v: exit %d (dir: %v), want a run\n%s", c.cmd, c.args, code, statErr, stderr.String())
		case c.want != "" && (code != 2 || !strings.HasPrefix(stderr.String(), c.want+"\n") ||
			stdout.Len() > 0 || statErr == nil):
			t.Errorf("%s %v: exit %d, stdout %d bytes, dir written %v, stderr %.80q; want exit 2 with %q and nothing written",
				c.cmd, c.args, code, stdout.Len(), statErr == nil, stderr.String(), c.want)
		}
	}
}
