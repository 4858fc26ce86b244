package experiments

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
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
