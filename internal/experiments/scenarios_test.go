package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
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
