// The chaos fleet (internal/cluster) as the experiments layer sees it: the
// observed run under the names the benchmark compiles against, and the
// severity × fleet-size sweep. The artifact-writing runs themselves are rows
// of the scenario table (scenarios.go).
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
)

// FleetObsConfig and FleetObsArtifacts are the cluster layer's own types:
// one chaos-fleet configuration whose scrape-plane knobs RunFleetObs reads,
// and that run's result.
type (
	FleetObsConfig    = cluster.FleetConfig
	FleetObsArtifacts = cluster.FleetObsResult
)

// RunFleetObs executes one observed chaos run on the partitioned fleet.
func RunFleetObs(cfg FleetObsConfig) *FleetObsArtifacts { return cluster.RunFleetObs(cfg) }

// FleetChaosSweep runs the chaos scenario across fault severity × fleet
// size and renders a recovery table: how migration counts, recovery
// behaviour, and violation containment scale as the fleet grows and the
// correlated-fault load rises. Deterministic for a fixed config set.
func FleetChaosSweep(workers int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-22s %6s %6s %6s %6s %8s %10s %11s %8s\n",
		"cards", "severity", "live", "cold", "readd", "parked",
		"resumed", "violDuring", "violOutside", "recv")
	severities := []struct {
		name               string
		crash, part, drain int
	}{
		{"crash", 1, -1, -1},
		{"partition", -1, 1, -1},
		{"drain", -1, -1, 1},
		{"all-three", 1, 1, 1},
		{"2crash+part", 2, 1, -1},
	}
	for _, cards := range []int{8, 16} {
		for _, sev := range severities {
			r := cluster.RunFleetChaos(cluster.FleetConfig{
				Cards: cards, Workers: workers,
				HostCrashes: sev.crash, NetPartitions: sev.part, RollingDrains: sev.drain,
			})
			moved := r.LiveMigrations + r.ColdMigrations
			attempted := moved + r.Readds + r.Parked
			resumed := 100.0
			if attempted > 0 {
				resumed = 100 * float64(moved) / float64(attempted)
			}
			fmt.Fprintf(&b, "%-8d %-22s %6d %6d %6d %6d %7.0f%% %10d %11d %8d\n",
				cards, sev.name, r.LiveMigrations, r.ColdMigrations, r.Readds, r.Parked,
				resumed, r.ViolDuring, r.ViolOutside, r.Recv)
		}
	}
	return b.String()
}
