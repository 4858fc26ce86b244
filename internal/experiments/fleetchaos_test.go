package experiments

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestRunFleetArtifacts(t *testing.T) {
	a := cluster.RunFleet(cluster.FleetConfig{Cards: 2, StreamsPerCard: 1, Dur: 600 * sim.Millisecond, Workers: 2})
	for name, s := range map[string]string{
		"summary": a.Summary, "table": a.Table, "pulse": a.Pulse, "csv": a.CSV,
	} {
		if s == "" {
			t.Fatalf("empty %s artifact", name)
		}
	}
	if a.TotalRecv == 0 {
		t.Fatalf("no media delivered: %s", a.Summary)
	}
}

func TestRunFleetChaosArtifacts(t *testing.T) {
	a := cluster.RunFleetChaos(cluster.FleetConfig{Workers: 1})
	for name, s := range map[string]string{
		"plan": a.Plan, "summary": a.Summary, "table": a.Table, "pulse": a.Pulse,
		"miglog": a.MigLog, "recovery": a.Recovery, "violations": a.Violations,
		"csv": a.CSV,
	} {
		if s == "" {
			t.Fatalf("empty %s artifact", name)
		}
	}
	if a.Recv == 0 {
		t.Fatalf("no media delivered: %s", a.Summary)
	}
	if a.LiveMigrations+a.ColdMigrations == 0 {
		t.Fatalf("chaos displaced no streams: %s", a.Summary)
	}
	if a.ViolOutside != 0 {
		t.Fatalf("violations outside outage windows: %s", a.Summary)
	}
}

func TestFleetChaosSweepShape(t *testing.T) {
	table := FleetChaosSweep(1)
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if len(lines) != 1+2*5 {
		t.Fatalf("sweep rows = %d, want header + 10:\n%s", len(lines)-1, table)
	}
	if !strings.Contains(table, "all-three") || !strings.Contains(table, "2crash+part") {
		t.Fatalf("missing severity rows:\n%s", table)
	}
}
