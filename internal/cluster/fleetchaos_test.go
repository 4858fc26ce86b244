package cluster

import (
	"strings"
	"testing"
)

func chaosArtifacts(r *FleetChaosResult) string {
	return strings.Join([]string{
		r.Plan, r.Table, r.Pulse, r.MigLog, r.Recovery, r.Violations, r.CSV, r.Summary,
	}, "\n---\n")
}

func resumedPct(r *FleetChaosResult) float64 {
	moved := r.LiveMigrations + r.ColdMigrations
	attempted := moved + r.Readds + r.Parked
	if attempted == 0 {
		return 100
	}
	return 100 * float64(moved) / float64(attempted)
}

// The full default chaos plan — one host crash, one switch partition, one
// rolling drain — must be survived: no stream parked, ≥90% of displaced
// streams resume via live or cold migration (ID preserved, no teardown),
// and zero loss-window violations land outside the padded outage windows.
func TestFleetChaosSurvivesCorrelatedFaults(t *testing.T) {
	r := RunFleetChaos(FleetConfig{Workers: 1})
	if r.Recv == 0 {
		t.Fatalf("no media delivered: %s", r.Summary)
	}
	if r.LiveMigrations+r.ColdMigrations == 0 {
		t.Fatalf("chaos plan displaced no streams: %s\n%s", r.Summary, r.Plan)
	}
	if r.Parked != 0 {
		t.Errorf("streams left unplaced: %s\n%s", r.Summary, r.MigLog)
	}
	if pct := resumedPct(r); pct < 90 {
		t.Errorf("resumed %.0f%% < 90%%: %s\n%s", pct, r.Summary, r.MigLog)
	}
	if r.ViolOutside != 0 {
		t.Errorf("loss-window violations outside outage windows: %s\n%s",
			r.Summary, r.Violations)
	}
	if strings.Contains(r.Recovery, "no frame after strike") {
		t.Errorf("affected stream never recovered:\n%s", r.Recovery)
	}
}

// Each fault kind alone must also be survivable — the correlated-plan test
// can mask a kind-specific hole when another kind's migrations shuffle the
// same streams.
func TestFleetChaosEachKindAlone(t *testing.T) {
	kinds := []struct {
		name                  string
		crash, part, drain    int
		wantLive, wantCold    bool
		wantSevered, wantMove bool
	}{
		{name: "host-crash", crash: 1, part: -1, drain: -1, wantCold: true, wantMove: true},
		{name: "net-partition", crash: -1, part: 1, drain: -1, wantSevered: true, wantMove: true},
		{name: "rolling-drain", crash: -1, part: -1, drain: 1, wantLive: true, wantMove: true},
	}
	for _, k := range kinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			r := RunFleetChaos(FleetConfig{
				Workers: 1, HostCrashes: k.crash, NetPartitions: k.part, RollingDrains: k.drain,
			})
			if k.wantMove && r.LiveMigrations+r.ColdMigrations == 0 {
				t.Fatalf("no migrations: %s\n%s", r.Summary, r.Plan)
			}
			if k.wantCold && r.ColdMigrations == 0 {
				t.Errorf("host crash produced no cold migrations: %s", r.Summary)
			}
			if k.wantLive && r.LiveMigrations == 0 {
				t.Errorf("drain produced no live migrations: %s", r.Summary)
			}
			if k.wantSevered && r.SeveredDrops == 0 {
				t.Errorf("partition severed no fleet-network hops: %s", r.Summary)
			}
			if pct := resumedPct(r); pct < 90 {
				t.Errorf("resumed %.0f%% < 90%%: %s", pct, r.Summary)
			}
			if r.ViolOutside != 0 {
				t.Errorf("violations outside outage: %s\n%s", r.Summary, r.Violations)
			}
		})
	}
}

// The byte-identical contract extends to chaos: the injected plan, every
// migration decision, and all artifacts must not depend on the worker count
// or on partitioned-vs-monolithic execution.
func TestFleetChaosDeterminism(t *testing.T) {
	ref := chaosArtifacts(RunFleetChaos(FleetConfig{Workers: 1}))
	if got := chaosArtifacts(RunFleetChaos(FleetConfig{Workers: 4})); got != ref {
		t.Fatalf("workers=4 artifacts diverged from workers=1:\n%s", firstDiff(ref, got))
	}
	if got := chaosArtifacts(RunFleetChaos(FleetConfig{Monolithic: true})); got != ref {
		t.Fatalf("monolithic artifacts diverged from workers=1:\n%s", firstDiff(ref, got))
	}
}

// firstDiff trims a pair of big artifact blobs to the first divergent line.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + string(rune('0'+i%10)) + ": " + al[i] + "\n vs: " + bl[i]
		}
	}
	return "length mismatch"
}

// A bigger fleet with a heavier correlated plan: two host crashes plus a
// partition and a drain overlapping. The controller must still place every
// stream somewhere and keep violations inside the outage windows.
func TestFleetChaosHeavyPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy chaos plan")
	}
	r := RunFleetChaos(FleetConfig{
		Workers: 1, Cards: 12, CardsPerHost: 2, HostsPerSwitch: 3,
		HostCrashes: 2, NetPartitions: 1, RollingDrains: 1,
	})
	if r.ViolOutside != 0 {
		t.Errorf("violations outside outage: %s\n%s", r.Summary, r.Violations)
	}
	if pct := resumedPct(r); pct < 90 {
		t.Errorf("resumed %.0f%% < 90%%: %s\n%s", pct, r.Summary, r.MigLog)
	}
}
