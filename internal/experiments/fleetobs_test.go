package experiments

import (
	"testing"

	"repro/internal/sim"
)

func TestRunFleetObsArtifacts(t *testing.T) {
	a := RunFleetObs(FleetObsConfig{Workers: 1, Dur: 4 * sim.Second})
	for name, s := range map[string]string{
		"rollup": a.Rollup, "timeline": a.Timeline, "topk": a.TopK,
		"scrape": a.ScrapeStats, "stitched": a.Stitched, "summary": a.Summary,
	} {
		if s == "" {
			t.Fatalf("empty %s artifact", name)
		}
	}
	if a.ScrapeSamples == 0 || a.ObsBytes == 0 {
		t.Fatalf("scrape plane moved no data: %s", a.Summary)
	}
	if a.Breaches != 0 {
		t.Fatalf("scrape plane breached a budget: %s", a.Summary)
	}
	if a.Chaos.Recv == 0 {
		t.Fatalf("no media delivered: %s", a.Chaos.Summary)
	}
}
