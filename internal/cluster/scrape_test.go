package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blackbox"
	"repro/internal/fleetobs"
	"repro/internal/sim"
)

func obsTestConfig() FleetConfig {
	return FleetConfig{Cards: 8, StreamsPerCard: 2, Dur: 4 * sim.Second}
}

// obsArts lists every byte-compared observability artifact.
func obsArts(r *FleetObsResult) map[string]string {
	return map[string]string{
		"rollup":   r.Rollup,
		"timeline": r.Timeline,
		"topk":     r.TopK,
		"scrape":   r.ScrapeStats,
		"stitched": r.Stitched,
		"summary":  r.Summary,
		// The underlying chaos artifacts must stay deterministic too.
		"chaos-miglog":   r.Chaos.MigLog,
		"chaos-table":    r.Chaos.Table,
		"chaos-summary":  r.Chaos.Summary,
		"chaos-pulse":    r.Chaos.Pulse,
		"chaos-recovery": r.Chaos.Recovery,
	}
}

// The full observability plane — scrape timing, timeline merge, rollups,
// epoch links, stitched traces — must be byte-identical across the
// monolithic reference and any worker count.
func TestFleetObsDeterminism(t *testing.T) {
	base := obsTestConfig()
	base.Monolithic = true
	ref := RunFleetObs(base)

	for _, workers := range []int{1, 4} {
		cfg := obsTestConfig()
		cfg.Workers = workers
		got := RunFleetObs(cfg)
		want, have := obsArts(ref), obsArts(got)
		for name := range want {
			if want[name] != have[name] {
				t.Errorf("workers=%d: artifact %q differs from monolithic reference\nmono:\n%s\nworkers:\n%s",
					workers, name, clip(want[name]), clip(have[name]))
			}
		}
	}
}

func clip(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "…"
	}
	return s
}

// The scrape plane must actually move data in-band and never breach a card
// budget: replies are admission-tested before they are charged.
func TestFleetObsScrapeChargedNoBreach(t *testing.T) {
	res := RunFleetObs(obsTestConfig())
	if res.ScrapeReqs == 0 || res.ScrapeSamples == 0 {
		t.Fatalf("no scrape traffic: reqs=%d samples=%d", res.ScrapeReqs, res.ScrapeSamples)
	}
	if res.ObsBytes == 0 {
		t.Fatalf("scrape traffic not accounted")
	}
	if res.Breaches != 0 {
		t.Fatalf("scrape replies breached a card budget %d time(s)", res.Breaches)
	}
	if res.EventsShipped == 0 {
		t.Fatalf("no flight-recorder events rode the scrape plane")
	}
	// The chaos plan crashes a host, so the controller must have seen at
	// least one card go dark and the timeline must record it.
	if res.ScrapeDark == 0 {
		t.Fatalf("host crash never made a card scrape-dark")
	}
	for _, want := range []string{"scrape-dark", "domain-fault", "migrate"} {
		if !strings.Contains(res.Timeline, want) {
			t.Fatalf("timeline missing %q:\n%s", want, clip(res.Timeline))
		}
	}
	// The overhead line exists and in-band telemetry stays a sliver of the
	// media it shares links with.
	if !strings.Contains(res.ScrapeStats, "overhead=") {
		t.Fatalf("scrape accounting missing overhead line:\n%s", res.ScrapeStats)
	}
	if res.MediaBytes > 0 && res.ObsBytes*10 > res.MediaBytes {
		t.Fatalf("in-band obs bytes (%d) exceed 10%% of media bytes (%d)",
			res.ObsBytes, res.MediaBytes)
	}
}

// The default chaos plan live-migrates streams; their disk→wire→playout
// traces must stitch across the handoff via the recorded epoch links.
func TestFleetObsStitchesLiveMigration(t *testing.T) {
	res := RunFleetObs(obsTestConfig())
	if res.Chaos.LiveMigrations == 0 {
		t.Skipf("plan produced no live migrations (chaos draw)")
	}
	if res.Links == 0 {
		t.Fatalf("migrations committed but no span links recorded")
	}
	if res.StitchedLive == 0 {
		t.Fatalf("no live-migrated stream stitched to a full path:\n%s", clip(res.Stitched))
	}
	for _, want := range []string{"cursor contiguous", "full span: disk["} {
		if !strings.Contains(res.Stitched, want) {
			t.Fatalf("stitched artifact missing %q:\n%s", want, clip(res.Stitched))
		}
	}
}

// Every committed live or cold migration went through ImportStream on the
// target card, so that card's flight recorder — read from the ring, or from
// the timeline the scrapes shipped it to before the ring wrapped — holds the
// KindMigrate "import" event for the stream, at the instant the controller
// stamped on the span link.
func TestFleetObsImportsLandInTargetRecorder(t *testing.T) {
	f := runFleetChaos(obsTestConfig(), true)
	if f.res.LiveMigrations == 0 {
		t.Skipf("plan produced no live migrations (chaos draw)")
	}
	type imp struct {
		card   string
		stream int
		at     sim.Time
	}
	held := map[imp]bool{}
	for i, fc := range f.cards {
		for _, e := range fc.rec.Events() {
			if e.Kind == blackbox.KindMigrate && e.Note == "import" {
				held[imp{niName(i), e.Stream, e.At}] = true
			}
		}
	}
	for _, e := range f.obs.tl.Events() {
		if e.Kind == blackbox.KindMigrate.String() && e.Note == "import" {
			held[imp{e.SrcName, e.Stream, e.At}] = true
		}
	}
	checked := 0
	for _, l := range f.obs.links {
		if l.Kind != fleetobs.LinkLive && l.Kind != fleetobs.LinkCold {
			continue
		}
		checked++
		if !held[imp{l.ToWhere, l.Stream, l.At}] {
			t.Errorf("%s migration of stream %d → %s at %v: no import event in the target's flight recorder",
				l.Kind, l.Stream, l.ToWhere, l.At)
		}
	}
	if checked == 0 {
		t.Fatalf("migrations committed but no live/cold links recorded")
	}
}

// Under deterministic memory pressure the scrape plane degrades first:
// replies shed, the interval widens, and once pressure clears the full rate
// is restored — all without a single budget breach and with media flowing.
func TestFleetObsShedsUnderPressureThenRestores(t *testing.T) {
	cfg := obsTestConfig()
	// Quiet chaos: pressure is the only disturbance, so the shed/restore
	// cycle is isolated.
	cfg.HostCrashes, cfg.NetPartitions, cfg.RollingDrains = -1, -1, -1
	cfg.StressPct = 95
	cfg.StressAt = 1 * sim.Second
	cfg.StressDur = 1 * sim.Second
	res := RunFleetObs(cfg)
	if res.ScrapeSheds == 0 || res.Degrades == 0 {
		t.Fatalf("pressure never shed a scrape: sheds=%d degrades=%d",
			res.ScrapeSheds, res.Degrades)
	}
	if res.ScrapeSkips == 0 {
		t.Fatalf("degraded rung never skipped a scrape")
	}
	if res.Restores == 0 {
		t.Fatalf("full scrape rate never restored after pressure cleared")
	}
	if res.Breaches != 0 {
		t.Fatalf("shedding must prevent breaches, got %d", res.Breaches)
	}
	if res.Chaos.Recv == 0 {
		t.Fatalf("media stopped flowing under scrape pressure")
	}
	for _, want := range []string{"scrape-degrade", "scrape-restore", "scrape shed"} {
		if !strings.Contains(res.Timeline, want) {
			t.Fatalf("timeline missing %q:\n%s", want, clip(res.Timeline))
		}
	}
}

// The end-of-run reads render what they rendered before span storage was
// packed and collect became one pass: Stitched, Timeline and ScrapeStats of
// the small chaos shape (11 live migrations, 15 links) equal the strings
// captured from the concatenate-then-filter implementation.
func TestFleetObsArtifactsMatchGolden(t *testing.T) {
	res := RunFleetObs(obsTestConfig())
	if res.Chaos.LiveMigrations == 0 {
		t.Fatalf("shape produced no live migration; the golden strings need one")
	}
	for name, got := range map[string]string{
		"fleetobs_stitched.golden": res.Stitched,
		"fleetobs_timeline.golden": res.Timeline,
		"fleetobs_scrape.golden":   res.ScrapeStats,
	} {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs\ngot:\n%s\nwant:\n%s", name, clip(got), clip(string(want)))
		}
	}
}

var benchStitched int

// BenchmarkStitchCollect is the end-of-run read of a settled 16-card observed
// fleet: rollups, timeline, scrape accounting and every moved stream's
// stitched trace.
func BenchmarkStitchCollect(b *testing.B) {
	cfg := obsTestConfig()
	cfg.Cards, cfg.Dur = 16, 10*sim.Second
	f := runFleetChaos(cfg, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStitched += len(f.collectObs().Stitched)
	}
}
