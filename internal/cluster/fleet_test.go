package cluster

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func fleetArtifacts(r *FleetResult) string {
	return strings.Join([]string{r.Summary, r.Table, r.Pulse, r.CSV}, "\n---\n")
}

func testFleetConfig(workers int, mono bool) FleetConfig {
	return FleetConfig{
		Cards: 4, StreamsPerCard: 1, Dur: 800 * sim.Millisecond,
		Workers: workers, Monolithic: mono,
	}
}

// Media must flow: every card sources frames, every client receives them,
// and the controller pulse log covers every card at every poll.
func TestFleetDeliversMedia(t *testing.T) {
	r := RunFleet(testFleetConfig(1, false))
	if r.TotalInjected == 0 || r.TotalSent == 0 || r.TotalRecv == 0 {
		t.Fatalf("no media moved: %s", r.Summary)
	}
	if r.TotalRecv < r.TotalSent/2 {
		t.Fatalf("most sent frames never arrived: %s", r.Summary)
	}
	polls := int64(800/500) * int64(r.Cards)
	if got := int64(strings.Count(r.Pulse, "\n")); got != polls {
		t.Fatalf("pulse rows = %d, want %d\n%s", got, polls, r.Pulse)
	}
	if r.Rounds == 0 {
		t.Fatal("partitioned run reported zero synchronization rounds")
	}
}

// The byte-identical contract: partitioned artifacts must not depend on the
// worker count.
func TestFleetWorkersInvariance(t *testing.T) {
	ref := fleetArtifacts(RunFleet(testFleetConfig(1, false)))
	for _, workers := range []int{2, 4, 8} {
		got := fleetArtifacts(RunFleet(testFleetConfig(workers, false)))
		if got != ref {
			t.Fatalf("workers=%d artifacts diverged from workers=1:\n%s\n=== vs ===\n%s",
				workers, got, ref)
		}
	}
}

// The stronger contract: the partitioned engine replays the monolithic
// single-Engine fleet byte-for-byte. Every cross-card interaction rides the
// fleet hop, which both modes order identically.
func TestFleetMatchesMonolith(t *testing.T) {
	mono := fleetArtifacts(RunFleet(testFleetConfig(0, true)))
	part := fleetArtifacts(RunFleet(testFleetConfig(4, false)))
	if mono != part {
		t.Fatalf("partitioned fleet diverged from monolith:\n%s\n=== vs ===\n%s",
			part, mono)
	}
}

// A 1-card fleet keeps its media local (no self-channel) but still answers
// controller polls across the partition boundary.
func TestFleetSingleCard(t *testing.T) {
	cfg := testFleetConfig(2, false)
	cfg.Cards = 1
	r := RunFleet(cfg)
	if r.TotalRecv == 0 {
		t.Fatalf("no media delivered: %s", r.Summary)
	}
	if !strings.Contains(r.Pulse, "ni00") {
		t.Fatalf("controller never heard from the card:\n%s", r.Pulse)
	}
}

// settledGoroutines reads the goroutine count once it has fallen back to
// want, giving partition workers the run has already joined a moment to
// finish exiting. Callers test for growth only: workers of earlier tests in
// the package may still be exiting too.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// A run leaves no goroutine behind: the fleet's card tasks are step tasks,
// and the run closes its engines, so a coroutine task would not outlive it
// either — on the shared engine, inline, and with tasks run on the
// topology's worker pool, which RunUntil joins before it returns (Workers 4
// runs the pool at GOMAXPROCS ≥ 2; CI runs this package at -cpu 1,2,4).
func TestFleetRunsLeaveNoGoroutines(t *testing.T) {
	chaos := FleetConfig{Cards: 4, Dur: 2 * sim.Second, Workers: 4}
	runs := []struct {
		name string
		run  func()
	}{
		{"RunFleet monolithic", func() { RunFleet(testFleetConfig(0, true)) }},
		{"RunFleet workers=1", func() { RunFleet(testFleetConfig(1, false)) }},
		{"RunFleet workers=4", func() { RunFleet(testFleetConfig(4, false)) }},
		{"RunFleetChaos", func() { RunFleetChaos(chaos) }},
		{"RunFleetObs", func() { RunFleetObs(chaos) }},
		{"RunCtrlChaos", func() { RunCtrlChaos(chaos) }},
	}
	before := runtime.NumGoroutine()
	for _, r := range runs {
		r.run()
		if after := settledGoroutines(before); after > before {
			t.Errorf("%s: %d goroutines before, %d after", r.name, before, after)
		}
	}
}

// A received frame costs a fraction of a heap object: every per-frame step —
// disk read, PCI DMA, scheduling decision, wire release, fleet hop, client
// playout — runs on callbacks built once, and the frame's packet and payload
// are recycled. What is left is the controller's polls and the growth of the
// per-stream records. The count is the Mallocs delta of a 2 sim-s run beyond
// that of the same fleet run for 1 sim-s, per extra frame received, so the
// fleet's construction, which both runs pay, cancels out.
func TestFleetMallocsPerFrame(t *testing.T) {
	run := func(dur sim.Time) (mallocs uint64, frames int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := RunFleet(FleetConfig{Cards: 8, StreamsPerCard: 2, Dur: dur, Workers: 1})
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, r.TotalRecv
	}
	m1, n1 := run(sim.Second)
	m2, n2 := run(2 * sim.Second)
	if n2 <= n1 {
		t.Fatalf("frames received: %d in 1 s, %d in 2 s", n1, n2)
	}
	perFrame := float64(m2-m1) / float64(n2-n1)
	t.Logf("%d more frames received, %.2f mallocs each", n2-n1, perFrame)
	if perFrame > 1 {
		t.Errorf("%.2f mallocs per received frame, want ≤ 1", perFrame)
	}
}

// A received frame resumes no task coroutine: every task on the fleet's
// frame path — the producers, the DWCS scheduler and dispatcher, the
// watchdog petters and injected hangs — is a step task, which the kernel
// calls without a coroutine switch. Counted as in TestFleetMallocsPerFrame:
// the resumes of a 2 sim-s run beyond those of the same fleet run for
// 1 sim-s, per extra frame received.
func TestFleetResumesPerFrame(t *testing.T) {
	run := func(dur sim.Time) (resumes, frames int64) {
		r := RunFleet(FleetConfig{Cards: 8, StreamsPerCard: 2, Dur: dur, Workers: 1})
		return r.Resumes, r.TotalRecv
	}
	r1, n1 := run(sim.Second)
	r2, n2 := run(2 * sim.Second)
	if n2 <= n1 {
		t.Fatalf("frames received: %d in 1 s, %d in 2 s", n1, n2)
	}
	perFrame := float64(r2-r1) / float64(n2-n1)
	t.Logf("%d more frames received, %.2f coroutine resumes each", n2-n1, perFrame)
	if perFrame > 0.1 {
		t.Errorf("%.2f coroutine resumes per received frame, want ≤ 0.1", perFrame)
	}
}
