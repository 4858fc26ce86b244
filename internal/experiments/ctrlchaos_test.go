package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// parseSimTime reverses sim.Time's adaptive String rendering ("3.786s",
// "495.000ms", ...) for timeline assertions.
func parseSimTime(s string) (sim.Time, bool) {
	for _, u := range []struct {
		suffix string
		unit   sim.Time
	}{{"ms", sim.Millisecond}, {"µs", sim.Microsecond}, {"ns", sim.Nanosecond}, {"s", sim.Second}} {
		if !strings.HasSuffix(s, u.suffix) {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
		if err != nil {
			return 0, false
		}
		return sim.Time(v * float64(u.unit)), true
	}
	return 0, false
}

// TestCtrlChaosAcceptance pins the controller-chaos scenario's safety and
// liveness properties on the default configuration: the standby detects the
// primary's death and takes over within two poll periods, no stream is ever
// attached on two live cards, the deposed leaders' stale commands are fenced
// (and logged), the journal traffic stays under the 2% overhead gate, and no
// loss-window violation lands outside the padded outage windows.
func TestCtrlChaosAcceptance(t *testing.T) {
	a := cluster.RunCtrlChaos(cluster.FleetConfig{Workers: 2})

	if a.Takeovers < 1 {
		t.Fatalf("no takeover happened:\n%s", a.HATimeline)
	}
	if a.DoublePlaced != 0 {
		t.Errorf("%d stream(s) double-placed — fencing failed:\n%s",
			a.DoublePlaced, a.HASummary)
	}
	if a.FencedRejects < 1 {
		t.Errorf("no stale command was fenced; the scenario should depose a leader:\n%s",
			a.HATimeline)
	}
	if a.Adopted < 1 {
		t.Errorf("journal reconcile adopted nothing; the crash should land mid-migration:\n%s",
			a.HATimeline)
	}
	if a.Chaos.ViolOutside != 0 {
		t.Errorf("violOutside = %d, want 0 (violations must stay inside outage windows)",
			a.Chaos.ViolOutside)
	}
	if a.MediaBytes <= 0 || float64(a.JournalBytes) > 0.02*float64(a.MediaBytes) {
		t.Errorf("journal overhead gate: journal=%dB media=%dB (limit 2%%)",
			a.JournalBytes, a.MediaBytes)
	}

	// Takeover latency: the timeline's leader-takeover row must land within
	// two poll periods (plus the replication hop) of the crash.
	crashAt, tookAt := sim.Time(-1), sim.Time(-1)
	for _, line := range strings.Split(a.HATimeline, "\n") {
		fs := strings.Fields(line)
		if len(fs) < 5 {
			continue
		}
		at, ok := parseSimTime(fs[0])
		if !ok {
			continue
		}
		switch fs[4] {
		case "ctrl-crash":
			if crashAt < 0 {
				crashAt = at
			}
		case "leader-takeover":
			if tookAt < 0 {
				tookAt = at
			}
		}
	}
	if crashAt < 0 || tookAt < 0 {
		t.Fatalf("timeline missing crash or takeover rows:\n%s", a.HATimeline)
	}
	if lag := tookAt - crashAt; lag > 2*250*sim.Millisecond {
		t.Errorf("takeover lag %v exceeds two poll periods", lag)
	}

	// The control-plane rollup and the summary must agree on the leader.
	if !strings.Contains(a.CtrlPlane, "leader="+a.LeaderName) {
		t.Errorf("rollup disagrees with summary about the leader:\n%s\n%s",
			a.CtrlPlane, a.HASummary)
	}
}

// TestCtrlChaosWithoutControllerFaults proves the replicated control plane
// is quiescent when healthy: with controller faults disabled the standby
// never takes over, nothing is fenced, and the underlying chaos run still
// recovers every stream.
func TestCtrlChaosWithoutControllerFaults(t *testing.T) {
	a := cluster.RunCtrlChaos(cluster.FleetConfig{Workers: 2, CtrlCrashes: -1, CtrlPartitions: -1})
	if a.Takeovers != 0 || a.FencedRejects != 0 {
		t.Fatalf("healthy pair saw takeovers=%d fenced=%d:\n%s",
			a.Takeovers, a.FencedRejects, a.HATimeline)
	}
	if a.LeaderName != "ctl-a" || a.LeaderEpoch != 1 {
		t.Fatalf("healthy pair ended leader=%s epoch=%d, want ctl-a epoch 1",
			a.LeaderName, a.LeaderEpoch)
	}
	if a.DoublePlaced != 0 {
		t.Fatalf("double-placed streams on a healthy pair: %s", a.HASummary)
	}
	if a.JournalBytes <= 0 {
		t.Fatal("healthy pair shipped no journal/checkpoint traffic")
	}
}
