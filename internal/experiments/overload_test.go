package experiments

import (
	"strings"
	"testing"

	"repro/internal/overload"
	"repro/internal/sim"
)

// overloadTestConfig keeps the sweep short for tests while still crossing the
// budget ceiling and the ladder's revoke rung in its heaviest cells.
var overloadTestConfig = OverloadConfig{Dur: 10 * sim.Second}

// TestOverloadClaim asserts the claim-4 shape: the protected NI never
// breaches its budget and keeps accounted bytes bounded in every cell, while
// the host baseline's backlog grows far past the card's entire memory.
func TestOverloadClaim(t *testing.T) {
	a := RunOverload(overloadTestConfig)
	var worst *OverloadPoint
	for _, pt := range a.Points {
		if pt.NIBreaches != 0 {
			t.Errorf("cell %.0f%%/%dx: %d budget breaches", pt.Load, pt.Mult, pt.NIBreaches)
		}
		if pt.NIBudgetPeak > pt.NIBudgetSize {
			t.Errorf("cell %.0f%%/%dx: peak %d exceeds budget %d",
				pt.Load, pt.Mult, pt.NIBudgetPeak, pt.NIBudgetSize)
		}
		if worst == nil || pt.Load >= worst.Load && pt.Mult >= worst.Mult {
			worst = pt
		}
	}
	if worst.HostQueuedPeakBytes <= worst.NIBudgetSize {
		t.Errorf("host backlog %d did not outgrow the NI budget %d — no collapse to contrast",
			worst.HostQueuedPeakBytes, worst.NIBudgetSize)
	}
	if worst.NIQueuedPeakBytes >= worst.HostQueuedPeakBytes {
		t.Errorf("NI rings %d not smaller than host rings %d",
			worst.NIQueuedPeakBytes, worst.HostQueuedPeakBytes)
	}
}

// TestOverloadLadderEngagesUnderPressure asserts the graceful-degradation
// machinery actually exercises in the sweep: oversubscribed cells shed and
// climb the ladder, admissions are refused then readmitted, and the mem-leak
// cells reach revoke and reverse it.
func TestOverloadLadderEngagesUnderPressure(t *testing.T) {
	a := RunOverload(overloadTestConfig)
	var shed, rejects, retries, revoked, reinstated, leaked int64
	maxRung := overload.RungNone
	for _, pt := range a.Points {
		shed += pt.NIShedTolerant
		rejects += pt.NIRejects
		retries += pt.NIRetryAdmits
		revoked += pt.NIRevoked
		reinstated += pt.NIReinstated
		leaked += pt.NILeakReclaimed
		if pt.NIMaxRung > maxRung {
			maxRung = pt.NIMaxRung
		}
		if pt.Mult == 1 && pt.NIMaxRung != overload.RungNone {
			t.Errorf("cell %.0f%%/1x climbed to %v at service rate", pt.Load, pt.NIMaxRung)
		}
		if pt.Mult == 1 && pt.NILateAdmits != 4 {
			t.Errorf("cell %.0f%%/1x admitted %d late setups, want all 4", pt.Load, pt.NILateAdmits)
		}
	}
	if shed == 0 {
		t.Error("no frames shed within loss tolerance anywhere in the sweep")
	}
	if rejects == 0 {
		t.Error("no admission rejects anywhere in the sweep")
	}
	if retries == 0 {
		t.Error("no rejected setup was ever readmitted from the retry queue")
	}
	if maxRung != overload.RungRevoke {
		t.Errorf("max rung %v, want revoke (mem-leak cells)", maxRung)
	}
	if leaked == 0 {
		t.Error("mem-leak fault never pinned bytes")
	}
	if revoked == 0 || reinstated != revoked {
		t.Errorf("revoked %d reinstated %d, want equal and positive", revoked, reinstated)
	}
	if !strings.Contains(a.Summary, "budget breaches across all cells: 0") {
		t.Errorf("summary lost the zero-breach verdict:\n%s", a.Summary)
	}
}

// TestOverloadBedCountsRevokedProducers holds the bed's producer list, which
// ni_throttled sums, to every producer it spawned: after a revocation and a
// reinstatement the revoked stream's first producer is still counted beside
// its successor, so the producers' throttled fetches add up to every fetch
// the controller gated.
func TestOverloadBedCountsRevokedProducers(t *testing.T) {
	eng, _, _, schedSeg := newNIHost()
	b := newOverloadBed(eng, schedSeg, 8)
	b.admitBase()
	eng.RunUntil(2 * sim.Second)
	if !b.ctl.Hooks.Revoke() {
		t.Fatal("no stream to revoke")
	}
	eng.RunUntil(3 * sim.Second)
	if !b.ctl.Hooks.Reinstate() {
		t.Fatal("the revoked stream did not come back")
	}
	eng.RunUntil(5 * sim.Second)
	var throttled int64
	for _, p := range b.producers {
		throttled += p.Throttled
	}
	if throttled == 0 || throttled != b.ctl.SourceStalls {
		t.Errorf("producers' throttled fetches = %d, controller gated %d (%d producers for %d base streams)",
			throttled, b.ctl.SourceStalls, len(b.producers), len(b.base))
	}
}
