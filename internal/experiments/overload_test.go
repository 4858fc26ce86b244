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
