package experiments

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestFaultRecoveryShape runs the default chaos schedule and checks the
// acceptance shape: the crash is detected, streams ride out the outage on
// the host tier, and after the card resets per-stream bandwidth returns to
// ≥90% of its pre-fault value with zero DWCS violations outside the outage.
func TestFaultRecoveryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-recovery run in -short mode")
	}
	fr := RunFaultRecovery(FaultConfig{Dur: 30 * sim.Second})

	if fr.Crashes != 1 || fr.Resets != 1 {
		t.Fatalf("crashes=%d resets=%d, want 1/1", fr.Crashes, fr.Resets)
	}
	if fr.CrashAt == 0 || fr.BiteAt <= fr.CrashAt || fr.ResetAt <= fr.BiteAt {
		t.Fatalf("timeline crash=%v bite=%v reset=%v out of order", fr.CrashAt, fr.BiteAt, fr.ResetAt)
	}
	if det := fr.BiteAt - fr.CrashAt; det > sim.Second {
		t.Fatalf("watchdog detection took %v, want < 1s", det)
	}
	if fr.Bites == 0 {
		t.Fatal("watchdog never bit")
	}
	if fr.Switches != 2 {
		t.Fatalf("failover switches = %d, want 2 (out and back)", fr.Switches)
	}
	if fr.HostSent == 0 {
		t.Fatal("host tier sent nothing during the outage")
	}
	if fr.NISent == 0 {
		t.Fatal("NI tier sent nothing")
	}

	for _, name := range []string{"s1", "s2"} {
		pre, outage, post := fr.PreBW[name], fr.OutageBW[name], fr.PostBW[name]
		if pre <= 0 {
			t.Fatalf("%s: no pre-fault bandwidth", name)
		}
		if outage <= 0 {
			t.Fatalf("%s: stream went fully dark through the outage (host fallback broken)", name)
		}
		if post < 0.9*pre {
			t.Fatalf("%s: post-recovery bw %.0f < 90%% of pre-fault %.0f", name, post, pre)
		}
		if fr.RecoverIn[name] < 0 {
			t.Fatalf("%s: bandwidth never recovered to 90%% of pre-fault", name)
		}
	}

	if fr.ViolationsOutsideOutage != 0 {
		t.Fatalf("%d DWCS violations outside the chaos window, want 0", fr.ViolationsOutsideOutage)
	}
	if len(fr.Log.Records) == 0 {
		t.Fatal("chaos log empty; plan never fired")
	}
	if report := fr.Result().String(); !strings.Contains(report, "chaos:") {
		t.Fatalf("report missing the chaos log:\n%s", report)
	}
}
