package experiments

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestDiagnosticsDeterministicAndBudgeted is the tentpole acceptance test:
// the chaos run fires its incident triggers, and the flight-recorder ring is
// charged to — and stays within — the card budget. (That identical runs
// produce byte-identical dumps is TestScenarios/slo.)
func TestDiagnosticsDeterministicAndBudgeted(t *testing.T) {
	a := RunDiagnostics(DiagnosticsConfig{Dur: 8 * sim.Second})

	if a.Triggers == 0 {
		t.Fatal("chaos run fired no incident triggers")
	}
	for _, want := range []string{"fault: mem-leak", "watchdog"} {
		if !strings.Contains(a.Incidents, want) {
			t.Fatalf("incident dump missing %q:\n%s", want, a.Incidents)
		}
	}
	if a.WatchdogBites == 0 {
		t.Fatal("task hang did not bite the watchdog")
	}

	// The ring pays for its memory like any other tenant and never exceeds
	// its configured charge.
	if a.RingCharge != a.RingBytes {
		t.Fatalf("ring charge %d != configured ring bytes %d", a.RingCharge, a.RingBytes)
	}
	if a.RingBytes > a.BudgetSize {
		t.Fatalf("ring %d B exceeds card budget %d B", a.RingBytes, a.BudgetSize)
	}
	if a.BudgetPeak > a.BudgetSize {
		t.Fatalf("budget peak %d exceeds size %d: breach", a.BudgetPeak, a.BudgetSize)
	}
	if a.Breaches != 0 {
		t.Fatalf("breaches = %d, want 0", a.Breaches)
	}
}

// TestDiagnosticsSLOBurnsUnderOverload: at 8× oversubscription the base
// streams cannot hold their windows; the monitor must escalate and the
// refusal path must fire.
func TestDiagnosticsSLOBurnsUnderOverload(t *testing.T) {
	a := RunDiagnostics(DiagnosticsConfig{Dur: 8 * sim.Second})
	if a.Health < 1 {
		t.Fatalf("health = %v under 8x overload, want at least warn\nslo:\n%s", a.Health, a.SLO)
	}
	if !strings.Contains(a.SLO, "ni-sched") {
		t.Fatalf("SLO table:\n%s", a.SLO)
	}
	if a.Rejects == 0 {
		t.Fatal("late setups were never refused; budget-refusal trigger untested")
	}
	if !strings.Contains(a.Incidents, "budget-refusal") {
		t.Fatalf("no budget-refusal incident:\n%s", a.Incidents)
	}
}
