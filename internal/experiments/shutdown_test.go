package experiments

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestRunsLeaveNoGoroutines: every run reprogen and clustersim can ask for
// closes the engines it built, so the card tasks parked at the end of the
// run (one goroutine each) do not outlive it and pin the run's memory.
func TestRunsLeaveNoGoroutines(t *testing.T) {
	const dur = 2 * sim.Second
	runs := []struct {
		name string
		run  func()
	}{
		{"RunHostFigures", func() { RunHostFigures(dur) }},
		{"RunNIFigures", func() { RunNIFigures(dur) }},
		{"RunTable1", func() { RunTable1() }},
		{"RunTable2", func() { RunTable2() }},
		{"RunTable3", func() { RunTable3() }},
		{"RunTable4", func() { RunTable4() }},
		{"RunTable5", func() { RunTable5() }},
		{"RunHeadline", func() { RunHeadline() }},
		{"RunStreamScaling", func() { RunStreamScaling([]int{4, 16}) }},
		{"RunFaultRecovery", func() { RunFaultRecovery(FaultConfig{Dur: 12 * sim.Second}) }},
		{"RunTelemetry", func() { RunTelemetry(TelemetryConfig{Dur: dur}) }},
		{"RunDiagnostics", func() { RunDiagnostics(DiagnosticsConfig{Dur: 8 * sim.Second}) }},
		{"RunOverload", func() { RunOverload(OverloadConfig{Dur: dur}) }},
		{"RunFleet", func() { RunFleet(FleetConfig{Cards: 3, StreamsPerCard: 1, Dur: dur, Workers: 4}) }},
		{"RunFleetChaos", func() { RunFleetChaos(FleetChaosConfig{Workers: 4, Dur: dur}) }},
		{"RunFleetObs", func() { RunFleetObs(FleetObsConfig{Workers: 4, Dur: dur}) }},
		{"RunCtrlChaos", func() { RunCtrlChaos(CtrlChaosConfig{Workers: 4, Dur: dur}) }},
	}
	before := runtime.NumGoroutine()
	for _, r := range runs {
		r.run()
		// Pool workers have delivered their last result by now; give them a
		// moment to finish exiting.
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if after > before {
			t.Errorf("%s: %d goroutines before, %d after", r.name, before, after)
		}
	}
}
