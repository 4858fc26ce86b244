package experiments

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestRunsLeaveNoGoroutines: no run reprogen and clustersim can ask for
// leaves a goroutine behind to pin the run's memory — a card task parked at
// the end of a run owns none, and worker pools are joined.
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
	}
	for _, s := range Scenarios {
		cfg := s.Pinned
		cfg.Workers = 4
		runs = append(runs, struct {
			name string
			run  func()
		}{"scenario " + s.Name, func() { s.Run(cfg) }})
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
