package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// telemetryTestConfig keeps the instrumented run short for tests.
var telemetryTestConfig = TelemetryConfig{Dur: 5 * sim.Second, Streams: 2}

// TestTelemetryComponents asserts every instrumented substrate shows up.
func TestTelemetryComponents(t *testing.T) {
	a := RunTelemetry(telemetryTestConfig)
	if len(a.Components) < 8 {
		t.Fatalf("got %d components (%v), want >= 8", len(a.Components), a.Components)
	}
	have := make(map[string]bool, len(a.Components))
	for _, c := range a.Components {
		have[c] = true
	}
	for _, want := range []string{
		"bus", "cluster", "disk", "dvcmnet", "dwcs", "host", "netsim", "nic", "transport",
	} {
		if !have[want] {
			t.Errorf("component %q missing from %v", want, a.Components)
		}
	}
	if a.SpanCount == 0 {
		t.Error("no span segments recorded")
	}
	if want := int(telemetryTestConfig.Dur / sim.Second); a.Snapshots != want {
		t.Errorf("snapshots = %d, want %d", a.Snapshots, want)
	}
	// Every causal stage must appear in the folded stacks: the cluster path
	// exercises disk/bus/queue/tx/wire/playout, the host path queue onward.
	for _, stage := range []string{"disk", "bus", "queue", "tx", "wire", "playout"} {
		if !strings.Contains(a.Folded, "frame;"+stage+";") {
			t.Errorf("stage %q missing from folded output", stage)
		}
	}
}

// TestTelemetryCycleReconciliation checks the profiler's attribution against
// the meter and the plain Table 2 measurement.
func TestTelemetryCycleReconciliation(t *testing.T) {
	a := RunTelemetry(telemetryTestConfig)
	if a.ProfiledCycles != a.MeteredCycles {
		t.Errorf("profiled %d cycles, metered %d — attribution must be exact",
			a.ProfiledCycles, a.MeteredCycles)
	}
	delta := a.ProfiledTime - a.BenchTotal
	if delta < 0 {
		delta = -delta
	}
	// Within one 66 MHz i960 cycle (~15.2 ns).
	if delta > 16 {
		t.Errorf("profiled pass %v vs Table 2 total %v: |Δ| = %dns, want <= 1 cycle",
			a.ProfiledTime, a.BenchTotal, delta)
	}
	if !strings.Contains(a.CycleTable, "dwcs") || !strings.Contains(a.CycleTable, "dispatch") {
		t.Errorf("cycle table missing expected rows:\n%s", a.CycleTable)
	}
}

// TestTelemetryExportFormats round-trips the Chrome trace and validates the
// Prometheus exposition.
func TestTelemetryExportFormats(t *testing.T) {
	a := RunTelemetry(telemetryTestConfig)

	events, err := telemetry.UnmarshalChrome(a.TraceJSON)
	if err != nil {
		t.Fatalf("UnmarshalChrome: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace JSON holds no events")
	}
	again, err := telemetry.MarshalChrome(events)
	if err != nil {
		t.Fatalf("MarshalChrome: %v", err)
	}
	if !bytes.Equal(again, a.TraceJSON) {
		t.Error("Chrome trace does not round-trip byte-identically")
	}

	families, samples, err := telemetry.CheckPrometheus(a.Prom)
	if err != nil {
		t.Fatalf("CheckPrometheus: %v", err)
	}
	if families < 8 || samples < families {
		t.Errorf("Prometheus dump too small: %d families, %d samples", families, samples)
	}
	if !strings.HasPrefix(a.CSV, "time_ms,component,metric,value\n") {
		t.Errorf("CSV missing header: %q", a.CSV[:min(len(a.CSV), 60)])
	}
}
