package main

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// dwcsdRegistry builds the same registry shape the sender exports.
func dwcsdRegistry(sent, dropped *atomic.Int64) *telemetry.Registry {
	reg := telemetry.New()
	reg.CounterFunc("dwcsd", "frames_sent_total",
		"frames paced onto the wire by DWCS", sent.Load)
	reg.CounterFunc("dwcsd", "frames_dropped_total",
		"frames dropped by the scheduler (deadline passed)", dropped.Load)
	reg.GaugeFunc("dwcsd", "streams",
		"concurrent streams being paced", func() float64 { return 2 })
	return reg
}

func TestMetricsEndpointServesValidPrometheus(t *testing.T) {
	var sent, dropped atomic.Int64
	sent.Store(151)
	dropped.Store(3)
	srv := httptest.NewServer(metricsHandler(dwcsdRegistry(&sent, &dropped).PrometheusText))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}

	// The dump must be a well-formed Prometheus exposition — the same
	// checker the simulator's telemetry artifacts are validated with.
	families, samples, err := telemetry.CheckPrometheus(string(body))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	if families < 3 || samples < 3 {
		t.Fatalf("families=%d samples=%d, want >= 3 each\n%s", families, samples, body)
	}
	for _, want := range []string{
		`repro_dwcsd_frames_sent_total{component="dwcsd"} 151`,
		`repro_dwcsd_frames_dropped_total{component="dwcsd"} 3`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}

	// A later scrape observes counter movement through the atomics.
	sent.Add(9)
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `repro_dwcsd_frames_sent_total{component="dwcsd"} 160`) {
		t.Fatalf("second scrape stale:\n%s", body)
	}

	// Anything but /metrics is a 404, not a panic.
	resp, err = http.Get(srv.URL + "/other")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/other status %d, want 404", resp.StatusCode)
	}
}

func TestLifecycleTriggerIsIdempotent(t *testing.T) {
	lc := newLifecycle()
	if lc.stopped() {
		t.Fatal("fresh lifecycle already stopped")
	}
	lc.trigger()
	lc.trigger() // a second trigger must not panic on a closed channel
	if !lc.stopped() {
		t.Fatal("triggered lifecycle not stopped")
	}
}

// TestServeMetricsStopClosesListener pins the graceful-shutdown contract of
// the -metrics endpoint: stop() returns promptly and afterwards the listener
// accepts no new connections.
func TestServeMetricsStopClosesListener(t *testing.T) {
	var sent, dropped atomic.Int64
	bound, stop, err := serveMetrics("127.0.0.1:0", dwcsdRegistry(&sent, &dropped).PrometheusText)
	if err != nil {
		t.Fatal(err)
	}
	// The endpoint works before the stop.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	done := make(chan struct{})
	go func() { stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stop() wedged past its own drain deadline")
	}
	if resp, err := client.Get("http://" + bound + "/metrics"); err == nil {
		resp.Body.Close()
		t.Fatal("listener still accepting connections after stop()")
	}
}

// TestSenderDrainsOnShutdown interrupts a long serve run and verifies it
// winds down within the drain deadline instead of running out the full -dur.
func TestSenderDrainsOnShutdown(t *testing.T) {
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, _, err := sink.ReadFrom(buf); err != nil {
				return
			}
		}
	}()

	lc := newLifecycle()
	time.AfterFunc(150*time.Millisecond, lc.trigger)
	start := time.Now()
	cfg := runConfig{period: 20 * time.Millisecond, dur: 30 * time.Second, drain: time.Second}
	if err := run(cfg.serve(sink.LocalAddr().String(), 2), lc, io.Discard); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("sender ignored shutdown; ran %v of a 30s duration", el)
	}
}

// TestReceiverStopsOnShutdown interrupts a receiver blocked on a quiet wire;
// the receive half's 50ms read-deadline poll must notice the stop within
// one cycle.
func TestReceiverStopsOnShutdown(t *testing.T) {
	lc := newLifecycle()
	time.AfterFunc(100*time.Millisecond, lc.trigger)
	start := time.Now()
	var out strings.Builder
	if err := run(runConfig{dur: 30 * time.Second}.recv("127.0.0.1:0"), lc, &out); err != nil {
		t.Fatal(err)
	}
	// 100ms to the stop, one 50ms poll, and slack for a loaded machine.
	if el := time.Since(start); el > 100*time.Millisecond+recvPoll+time.Second {
		t.Fatalf("receiver ignored shutdown; ran %v of a 30s duration", el)
	}
	if !strings.Contains(out.String(), "dwcsd: interrupted; reporting partial run") {
		t.Fatalf("no interruption report:\n%s", out.String())
	}
}

func TestServeMetricsBindsEphemeralPort(t *testing.T) {
	var sent, dropped atomic.Int64
	bound, stop, err := serveMetrics("127.0.0.1:0", dwcsdRegistry(&sent, &dropped).PrometheusText)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, _, err := telemetry.CheckPrometheus(string(body)); err != nil {
		t.Fatalf("invalid exposition from live server: %v", err)
	}
}

// TestPerStreamPrometheusRoundTrip is the per-stream-labels satellite: the
// send and receive halves register per-stream series under component
// "dwcsd_s<id>", and the rendered exposition round-trips through the same
// CheckPrometheus validator the simulator's artifacts use.
func TestPerStreamPrometheusRoundTrip(t *testing.T) {
	o := newObs("dwcsd", "")
	s0 := newSenderStream(o, 0)
	s1 := newSenderStream(o, 1)
	s0.sent.Add(10)
	s0.bytes.Add(5000)
	s1.sent.Add(7)
	s1.drops.Add(2)
	r3 := &session{id: 3, rx: newRecvStream(o, 3)}
	r3.arrive(10*sim.Millisecond, 900)
	r3.arrive(60*sim.Millisecond, 900) // 50ms gap into the histogram

	text := o.render()
	families, samples, err := telemetry.CheckPrometheus(text)
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, text)
	}
	if families < 6 || samples < 10 {
		t.Fatalf("families=%d samples=%d, want a populated exposition\n%s", families, samples, text)
	}
	for _, want := range []string{
		`repro_dwcsd_s0_frames_sent_total{component="dwcsd_s0"} 10`,
		`repro_dwcsd_s0_bytes_sent_total{component="dwcsd_s0"} 5000`,
		`repro_dwcsd_s1_frames_sent_total{component="dwcsd_s1"} 7`,
		`repro_dwcsd_s1_drops_total{component="dwcsd_s1"} 2`,
		`repro_dwcsd_s3_bytes_received_total{component="dwcsd_s3"} 1800`,
		`repro_dwcsd_s3_interarrival_ms_count{component="dwcsd_s3"} 1`,
		`repro_dwcsd_s3_interarrival_ms_bucket{component="dwcsd_s3",le="50"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if got := r3.rx.meanGapMs(); got != 50 {
		t.Fatalf("histogram-derived mean gap = %v, want 50", got)
	}
}

// TestObsSLOViolationDumpsIncident wires the bundle end-to-end: a stream
// whose stats burn its whole loss budget escalates to violated, which must
// leave a KindSLO trail and a triggered incident holding the registry state.
func TestObsSLOViolationDumpsIncident(t *testing.T) {
	o := newObs("dwcsd", "")
	var losses int64
	o.mu.Lock()
	o.mon.Track(sloObjective(5), func() (int64, int64) {
		losses += 10
		return losses, losses // every attempt lost: maximal burn
	})
	o.mu.Unlock()
	for i := 0; i < 12; i++ {
		o.mu.Lock()
		o.mon.Eval()
		o.mu.Unlock()
	}
	o.mu.Lock()
	dump := o.rec.DumpAll()
	violations := o.mon.Violations
	o.mu.Unlock()
	if violations == 0 {
		t.Fatal("all-loss stream never violated")
	}
	if !strings.Contains(dump, "slo violated: stream 5") {
		t.Fatalf("no violation incident:\n%s", dump)
	}
	if !strings.Contains(dump, "state:") {
		t.Fatalf("incident carries no registry state:\n%s", dump)
	}
}

// sloObjective builds a minimal all-loss-intolerant objective for tests.
func sloObjective(id int) slo.Objective {
	return slo.Objective{Stream: id, Name: "t", LossTarget: 0.01}
}
