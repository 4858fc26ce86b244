package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/rundiff"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestSoakPlanIsDeterministic pins the fixed-seed plan: same shape in, same
// arrivals and churn out — the property that makes two soak runs comparable.
func TestSoakPlanIsDeterministic(t *testing.T) {
	const target = 100
	a, err := soakPlan(target, 2*time.Second, false, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := soakPlan(target, 2*time.Second, false, 0.3)
	if a.sessions != b.sessions || len(a.events) != len(b.events) {
		t.Fatalf("plan sizes differ: %d/%d vs %d/%d", a.sessions, len(a.events), b.sessions, len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.events[i], b.events[i])
		}
	}
	// Churn adds replacements beyond the target, and every teardown pairs
	// with a same-time replacement setup.
	if a.sessions <= target {
		t.Fatalf("churn produced no replacement sessions: %d", a.sessions)
	}
	tears := 0
	for _, e := range a.events {
		if !e.setup {
			tears++
		}
	}
	if a.sessions != target+tears {
		t.Fatalf("%d sessions for %d target + %d teardowns", a.sessions, target, tears)
	}
}

// TestSoakPlanFlashCrowd pins the flash-arrival property: every initial
// session sets up inside the first 100ms of the run.
func TestSoakPlanFlashCrowd(t *testing.T) {
	pl, err := soakPlan(500, 5*time.Second, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pl.events {
		if e.setup && e.id < 500 && e.at > 100*sim.Millisecond {
			t.Fatalf("session %d arrives at %v under -flash", e.id, e.at)
		}
	}
}

// TestSoakArtifactsAcceptedByRundiff is the acceptance criterion: a soak
// run's artifact directory is consumed by internal/rundiff unchanged — the
// same engine that diffs sim runs — and a self-diff is clean.
func TestSoakArtifactsAcceptedByRundiff(t *testing.T) {
	dir := t.TempDir()
	cfg, err := runConfig{period: 20 * time.Millisecond, dur: 700 * time.Millisecond,
		dir: dir, drain: time.Second}.soak(40, true, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(cfg, newLifecycle(), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "soak summary: target=40") {
		t.Fatalf("missing summary line:\n%s", out.String())
	}
	for _, f := range []string{"stages.txt", "metrics.csv", "slo.txt", "incidents.txt", "metrics.prom"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("artifact %s missing: %v", f, err)
		}
	}
	rep, err := rundiff.DiffDirs(dir, dir, rundiff.Options{})
	if err != nil {
		t.Fatalf("rundiff rejected the soak artifact dir: %v", err)
	}
	if rep.Regression() {
		t.Fatalf("self-diff regressed:\n%s", rep.Table())
	}
	for _, want := range []string{"stages.txt", "metrics.csv", "slo.txt"} {
		found := false
		for _, c := range rep.Compared {
			if c == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s not compared (compared: %v)", want, rep.Compared)
		}
	}
	// The exposition snapshot must round-trip the same checker scrapes use.
	prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := telemetry.CheckPrometheus(string(prom)); err != nil {
		t.Fatalf("invalid exposition artifact: %v", err)
	}
}

// TestSoakGracefulShutdown interrupts a long soak mid-run: sessions drain
// inside the -drain bound instead of running out the full duration, the
// flight recorder dumps an "interrupted" incident into the artifact dir,
// and the summary still reports the partial run. (Clean closure of the
// -metrics listener is pinned separately by TestServeMetricsStopClosesListener;
// run shuts it down through the same stop func.)
func TestSoakGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	cfg, err := runConfig{period: 20 * time.Millisecond, dur: 30 * time.Second,
		dir: dir, drain: time.Second, metrics: "127.0.0.1:0"}.soak(60, false, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	lc := newLifecycle()
	time.AfterFunc(400*time.Millisecond, lc.trigger)
	var out strings.Builder
	start := time.Now()
	if err := run(cfg, lc, &out); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("soak ignored shutdown; ran %v of a 30s duration", el)
	}
	if !strings.Contains(out.String(), "interrupted") {
		t.Fatalf("no interruption report:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "soak summary:") {
		t.Fatalf("no summary for the partial run:\n%s", out.String())
	}
	inc, err := os.ReadFile(filepath.Join(dir, "incidents.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(inc), "interrupted") {
		t.Fatalf("incident dump missing the interruption:\n%s", inc)
	}
}

// A full wire-span table never blocks later pairs: filled with unpaired
// sent marks (frames the kernel lost), it still closes the next frame's
// span, and it never holds more than its bound.
func TestWireSpansFullTableKeepsPairing(t *testing.T) {
	o := newObs("dwcsd-soak", "")
	w := wireSpans{}
	for seq := int64(0); seq < wireMarksMax; seq++ {
		w.mark(o, 1, seq, sim.Time(seq), false)
	}
	if len(w) != wireMarksMax {
		t.Fatalf("%d marks after %d lost frames", len(w), wireMarksMax)
	}
	w.mark(o, 2, 7, 1000, false)
	if len(w) > wireMarksMax {
		t.Fatalf("%d marks, bound %d", len(w), wireMarksMax)
	}
	w.mark(o, 2, 7, 1500, true)
	spans := slices.Collect(o.reg.Spans.All())
	want := telemetry.Segment{Stream: 2, Seq: 7, Stage: telemetry.StageWire, Where: "dwcsd-soak", Start: 1000, End: 1500}
	if len(spans) != 1 || spans[0] != want {
		t.Fatalf("wire spans %+v, want exactly %+v", spans, want)
	}
}

// Soak's client side is the same receive half as -recv, so it counts the
// datagrams it cannot use.
func TestSoakReceiveHalfCountsMalformedDatagrams(t *testing.T) {
	cfg, err := runConfig{period: 20 * time.Millisecond, dur: time.Second}.soak(4, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := newObs(cfg.role, "")
	r, err := newRun(cfg, o, &vclock{}, io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := proto.FragmentFrame(1, 0, make([]byte, 300))[0]
	o.mu.Lock()
	r.ingest(d[:proto.MediaHeaderLen-1]) // cut inside the header
	r.ingest(d)
	o.mu.Unlock()
	if r.malformed.Value() != 1 || r.datagrams.Value() != 2 || r.received.Value() != 1 {
		t.Fatalf("malformed=%d datagrams=%d received=%d, want 1, 2, 1",
			r.malformed.Value(), r.datagrams.Value(), r.received.Value())
	}
}
