package telemetry

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// The quantile edge cases are pinned behavior, not incidental: the SLO
// monitor and the run-diff engine both consume StageTable output, so an
// empty log, a single sample, and the q=1.0 boundary must all render
// deterministically without panics.

func TestQuantileEdgeCases(t *testing.T) {
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty slice: got %v, want 0", got)
	}
	one := []sim.Time{42}
	for _, q := range []float64{-1, 0, 0.5, 0.95, 1.0, 2.0} {
		if got := quantile(one, q); got != 42 {
			t.Fatalf("single sample q=%v: got %v, want 42", q, got)
		}
	}
	ds := []sim.Time{10, 20, 30, 40, 50} // sorted, as aggregate hands them over
	if got := quantile(ds, 0); got != 10 {
		t.Fatalf("q=0: got %v, want min 10", got)
	}
	if got := quantile(ds, 1.0); got != 50 {
		t.Fatalf("q=1.0: got %v, want max 50", got)
	}
	if got := quantile(ds, 1.5); got != 50 {
		t.Fatalf("q>1 clamps: got %v, want 50", got)
	}
	if got := quantile(ds, -0.5); got != 10 {
		t.Fatalf("q<0 clamps: got %v, want 10", got)
	}
	if got := quantile(ds, 0.5); got != 30 {
		t.Fatalf("q=0.5: got %v, want 30", got)
	}
}

func TestStageTableEmptyLog(t *testing.T) {
	var l SpanLog
	table := l.StageTable()
	if !strings.Contains(table, "per-stage frame latency") {
		t.Fatalf("empty log table missing header:\n%s", table)
	}
	// Every stage renders an all-zero row; nothing panics, nothing is NaN.
	for st := Stage(0); st < numStages; st++ {
		if !strings.Contains(table, st.String()) {
			t.Fatalf("empty log table missing stage %v:\n%s", st, table)
		}
	}
	if strings.Contains(table, "NaN") {
		t.Fatalf("empty log table contains NaN:\n%s", table)
	}
	var nilLog *SpanLog
	if got := nilLog.StageTable(); !strings.Contains(got, "per-stage") {
		t.Fatalf("nil log StageTable: %q", got)
	}
}

func TestStageTableSingleSample(t *testing.T) {
	var l SpanLog
	l.Record(Segment{Stream: 1, Seq: 0, Stage: StageQueue, Where: "x",
		Start: 0, End: 7 * sim.Millisecond})
	table := l.StageTable()
	// One sample answers mean, p50, p95, and max identically.
	if !strings.Contains(table, "7000.0      7000.0      7000.0      7000.0") {
		t.Fatalf("single-sample row should repeat 7000 µs across mean/p50/p95/max:\n%s", table)
	}
}

func TestSpanLogObserverSeesAcceptedSegmentsOnly(t *testing.T) {
	var seen []Segment
	l := &SpanLog{Observer: func(s Segment) { seen = append(seen, s) }}
	l.Record(Segment{Stream: 1, Stage: StageDisk, Start: 10, End: 5}) // negative: rejected
	l.Record(Segment{Stream: 2, Stage: StageWire, Start: 5, End: 9})
	if len(seen) != 1 || seen[0].Stream != 2 {
		t.Fatalf("observer saw %v, want only the accepted stream-2 segment", seen)
	}
}

func TestRegistryOnSnapshotAndValuesText(t *testing.T) {
	r := New()
	r.Counter("a", "c", "").Add(3)
	r.Gauge("b", "g", "").Set(1.5)
	var at sim.Time
	var n int
	r.OnSnapshot = func(t sim.Time, values int) { at, n = t, values }
	r.Snapshot(7 * sim.Second)
	if at != 7*sim.Second || n != 2 {
		t.Fatalf("OnSnapshot got (%v, %d), want (7s, 2)", at, n)
	}
	want := "a.c 3\nb.g 1.5\n"
	if got := r.ValuesText(); got != want {
		t.Fatalf("ValuesText = %q, want %q", got, want)
	}
	var nilReg *Registry
	if nilReg.ValuesText() != "" {
		t.Fatal("nil registry ValuesText should be empty")
	}
}
