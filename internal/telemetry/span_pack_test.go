package telemetry

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// The rule Record implements, and the pinned baselines rely on: a segment
// that ends before it starts is dropped, a zero-length one is kept (the real
// daemon's tx hop can finish inside one clock reading), and a nil log
// swallows everything.
func TestSpanRecordKeepsZeroLengthDropsNegative(t *testing.T) {
	var seen int
	l := &SpanLog{Observer: func(Segment) { seen++ }}
	l.Record(Segment{Stream: 1, Stage: StageTx, Where: "x", Start: 7, End: 7})
	l.Record(Segment{Stream: 1, Stage: StageTx, Where: "x", Start: 7, End: 6})
	if l.Len() != 1 || seen != 1 {
		t.Fatalf("len=%d observed=%d, want the zero-length segment only", l.Len(), seen)
	}
	for seg := range l.All() {
		if seg.Start != 7 || seg.End != 7 || seg.Dur() != 0 {
			t.Fatalf("kept segment = %+v, want [7,7]", seg)
		}
	}
	if !strings.Contains(l.StageTable(), "tx               1") {
		t.Fatalf("zero-length segment missing from the stage table:\n%s", l.StageTable())
	}

	var nilLog *SpanLog
	nilLog.Record(Segment{Start: 1, End: 2})
	nilLog.RecordLink(SpanLink{})
	if nilLog.Len() != 0 {
		t.Fatal("nil log recorded")
	}
	for range nilLog.All() {
		t.Fatal("nil log iterated a segment")
	}
}

// Every value a caller can produce survives the packed record: a stream id
// as wide as the wire carries, the client side's epoch -1, zero-length
// spans, more site names than a card ever uses, and logs that end one short
// of, exactly on, and one past a chunk boundary. Iteration order is record
// order and the observer sees the very Segment that was recorded.
func TestSpanLogRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, spanChunk - 1, spanChunk, spanChunk + 1, 2*spanChunk + 3} {
		var want, observed []Segment
		l := &SpanLog{Observer: func(s Segment) { observed = append(observed, s) }}
		for i := 0; i < n; i++ {
			seg := Segment{
				Stream: i % 5,
				Seq:    int64(i) << 20,
				Epoch:  i%4 - 1, // -1, 0, 1, 2
				Stage:  Stage(i % int(numStages)),
				Where:  fmt.Sprintf("site%02d", i%11),
				Start:  sim.Time(i) * sim.Millisecond,
				End:    sim.Time(i)*sim.Millisecond + sim.Time(i%3), // every third is zero-length
			}
			switch i % 7 {
			case 3:
				seg.Stream = math.MaxUint32
			case 5:
				seg.Seq = math.MaxInt64
			}
			l.Record(seg)
			want = append(want, seg)
		}
		if l.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, l.Len())
		}
		var got []Segment
		for seg := range l.All() {
			got = append(got, seg)
		}
		if len(got) != n || len(observed) != n {
			t.Fatalf("n=%d: iterated %d, observed %d", n, len(got), len(observed))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: segment %d read back as %+v, recorded %+v", n, i, got[i], want[i])
			}
			if observed[i] != want[i] {
				t.Fatalf("n=%d: observer saw %+v, recorded %+v", n, observed[i], want[i])
			}
		}
		if n > 11 && len(l.wheres) != 11 {
			t.Fatalf("n=%d: interned %d site names, want 11", n, len(l.wheres))
		}
		// A stopped iteration stops.
		seen := 0
		for range l.All() {
			seen++
			break
		}
		if n > 0 && seen != 1 {
			t.Fatalf("n=%d: early exit visited %d", n, seen)
		}
	}
}

// Of is All filtered by stream: the same segments, Where and Epoch included,
// in the same order, across chunk boundaries. It builds nothing for a record
// it skips, so reading past every record of a long log costs what reading
// past one does.
func TestSpanLogOfIsAllFiltered(t *testing.T) {
	l := &SpanLog{}
	for i := range 2*spanChunk + 7 {
		l.Record(Segment{
			Stream: i % 9, Seq: int64(i), Epoch: i%3 - 1, Stage: Stage(i % int(numStages)),
			Where: fmt.Sprintf("ni%02d", i%5), Start: sim.Time(i), End: sim.Time(i + 2),
		})
	}
	for _, keep := range []func(int) bool{
		nil,
		func(int) bool { return false },
		func(s int) bool { return s == 4 },
		func(s int) bool { return s%3 == 1 },
	} {
		var want, got []Segment
		for seg := range l.All() {
			if keep == nil || keep(seg.Stream) {
				want = append(want, seg)
			}
		}
		for seg := range l.Of(keep) {
			got = append(got, seg)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Of yields %d segments, All filtered %d, or their order or fields differ", len(got), len(want))
		}
	}

	none := func(int) bool { return false }
	skipAll := func(l *SpanLog) float64 {
		return testing.AllocsPerRun(100, func() {
			for range l.Of(none) {
				t.Fatal("a rejected stream was yielded")
			}
		})
	}
	short := &SpanLog{}
	short.Record(Segment{Stream: 1, Where: "ni00", End: 1})
	if long, one := skipAll(l), skipAll(short); long != one {
		t.Errorf("skipping %d records allocates %v, skipping one %v", l.Len(), long, one)
	}
}

// StageTable's percentiles come from durations sorted once per stage, in
// whatever order the frames were recorded.
func TestStageTableQuantilesFromUnsortedDurations(t *testing.T) {
	l := &SpanLog{}
	for i, us := range []sim.Time{30, 10, 20, 50, 40} {
		l.Record(Segment{Stream: 1, Seq: int64(i), Stage: StageWire, Where: "c",
			Start: 0, End: us * sim.Microsecond})
	}
	// count total_ms mean p50 p95 max
	want := "wire             5         0.150        30.0        30.0        40.0        50.0"
	if table := l.StageTable(); !strings.Contains(table, want) {
		t.Fatalf("stage table missing %q:\n%s", want, table)
	}
}

// The record paths allocate nothing between chunk boundaries: Registry.Span
// with the fleet's hooks attached, and the profiler's per-charge callback.
func TestRecordPathsDoNotAllocate(t *testing.T) {
	reg := New()
	epochs := map[int]int{3: 2}
	reg.EpochOf = func(stream int) int { return epochs[stream] }
	var durs sim.Time
	reg.Spans.Observer = func(s Segment) { durs += s.Dur() }
	reg.Span(3, 0, StageQueue, "ni00/dwcs", 0, 1) // the first record allocates the chunk
	seq := int64(1)
	if n := testing.AllocsPerRun(spanChunk/4, func() { // stays inside the first chunk
		reg.Span(3, seq, StageQueue, "ni00/dwcs", sim.Time(seq), sim.Time(seq)+5)
		reg.Span(3, seq, StageDisk, "ni01", sim.Time(seq), sim.Time(seq)+9)
		seq++
	}); n != 0 {
		t.Errorf("Registry.Span allocates %v per frame, want 0", n)
	}

	prof := NewProfiler()
	contexts := [][2]string{{"dwcs", "decision"}, {"nic", "dispatch"}, {"dwcs", "enqueue"}, {"", ""}}
	for _, c := range contexts {
		prof.ObserveCycles(c[0], c[1], 1, 1)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		c := contexts[i%len(contexts)]
		prof.ObserveCycles(c[0], c[1], 2, 30)
		i++
	}); n != 0 {
		t.Errorf("Profiler.ObserveCycles allocates %v per call, want 0", n)
	}
	if got := prof.Cycles("unattributed", "other"); got == 0 || prof.Total() < got {
		t.Fatalf("profiler lost the no-context charges: %d of %d", got, prof.Total())
	}
}

var benchDurs sim.Time

// BenchmarkSpanRecord is Registry.Span as the fleet drives it: epoch hook
// and observer attached, three stages and site names per frame, a fresh
// registry every 64 Ki frames (one card's share of a long run) so the heap
// stays bounded.
func BenchmarkSpanRecord(b *testing.B) {
	var reg *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i&(1<<16-1) == 0 {
			reg = New()
			reg.EpochOf = func(int) int { return 1 }
			reg.Spans.Observer = func(s Segment) { benchDurs += s.Dur() }
		}
		at := sim.Time(i)
		reg.Span(i&127, int64(i), StageDisk, "ni01", at, at+9)
		reg.Span(i&127, int64(i), StageBus, "pci0", at+9, at+12)
		reg.Span(i&127, int64(i), StageQueue, "ni00/dwcs", at+12, at+40)
	}
}
