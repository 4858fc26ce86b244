package telemetry

import (
	"fmt"
	"math"
	"runtime"
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

// Every value a caller can produce survives the log: a stream id as wide as
// the wire carries, the client side's epoch -1, zero-length spans, more site
// names than a card ever uses, and logs of one record up to several chunks
// per lane. All yields lane by lane — streams in the order of their first
// segment, each in recording order — and the observer sees the very Segment
// that was recorded, in recording order.
func TestSpanLogRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 500, 5000} {
		var observed []Segment
		var order []int                 // streams by first segment
		byStream := map[int][]Segment{} // each stream's segments, recording order
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
			if _, ok := byStream[seg.Stream]; !ok {
				order = append(order, seg.Stream)
			}
			byStream[seg.Stream] = append(byStream[seg.Stream], seg)
			if observed[len(observed)-1] != seg {
				t.Fatalf("n=%d: observer saw %+v, recorded %+v", n, observed[len(observed)-1], seg)
			}
		}
		if l.Len() != n || len(observed) != n {
			t.Fatalf("n=%d: Len = %d, observed %d", n, l.Len(), len(observed))
		}
		var want []Segment
		for _, s := range order {
			want = append(want, byStream[s]...)
		}
		if got := slices.Collect(l.All()); !slices.Equal(got, want) {
			t.Fatalf("n=%d: All yields %d segments, want %d lane by lane in recording order", n, len(got), len(want))
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

// One lane round-trips every field through its delta encoding: epoch -1 and
// epoch changes, zero-length segments and durations past 2^32 ns, Where
// changing mid-lane, seq and start stepping backwards and across the whole
// int64 range, stages past the header's three bits, the stream ids 0 and
// 0xFFFFFFFF, and enough records to fill several chunks.
func TestSpanLaneRoundTrip(t *testing.T) {
	for _, stream := range []int{0, 1, laneDense - 1, laneDense, math.MaxUint32, -1} {
		l := &SpanLog{}
		var want []Segment
		rec := func(s Segment) {
			s.Stream = stream
			l.Record(s)
			want = append(want, s)
		}
		rec(Segment{Seq: 0, Epoch: -1, Stage: StagePlayout, Where: "c", Start: 0, End: 0})
		rec(Segment{Seq: 0, Epoch: -1, Stage: StageWire, Where: "c", Start: 5, End: 5 + 1<<33})
		rec(Segment{Seq: 3, Epoch: 0, Stage: StageDisk, Where: "ni00", Start: 4, End: 4})
		rec(Segment{Seq: 2, Epoch: 7, Stage: Stage(200), Where: "ni01", Start: -9, End: 1 << 40})
		rec(Segment{Seq: math.MaxInt64, Epoch: math.MinInt32, Stage: 7, Where: "", Start: math.MinInt64, End: math.MaxInt64})
		rec(Segment{Seq: math.MinInt64, Epoch: math.MaxInt64, Stage: StageQueue, Where: "ni00", Start: math.MaxInt64, End: math.MaxInt64})
		rec(Segment{Seq: 1, Epoch: 0, Stage: StageBus, Where: "ni00", Start: 0, End: 1<<32 + 1})
		for i := range 3000 {
			where := "ni00"
			if i%500 == 499 {
				where = fmt.Sprintf("ni%02d", i/500+1) // a new card mid-lane
			}
			epoch := i / 1000
			if i%3 == 2 {
				epoch = -1
			}
			rec(Segment{Seq: int64(i / 3), Epoch: epoch, Stage: Stage(i % 3), Where: where,
				Start: sim.Time(i) * 33 * sim.Millisecond, End: sim.Time(i)*33*sim.Millisecond + sim.Time(i%5)*sim.Second})
		}
		ln := &l.lanes[l.find(stream)]
		if len(l.lanes) != 1 || len(ln.full) < 3 {
			t.Fatalf("stream %d: %d lanes, %d sealed chunks; want one lane over several chunks", stream, len(l.lanes), len(ln.full))
		}
		if got := slices.Collect(l.All()); !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("stream %d: segment %d read back as %+v, recorded %+v", stream, i, got[i], want[i])
				}
			}
			t.Fatalf("stream %d: read back %d segments, recorded %d", stream, len(got), len(want))
		}
		if got := l.AppendStream(nil, stream); !slices.Equal(got, want) {
			t.Fatalf("stream %d: AppendStream differs from All", stream)
		}
		if got := l.AppendStream(nil, stream+1); got != nil {
			t.Fatalf("stream %d: AppendStream of an unrecorded stream yields %d segments", stream, len(got))
		}
	}
	// No wide id sizes the dense table.
	l := &SpanLog{}
	l.Record(Segment{Stream: math.MaxUint32, End: 1})
	l.Record(Segment{Stream: laneDense + 5, End: 1})
	if len(l.dense) != 0 || len(l.sparse) != 2 {
		t.Fatalf("wide ids: dense table %d entries, map %d; want 0 and 2", len(l.dense), len(l.sparse))
	}
	l.Record(Segment{Stream: laneDense - 1, End: 1})
	if len(l.dense) != laneDense {
		t.Fatalf("dense table grew to %d for id %d, want %d", len(l.dense), laneDense-1, laneDense)
	}
}

// Of yields exactly what All yields for the accepted streams, in the same
// order, and skipping every lane of a long log allocates no more than
// skipping a one-record log.
func TestSpanLogOfIsAllFiltered(t *testing.T) {
	l := &SpanLog{}
	for i := range 9*1500 + 7 {
		l.Record(Segment{
			Stream: i % 9, Seq: int64(i), Epoch: i%3 - 1, Stage: Stage(i % int(numStages)),
			Where: fmt.Sprintf("ni%02d", i%5), Start: sim.Time(i), End: sim.Time(i + 2),
		})
	}
	if len(l.lanes[0].full) == 0 {
		t.Fatalf("lane 0 sealed no chunk; the log should span several")
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

// A stream's records take a few bytes each, and a flood of streams seen a few
// times each costs no more per segment than a fixed 40-byte record would.
func TestSpanLaneBytes(t *testing.T) {
	l := &SpanLog{}
	for i := range 10000 {
		at := sim.Time(i) * 33 * sim.Millisecond
		l.Record(Segment{Stream: 4, Seq: int64(i), Stage: StageDisk, Where: "ni01", Start: at, End: at + 4*sim.Millisecond})
		l.Record(Segment{Stream: 4, Seq: int64(i), Stage: StageBus, Where: "pci0", Start: at + 4*sim.Millisecond, End: at + 4*sim.Millisecond + 37*sim.Microsecond})
	}
	used := len(l.lanes[0].head)
	for _, c := range l.lanes[0].full {
		used += len(c)
	}
	if per := float64(used) / float64(l.Len()); per > 12 {
		t.Errorf("%.1f bytes per stored segment, want <= 12", per)
	}

	const ids, each = 4096, 5
	flood := func() *SpanLog {
		l := &SpanLog{}
		for i := range ids * each {
			id := math.MaxUint32 - i%ids
			l.Record(Segment{Stream: id, Seq: int64(i / ids), Stage: StagePlayout, Where: "dwcsd",
				Start: sim.Time(i) * sim.Microsecond, End: sim.Time(i+3) * sim.Microsecond})
		}
		return l
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := flood()
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(after.HeapAlloc-before.HeapAlloc) / float64(ids*each)
	runtime.KeepAlive(kept)
	t.Logf("flood of %d ids x %d segments: %.1f live bytes per segment", ids, each, per)
	if per > 40 {
		t.Errorf("flood of %d ids x %d segments: %.1f live bytes per segment, want <= 40", ids, each, per)
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
	seq := int64(0)
	frame := func() {
		reg.Span(3, seq, StageQueue, "ni00/dwcs", sim.Time(seq), sim.Time(seq)+5)
		reg.Span(3, seq, StageDisk, "ni01", sim.Time(seq), sim.Time(seq)+9)
		seq++
	}
	// Fill the lane until it seals a chunk and starts a fresh full-size
	// head, which the measured frames below do not fill.
	for frame(); len(reg.Spans.lanes[0].full) == 0 || len(reg.Spans.lanes[0].head) > 64; {
		frame()
	}
	if n := testing.AllocsPerRun(100, frame); n != 0 {
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
