package telemetry

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Stage identifies one hop of a frame's end-to-end path (Figure 3's data
// paths, cut at the points the paper instruments).
type Stage uint8

// Frame path stages, in causal order.
const (
	// StageDisk is the filesystem read on the source card's spindle.
	StageDisk Stage = iota
	// StageBus is the PCI DMA hop from source card to scheduler card.
	StageBus
	// StageQueue is enqueue-to-dispatch inside DWCS (the queuing delay of
	// Figures 8 and 10).
	StageQueue
	// StageTx is the dispatch decision's hand-off through the protocol
	// stack until the first wire bit.
	StageTx
	// StageWire is serialization, switching, and propagation to the client.
	StageWire
	// StagePlayout is the client's receive stack before the player sees
	// the frame.
	StagePlayout
	numStages
)

var stageNames = [numStages]string{"disk", "bus", "queue", "tx", "wire", "playout"}

// String names the stage.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// Segment is one stage of one frame's span: stream and sequence identify
// the frame, Where the substrate instance, and [Start, End] the simulated
// interval spent in the stage. Epoch identifies which placement of the
// stream served the frame: it starts at 0 and increments every time the
// stream is re-placed (live migration, cold restore, fresh re-add), so
// spans recorded on the old and new card of a migration remain one
// stitchable identity instead of two unrelated histories. Epoch -1 marks a
// segment recorded by a substrate that does not know the serving placement
// (e.g. the client side of the wire); the stitcher assigns those by frame
// cursor.
type Segment struct {
	Stream int
	Seq    int64
	Epoch  int
	Stage  Stage
	Where  string
	Start  sim.Time
	End    sim.Time
}

// Dur returns the segment's duration.
func (s Segment) Dur() sim.Time { return s.End - s.Start }

// SpanLink is an explicit edge between two epochs of one stream's span
// history: the frame-cursor handoff of a migration. Seq is the cursor the
// new placement starts serving from; Kind records how the handoff happened
// ("live" preserves the cursor, "cold" restores a possibly stale
// checkpoint, "readd" restarts with a fresh window, "abort" means the
// handoff failed and the epoch did not advance).
type SpanLink struct {
	Stream    int
	FromEpoch int
	ToEpoch   int
	FromWhere string
	ToWhere   string
	Seq       int64
	At        sim.Time
	Kind      string
}

// spanChunk is how many records one storage chunk of a SpanLog holds: 40 KB,
// small enough that a short run's one chunk is cheap, large enough that a
// long run appends a chunk pointer a few times a second at most.
const spanChunk = 1024

// spanRec is a Segment as the log stores it: pointer-free, so the collector
// never scans span memory, with Where interned to an index into the log's
// name table. Stream, Seq and the times keep their full width; Epoch narrows
// to 32 bits (placements count migrations, and -1 round-trips).
type spanRec struct {
	start, end sim.Time
	seq        int64
	stream     int64
	epoch      int32
	where      uint16
	stage      Stage
}

// SpanLog accumulates span segments in fixed-size chunks of packed records:
// a full chunk is never copied or cleared again, and the first chunk is
// allocated by the first Record, so a log nothing records into costs nothing.
// Recording order is engine order, which is already deterministic; exports
// additionally sort canonically so two logs with the same segment set render
// identically. Read the segments back with All.
type SpanLog struct {
	chunks []*[spanChunk]spanRec
	n      int      // recorded segments; the last chunk holds n % spanChunk
	wheres []string // interned Segment.Where names, indexed by spanRec.where

	// Links are the recorded epoch-handoff edges, in engine order.
	Links []SpanLink

	// Observer, when set, sees every accepted segment as it is recorded —
	// the tap the flight recorder and SLO monitor listen on. It runs inside
	// Record, so it must be cheap and must not re-enter the log.
	Observer func(Segment)
}

// Record appends one segment. A segment that ends before it starts is
// dropped; a zero-length one (End == Start) is kept — the real daemon's tx
// hop can complete inside one clock reading, and it still counts as a frame
// that crossed the stage. Nil-safe.
func (l *SpanLog) Record(seg Segment) {
	if l == nil || seg.End < seg.Start {
		return
	}
	i := l.n % spanChunk
	if i == 0 {
		l.chunks = append(l.chunks, new([spanChunk]spanRec))
	}
	l.chunks[len(l.chunks)-1][i] = spanRec{
		start: seg.Start, end: seg.End, seq: seg.Seq, stream: int64(seg.Stream),
		epoch: int32(seg.Epoch), where: l.intern(seg.Where), stage: seg.Stage,
	}
	l.n++
	if l.Observer != nil {
		l.Observer(seg)
	}
}

// intern returns where's index in the log's name table, adding it on first
// sight. A log sees a handful of names (a card's own hops, the cards that
// served a client), so the table is scanned, newest first: consecutive
// records mostly repeat a recent name.
func (l *SpanLog) intern(where string) uint16 {
	for i := len(l.wheres) - 1; i >= 0; i-- {
		if l.wheres[i] == where {
			return uint16(i)
		}
	}
	if len(l.wheres) > math.MaxUint16 {
		panic("telemetry: more than 65536 distinct span sites in one log")
	}
	l.wheres = append(l.wheres, where)
	return uint16(len(l.wheres) - 1)
}

// All iterates the recorded segments in recording order.
func (l *SpanLog) All() iter.Seq[Segment] { return l.Of(nil) }

// Of iterates, in recording order, the segments of the streams keep accepts
// (every segment for a nil keep). It reads a record's stream before it
// builds a Segment, so a skipped record costs one call and no copy.
func (l *SpanLog) Of(keep func(stream int) bool) iter.Seq[Segment] {
	return func(yield func(Segment) bool) {
		if l == nil {
			return
		}
		left := l.n
		for _, c := range l.chunks {
			for i := range c[:min(left, spanChunk)] {
				r := &c[i]
				if keep != nil && !keep(int(r.stream)) {
					continue
				}
				if !yield(Segment{
					Stream: int(r.stream), Seq: r.seq, Epoch: int(r.epoch), Stage: r.stage,
					Where: l.wheres[r.where], Start: r.start, End: r.end,
				}) {
					return
				}
			}
			left -= spanChunk
		}
	}
}

// RecordLink appends one epoch-handoff edge. Nil-safe like Record.
func (l *SpanLog) RecordLink(link SpanLink) {
	if l == nil {
		return
	}
	l.Links = append(l.Links, link)
}

// Len reports recorded segments.
func (l *SpanLog) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// sorted returns the segments in canonical order: by start time, then
// stream, sequence, stage, instance, end.
func (l *SpanLog) sorted() []Segment {
	out := make([]Segment, 0, l.Len())
	for seg := range l.All() {
		out = append(out, seg)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Where != b.Where {
			return a.Where < b.Where
		}
		return a.End < b.End
	})
	return out
}

// stageAgg is the critical-path analyzer's accumulator for one stage. durs
// is sorted ascending once aggregate returns.
type stageAgg struct {
	count int64
	total sim.Time
	max   sim.Time
	durs  []sim.Time
}

func (l *SpanLog) aggregate() [numStages]stageAgg {
	var agg [numStages]stageAgg
	for seg := range l.All() {
		if int(seg.Stage) >= int(numStages) {
			continue
		}
		a := &agg[seg.Stage]
		d := seg.Dur()
		a.count++
		a.total += d
		if d > a.max {
			a.max = d
		}
		a.durs = append(a.durs, d)
	}
	for i := range agg {
		slices.Sort(agg[i].durs)
	}
	return agg
}

// quantile returns the q-quantile of ds, which must be sorted ascending. The
// edge cases are pinned, not incidental: an empty slice yields 0, a single
// sample answers every q, q ≤ 0 is the minimum, and q ≥ 1 is the maximum —
// the index is clamped so no floating-point rounding of q can step outside
// the slice.
func quantile(ds []sim.Time, q float64) sim.Time {
	if len(ds) == 0 {
		return 0
	}
	if q <= 0 {
		return ds[0]
	}
	if q >= 1 {
		return ds[len(ds)-1]
	}
	i := int(q * float64(len(ds)-1))
	if i < 0 {
		i = 0
	}
	if i > len(ds)-1 {
		i = len(ds) - 1
	}
	return ds[i]
}

// StageTable renders the critical-path analysis: one row per stage with
// count, total, mean, p50, p95, and max latency — the "where did the
// end-to-end latency go" table.
func (l *SpanLog) StageTable() string {
	agg := l.aggregate()
	var b strings.Builder
	b.WriteString("per-stage frame latency (simulated)\n")
	fmt.Fprintf(&b, "%-8s %9s %13s %11s %11s %11s %11s\n",
		"stage", "count", "total_ms", "mean_us", "p50_us", "p95_us", "max_us")
	for st := Stage(0); st < numStages; st++ {
		a := agg[st]
		if a.count == 0 {
			fmt.Fprintf(&b, "%-8s %9d %13.3f %11.1f %11.1f %11.1f %11.1f\n",
				st, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
			continue
		}
		mean := a.total / sim.Time(a.count)
		p50 := quantile(a.durs, 0.50)
		p95 := quantile(a.durs, 0.95)
		fmt.Fprintf(&b, "%-8s %9d %13.3f %11.1f %11.1f %11.1f %11.1f\n",
			st, a.count, a.total.Milliseconds(), mean.Microseconds(),
			p50.Microseconds(), p95.Microseconds(), a.max.Microseconds())
	}
	return b.String()
}

// Folded renders the span log in folded-stack format — one
// "frame;<stage>;<where> <µs>" line per distinct stack, sorted — directly
// consumable by flamegraph.pl and speedscope.
func (l *SpanLog) Folded() string {
	totals := make(map[string]int64)
	for seg := range l.All() {
		totals["frame;"+seg.Stage.String()+";"+seg.Where] += int64(seg.Dur() / sim.Microsecond)
	}
	keys := make([]string, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, totals[k])
	}
	return b.String()
}
