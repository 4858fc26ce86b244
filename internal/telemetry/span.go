package telemetry

import (
	"encoding/binary"
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

// A lane's storage: records go to a head chunk that starts at laneChunkMin
// bytes and doubles as it fills, up to laneChunkMax; a full head of that size
// is sealed, never copied or cleared again, and the next one starts at full
// size. So a stream recorded a few times costs tens of bytes, and a
// long-lived one seals a 4 KiB chunk every few hundred records.
const (
	laneChunkMin = 24
	laneChunkMax = 4 << 10
)

// laneDense bounds the stream ids whose lane is found through the log's dense
// table; any other id (a wire-supplied 0xFFFFFFFF, a negative one) goes
// through a map, so no id sizes the table past 16 KiB.
const laneDense = 1 << 12

// The header byte of a lane record. The fields that follow it, in this order:
// a stage byte when the header's stage bits are all ones; the seq delta as a
// zigzag varint when the header's seq code is recSeqWide (codes 0-2 are the
// delta itself); the start, less the previous record's end, as a zigzag
// varint (a frame's next stage mostly starts where its last one ended); the
// duration as a uvarint; the epoch as a zigzag varint when recEpoch is set;
// Where's index in the log's name table as a uvarint when recWhere is set.
// Epoch and Where are written only when they change, and a lane starts from
// seq 0, end 0, epoch 0 and no Where.
const (
	recStage    = 0x07 // the stage; all ones: a stage byte follows
	recEpoch    = 0x08
	recWhere    = 0x10
	recSeqShift = 5 // bits 5-6: the seq code
	recSeqWide  = 3
	recMax      = 1 + 1 + 4*binary.MaxVarintLen64 + binary.MaxVarintLen16 // longest record
)

// lane is one stream's segments in a SpanLog: delta-encoded records in
// chunks, and the values of the last record the next one is coded against.
type lane struct {
	stream int
	full   [][]byte // sealed chunks, oldest first
	head   []byte   // the chunk being filled
	seq    int64
	end    sim.Time
	epoch  int
	where  int32 // index into the log's name table; -1 before the first record
}

// put appends one encoded record to the head chunk, doubling the head or
// sealing it when the record does not fit.
func (ln *lane) put(rec []byte) {
	if len(ln.head)+len(rec) > cap(ln.head) {
		switch c := cap(ln.head); {
		case c >= laneChunkMax:
			ln.full = append(ln.full, ln.head)
			ln.head = make([]byte, 0, laneChunkMax)
		default:
			head := make([]byte, len(ln.head), max(min(2*c, laneChunkMax), laneChunkMin, len(ln.head)+len(rec)))
			copy(head, ln.head)
			ln.head = head
		}
	}
	ln.head = append(ln.head, rec...)
}

// each decodes the lane's records in order, stopping when yield returns
// false, and reports whether it ran to the end.
func (ln *lane) each(wheres []string, yield func(Segment) bool) bool {
	seg := Segment{Stream: ln.stream}
	for i := 0; i <= len(ln.full); i++ {
		c := ln.head
		if i < len(ln.full) {
			c = ln.full[i]
		}
		for len(c) > 0 {
			c = decode(c, &seg, wheres)
			if !yield(seg) {
				return false
			}
		}
	}
	return true
}

// decode reads the record at the head of b into seg, which holds the previous
// record's values, and returns the rest of b.
func decode(b []byte, seg *Segment, wheres []string) []byte {
	h := b[0]
	b = b[1:]
	seg.Stage = Stage(h & recStage)
	if seg.Stage == recStage {
		seg.Stage = Stage(b[0])
		b = b[1:]
	}
	if d := h >> recSeqShift & 3; d != recSeqWide {
		seg.Seq += int64(d)
	} else {
		v, n := binary.Varint(b)
		seg.Seq += v
		b = b[n:]
	}
	v, n := binary.Varint(b)
	seg.Start = seg.End + sim.Time(v)
	b = b[n:]
	u, n := binary.Uvarint(b)
	seg.End = seg.Start + sim.Time(u)
	b = b[n:]
	if h&recEpoch != 0 {
		v, n := binary.Varint(b)
		seg.Epoch = int(v)
		b = b[n:]
	}
	if h&recWhere != 0 {
		u, n := binary.Uvarint(b)
		seg.Where = wheres[u]
		b = b[n:]
	}
	return b
}

// SpanLog accumulates span segments in one lane per stream: each lane holds
// its stream's segments in recording order as delta-encoded records of about
// 8 bytes (a header byte and varints; see recStage), in chunks that grow
// geometrically. A log nothing records into costs nothing. Recording order is
// engine order, which is already deterministic; exports additionally sort
// canonically so two logs with the same segment set render identically.
// Read the segments back with All, Of or AppendStream.
type SpanLog struct {
	lanes  []lane        // in order of each stream's first segment
	dense  []int32       // stream id → lanes index + 1, for ids below laneDense
	sparse map[int]int32 // stream id → lanes index, for every other id
	n      int           // recorded segments
	wheres []string      // interned Segment.Where names

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
	i := l.find(seg.Stream)
	if i < 0 {
		i = l.open(seg.Stream)
	}
	ln := &l.lanes[i]
	var rec [recMax]byte
	h, n := byte(seg.Stage), 1
	if seg.Stage >= recStage {
		h = recStage
		rec[n] = byte(seg.Stage)
		n++
	}
	if d := seg.Seq - ln.seq; uint64(d) < recSeqWide {
		h |= byte(d) << recSeqShift
	} else {
		h |= recSeqWide << recSeqShift
		n += binary.PutVarint(rec[n:], d)
	}
	n += binary.PutVarint(rec[n:], int64(seg.Start-ln.end))
	n += binary.PutUvarint(rec[n:], uint64(seg.End-seg.Start))
	if seg.Epoch != ln.epoch {
		h |= recEpoch
		n += binary.PutVarint(rec[n:], int64(seg.Epoch))
	}
	if ln.where < 0 || l.wheres[ln.where] != seg.Where {
		h |= recWhere
		ln.where = int32(l.intern(seg.Where))
		n += binary.PutUvarint(rec[n:], uint64(ln.where))
	}
	rec[0] = h
	ln.put(rec[:n])
	ln.seq, ln.end, ln.epoch = seg.Seq, seg.End, seg.Epoch
	l.n++
	if l.Observer != nil {
		l.Observer(seg)
	}
}

// open adds stream's lane, on the stream's first segment, and returns its
// index.
func (l *SpanLog) open(stream int) int {
	i := len(l.lanes)
	l.lanes = append(l.lanes, lane{stream: stream, where: -1})
	if uint(stream) < laneDense {
		if stream >= len(l.dense) {
			n := min(max(2*len(l.dense), stream+1, 16), laneDense)
			l.dense = append(l.dense, make([]int32, n-len(l.dense))...)
		}
		l.dense[stream] = int32(i + 1)
	} else {
		if l.sparse == nil {
			l.sparse = make(map[int]int32)
		}
		l.sparse[stream] = int32(i)
	}
	return i
}

// find returns the index of stream's lane, or -1 if it has none.
func (l *SpanLog) find(stream int) int {
	if uint(stream) < laneDense {
		if stream < len(l.dense) {
			return int(l.dense[stream]) - 1
		}
		return -1
	}
	if i, ok := l.sparse[stream]; ok {
		return int(i)
	}
	return -1
}

// intern returns where's index in the log's name table, adding it on first
// sight. A log sees a handful of names (a card's own hops, the cards that
// served a client), so the table is scanned, newest first; Record asks only
// when a lane's Where changes.
func (l *SpanLog) intern(where string) int {
	for i := len(l.wheres) - 1; i >= 0; i-- {
		if l.wheres[i] == where {
			return i
		}
	}
	if len(l.wheres) > math.MaxUint16 {
		panic("telemetry: more than 65536 distinct span sites in one log")
	}
	l.wheres = append(l.wheres, where)
	return len(l.wheres) - 1
}

// All iterates the recorded segments lane by lane: streams in the order of
// their first segment, each stream's segments in recording order.
func (l *SpanLog) All() iter.Seq[Segment] { return l.Of(nil) }

// Of iterates, lane by lane as All does, the segments of the streams keep
// accepts (every segment for a nil keep). keep is asked once per lane, so a
// skipped stream costs one call and no decoding.
func (l *SpanLog) Of(keep func(stream int) bool) iter.Seq[Segment] {
	return func(yield func(Segment) bool) {
		if l == nil {
			return
		}
		for i := range l.lanes {
			ln := &l.lanes[i]
			if keep != nil && !keep(ln.stream) {
				continue
			}
			if !ln.each(l.wheres, yield) {
				return
			}
		}
	}
}

// AppendStream appends stream's segments to dst in recording order and
// returns the extended slice. It decodes that stream's lane alone.
func (l *SpanLog) AppendStream(dst []Segment, stream int) []Segment {
	if l == nil {
		return dst
	}
	i := l.find(stream)
	if i < 0 {
		return dst
	}
	l.lanes[i].each(l.wheres, func(seg Segment) bool {
		dst = append(dst, seg)
		return true
	})
	return dst
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
