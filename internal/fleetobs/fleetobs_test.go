package fleetobs

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestTimelineMergeOrder(t *testing.T) {
	tl := NewTimeline()
	tl.Add(TimelineEvent{At: 2 * sim.Second, Src: 3, SrcName: "ni03", Kind: "fault", Note: "late"})
	tl.Add(TimelineEvent{At: 1 * sim.Second, Src: 5, SrcName: "ni05", Kind: "ladder", Note: "b"})
	tl.Add(TimelineEvent{At: 1 * sim.Second, Src: SrcController, SrcName: "dvcm", Kind: "scrape-degrade", Note: "a"})
	tl.Add(TimelineEvent{At: 1 * sim.Second, Src: 5, SrcName: "ni05", Kind: "ladder", Note: "c"})

	got := tl.Events()
	want := []string{"a", "b", "c", "late"}
	for i, e := range got {
		if e.Note != want[i] {
			t.Fatalf("merge order: event %d note=%q want %q", i, e.Note, want[i])
		}
	}
	// Same-instant: controller sorts before cards; same-source ties keep
	// arrival order.
	if got[0].Src != SrcController {
		t.Fatalf("controller event should sort first at equal time")
	}

	out := tl.Render()
	if !strings.Contains(out, "4 event(s)") {
		t.Fatalf("render header: %q", out)
	}
	// Rendering twice is byte-identical (sort is stable and pure).
	if out != tl.Render() {
		t.Fatalf("render not deterministic")
	}
}

func TestRollupAggregation(t *testing.T) {
	cards := []CardStat{
		{Card: 0, Host: "h00", Switch: "sw0", Streams: 2, Health: HealthOK, GoodputMB: 1.5, Burn: 0.2, MemPct: 30, Rung: 0},
		{Card: 1, Host: "h00", Switch: "sw0", Streams: 2, Health: HealthBurning, GoodputMB: 1.0, Burn: 2.5, MemPct: 60, Breaches: 0, Rung: 1},
		{Card: 2, Host: "h01", Switch: "sw0", Streams: 2, Health: HealthOK, GoodputMB: 1.4, Burn: 0.1, MemPct: 25},
		{Card: 3, Host: "h01", Switch: "sw0", Dark: true},
	}
	out := RenderRollup(cards)
	for _, want := range []string{
		"ni00", "ni03", "h00", "h01", "sw0", "fleet",
		"burning", "dark",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rollup missing %q:\n%s", want, out)
		}
	}
	// Host h00 aggregates worst health and summed goodput of its two cards.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "h00") {
			if !strings.Contains(line, "burning") || !strings.Contains(line, "2.50") {
				t.Fatalf("h00 row aggregation wrong: %q", line)
			}
		}
		if strings.HasPrefix(line, "fleet  ") && !strings.Contains(line, "dark") {
			t.Fatalf("fleet health should be dark (worst member): %q", line)
		}
	}
}

func TestTopKOrdering(t *testing.T) {
	out := RenderTopK([]StreamPressure{
		{Stream: 1, Card: 0, ShortBurn: 0.1},
		{Stream: 2, Card: 1, ShortBurn: 3.0, Health: HealthBurning},
		{Stream: 3, Card: 2, ShortBurn: 3.0, LongBurn: 1.0, Health: HealthWarn},
	}, 2)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header+2 rows, got %d lines:\n%s", len(lines), out)
	}
	// g03 wins the short-burn tie on long burn; g01 is cut by k=2.
	if !strings.HasPrefix(lines[2], "g03") || !strings.HasPrefix(lines[3], "g02") {
		t.Fatalf("topk order wrong:\n%s", out)
	}
}

func seg(stream int, seq int64, epoch int, stage telemetry.Stage, where string, start sim.Time) telemetry.Segment {
	return telemetry.Segment{
		Stream: stream, Seq: seq, Epoch: epoch, Stage: stage, Where: where,
		Start: start, End: start + sim.Millisecond,
	}
}

// fullFrame returns all six stages of one frame.
func fullFrame(stream int, seq int64, epoch int, where string, start sim.Time) []telemetry.Segment {
	var out []telemetry.Segment
	for st := telemetry.StageDisk; st <= telemetry.StagePlayout; st++ {
		e := epoch
		if st >= telemetry.StageTx {
			e = -1 // client side never knows the placement
		}
		out = append(out, seg(stream, seq, e, st, where, start+sim.Time(st)*sim.Millisecond))
	}
	return out
}

func TestStitchLiveMigration(t *testing.T) {
	var segs []telemetry.Segment
	// Epoch 0 on ni00: seqs 0..4. Epoch 1 on ni01: seqs 5..9.
	for s := int64(0); s < 5; s++ {
		segs = append(segs, fullFrame(7, s, 0, "ni00", sim.Time(s)*100*sim.Millisecond)...)
	}
	for s := int64(5); s < 10; s++ {
		segs = append(segs, fullFrame(7, s, 1, "ni01", sim.Time(s)*100*sim.Millisecond)...)
	}
	links := []telemetry.SpanLink{{
		Stream: 7, FromEpoch: 0, ToEpoch: 1, FromWhere: "ni00", ToWhere: "ni01",
		Seq: 5, At: 450 * sim.Millisecond, Kind: LinkLive,
	}}
	st := Stitch(7, segs, links)
	if len(st.Epochs) != 2 {
		t.Fatalf("want 2 epochs, got %d", len(st.Epochs))
	}
	if !st.LiveMigrated() || !st.FullPath() {
		t.Fatalf("live migration with full spans expected")
	}
	e0, e1 := st.Epochs[0], st.Epochs[1]
	if e0.MinSeq != 0 || e0.MaxSeq != 4 || e1.MinSeq != 5 || e1.MaxSeq != 9 {
		t.Fatalf("seq ranges wrong: e0=[%d,%d] e1=[%d,%d]", e0.MinSeq, e0.MaxSeq, e1.MinSeq, e1.MaxSeq)
	}
	// Client-side (epoch -1) spans were attributed by the cursor: every
	// frame completed in exactly one epoch.
	if e0.Complete != 5 || e1.Complete != 5 {
		t.Fatalf("complete counts wrong: %d/%d", e0.Complete, e1.Complete)
	}
	out := st.Render()
	if !strings.Contains(out, "cursor contiguous") || !strings.Contains(out, "ni00") || !strings.Contains(out, "ni01") {
		t.Fatalf("render missing handoff annotation:\n%s", out)
	}
	if !strings.Contains(out, "full span: disk[") || !strings.Contains(out, "playout[") {
		t.Fatalf("render missing disk→playout frame trace:\n%s", out)
	}
}

// A handoff that aborts mid-migration must not invent a phantom epoch: all
// spans stay in epoch 0 and the abort is annotated.
func TestStitchAbortMidHandoff(t *testing.T) {
	var segs []telemetry.Segment
	for s := int64(0); s < 6; s++ {
		segs = append(segs, fullFrame(3, s, 0, "ni02", sim.Time(s)*100*sim.Millisecond)...)
	}
	links := []telemetry.SpanLink{{
		Stream: 3, FromEpoch: 0, ToEpoch: 0, FromWhere: "ni02", ToWhere: "?",
		Seq: 4, At: 350 * sim.Millisecond, Kind: LinkAbort,
	}}
	st := Stitch(3, segs, links)
	if len(st.Epochs) != 1 {
		t.Fatalf("abort must not advance the epoch: got %d epochs", len(st.Epochs))
	}
	if st.Epochs[0].MinSeq != 0 || st.Epochs[0].MaxSeq != 5 {
		t.Fatalf("all seqs stay in epoch 0: [%d,%d]", st.Epochs[0].MinSeq, st.Epochs[0].MaxSeq)
	}
	if st.Unassigned != 0 {
		t.Fatalf("no segment should be orphaned by an abort: %d", st.Unassigned)
	}
	if !strings.Contains(st.Render(), "handoff ABORT") {
		t.Fatalf("abort not annotated:\n%s", st.Render())
	}
}

// Cold migration restores a stale checkpoint: the cursor rewinds, seq
// ranges overlap, and the stitcher must mark the gap explicitly and assign
// overlapping client-side seqs by time, never presenting the epochs as one
// contiguous cursor space.
func TestStitchColdMigrationExplicitGap(t *testing.T) {
	var segs []telemetry.Segment
	// Old card served seqs 0..7, crashed at t=750ms. Checkpoint was at
	// seq 5, so the new card re-serves 5..9 starting at t=1.5s.
	for s := int64(0); s < 8; s++ {
		segs = append(segs, fullFrame(9, s, 0, "ni04", sim.Time(s)*90*sim.Millisecond)...)
	}
	for s := int64(5); s < 10; s++ {
		segs = append(segs, fullFrame(9, s, 1, "ni06", 1500*sim.Millisecond+sim.Time(s-5)*90*sim.Millisecond)...)
	}
	links := []telemetry.SpanLink{{
		Stream: 9, FromEpoch: 0, ToEpoch: 1, FromWhere: "ni04", ToWhere: "ni06",
		Seq: 5, At: 1500 * sim.Millisecond, Kind: LinkCold,
	}}
	st := Stitch(9, segs, links)
	if len(st.Epochs) != 2 {
		t.Fatalf("want 2 epochs, got %d", len(st.Epochs))
	}
	e0, e1 := st.Epochs[0], st.Epochs[1]
	// Seqs 5..7 exist in BOTH epochs (re-served after the rewind); the
	// client-side duplicates were separated by time, not cursor.
	if e0.MaxSeq != 7 || e1.MinSeq != 5 {
		t.Fatalf("cold rewind overlap lost: e0 max=%d e1 min=%d", e0.MaxSeq, e1.MinSeq)
	}
	if e0.Complete != 8 || e1.Complete != 5 {
		t.Fatalf("complete counts wrong: %d/%d", e0.Complete, e1.Complete)
	}
	out := st.Render()
	if !strings.Contains(out, "EPOCH GAP") {
		t.Fatalf("cold handoff must be an explicit gap:\n%s", out)
	}
	if strings.Contains(out, "cursor contiguous") {
		t.Fatalf("cold handoff must not claim contiguity:\n%s", out)
	}
}

// A dedup-replayed in-flight frame records its hops twice; the stitched
// trace must contain exactly one span per (epoch, seq, stage).
func TestStitchDedupReplayedFrame(t *testing.T) {
	var segs []telemetry.Segment
	segs = append(segs, fullFrame(2, 0, 0, "ni00", 0)...)
	segs = append(segs, fullFrame(2, 1, 1, "ni01", 200*sim.Millisecond)...)
	// The replayed frame's queue hop arrived twice (dvcmnet retry absorbed
	// by dedup, but both attempts recorded the span).
	dup := seg(2, 1, 1, telemetry.StageQueue, "ni01", 202*sim.Millisecond)
	segs = append(segs, dup, dup)
	links := []telemetry.SpanLink{{
		Stream: 2, FromEpoch: 0, ToEpoch: 1, FromWhere: "ni00", ToWhere: "ni01",
		Seq: 1, At: 150 * sim.Millisecond, Kind: LinkLive,
	}}
	st := Stitch(2, slices.Clone(segs), links) // Stitch reorders its input
	if st.Deduped != 2 {
		t.Fatalf("want 2 duplicate segments collapsed, got %d", st.Deduped)
	}
	if n := st.Epochs[1].PerStage[telemetry.StageQueue]; n != 1 {
		t.Fatalf("want exactly one stitched queue span for the replayed frame, got %d", n)
	}

	// The same (epoch, seq, stage) recorded at a second site is a different
	// hop, not a duplicate; its own repeat is.
	other := seg(2, 1, 1, telemetry.StageQueue, "ni02", 203*sim.Millisecond)
	st = Stitch(2, append(slices.Clone(segs), other, dup, other), links)
	if st.Deduped != 4 || st.Unassigned != 0 {
		t.Fatalf("two sites at one (epoch, seq, stage): deduped=%d unassigned=%d, want 4 and 0", st.Deduped, st.Unassigned)
	}
	if n := st.Epochs[1].PerStage[telemetry.StageQueue]; n != 2 {
		t.Fatalf("want one queue span per site, got %d", n)
	}

	// Sites that record one (seq, stage, start) keep their collect order
	// in the stitched frame, whatever their names.
	tied := slices.Clone(segs)
	want := []string{"ni01"}
	for i := 20; i > 4; i-- {
		where := fmt.Sprintf("ni%02d", i)
		tied = append(tied, seg(2, 1, 1, telemetry.StageQueue, where, 202*sim.Millisecond))
		want = append(want, where)
	}
	var got []string
	for _, s := range Stitch(2, tied, links).Epochs[1].FirstFull {
		if s.Stage == telemetry.StageQueue {
			got = append(got, s.Where)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("tied queue spans in order %v, want collect order %v", got, want)
	}
}

func TestStitchNoLinksSingleEpoch(t *testing.T) {
	segs := fullFrame(1, 0, 0, "ni00", 0)
	st := Stitch(1, segs, nil)
	if len(st.Epochs) != 1 || st.Epochs[0].Complete != 1 {
		t.Fatalf("unmigrated stream should stitch to one complete epoch: %+v", st.Epochs)
	}
	if st.LiveMigrated() {
		t.Fatalf("no links means no live migration")
	}
}
