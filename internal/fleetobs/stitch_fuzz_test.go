package fleetobs

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// choices reads a fuzz input as a stream of bounded choices; past its end
// every choice is 0.
type choices []byte

func (c *choices) next(n int) int {
	if len(*c) == 0 {
		return 0
	}
	v := int((*c)[0]) % n
	*c = (*c)[1:]
	return v
}

// spanPlan is one generated fleet's worth of span history: the segments each
// log recorded, in recording order (logs in collect order: a card's serving
// side, then its client side), and the handoff links.
type spanPlan struct {
	recorded [][]telemetry.Segment
	links    []telemetry.SpanLink
}

// genSpanPlan builds a plan from fuzz input: up to four cards, streams 1-3
// plus ids that never move (0 and 0xFFFFFFFF), live/cold/readd/abort links
// (some to epochs no segment reaches, some from the wrong epoch), serving
// segments stamped with an epoch that may lie past the last link, client
// segments with epoch -1, whole frames split over a card and a client
// side, stages past playout, segments that end before they start, exact
// duplicates and duplicates at other times.
func genSpanPlan(data []byte) spanPlan {
	c := choices(data)
	cards := 1 + c.next(4)
	p := spanPlan{recorded: make([][]telemetry.Segment, 2*cards)}
	kinds := []string{LinkLive, LinkCold, LinkReadd, LinkAbort}
	epochs := map[int]int{}
	for range c.next(7) {
		g := 1 + c.next(3)
		l := telemetry.SpanLink{
			Stream: g, FromEpoch: epochs[g], ToEpoch: epochs[g] + 1,
			FromWhere: fmt.Sprintf("ni%02d", c.next(cards)), ToWhere: fmt.Sprintf("ni%02d", c.next(cards)),
			Seq: int64(c.next(40)), At: sim.Time(c.next(64)) * 10 * sim.Millisecond, Kind: kinds[c.next(4)],
		}
		switch {
		case l.Kind == LinkAbort:
			l.ToEpoch = l.FromEpoch
		case c.next(8) == 0:
			l.ToEpoch += c.next(3) // skips an epoch
		}
		epochs[g] = l.ToEpoch
		p.links = append(p.links, l)
	}
	streams := []int{1, 2, 3, 1, 2, 3, 0, 0xFFFFFFFF}
	var last telemetry.Segment
	for n := 0; n < 400 && len(c) > 0; n++ {
		if c.next(4) == 0 {
			// A whole frame: its serving hops on one card, stamped, and
			// its client hops on another, unstamped.
			card, home := c.next(cards), c.next(cards)
			g, seq, epoch := 1+c.next(3), int64(c.next(40)), c.next(3)
			at := sim.Time(c.next(64)) * 10 * sim.Millisecond
			for st := telemetry.StageDisk; st <= telemetry.StagePlayout; st++ {
				log, e := 2*card, epoch
				if st >= telemetry.StageTx {
					log, e = 2*home+1, -1
				}
				s := telemetry.Segment{Stream: g, Seq: seq, Epoch: e, Stage: st,
					Where: fmt.Sprintf("ni%02d", card), Start: at, End: at + sim.Time(c.next(3))*sim.Millisecond}
				p.recorded[log] = append(p.recorded[log], s)
				at, last = s.End, s
			}
			continue
		}
		log := c.next(len(p.recorded))
		s := telemetry.Segment{
			Stream: streams[c.next(len(streams))],
			Seq:    int64(c.next(40)),
			Stage:  telemetry.Stage(c.next(7)),
			Where:  fmt.Sprintf("ni%02d", c.next(cards)),
			Start:  sim.Time(c.next(64))*10*sim.Millisecond + sim.Time(c.next(3)),
		}
		s.End = s.Start + sim.Time(c.next(8))*sim.Millisecond
		if log%2 == 1 {
			s.Epoch = -1 // the client side never knows the placement
		} else {
			s.Epoch = c.next(4) - c.next(2)
		}
		switch c.next(12) {
		case 0:
			s = last // an exact duplicate
		case 1:
			s.Stream, s.Seq, s.Stage, s.Where, s.Epoch = last.Stream, last.Seq, last.Stage, last.Where, last.Epoch
		case 2:
			s.End = s.Start - 1 // dropped at record time
		}
		last = s
		p.recorded[log] = append(p.recorded[log], s)
	}
	return p
}

// stitchRef is Stitch as it was before span lanes: one dedup map over all of
// the stream's segments and one slice per epoch.
func stitchRef(stream int, segs []telemetry.Segment, links []telemetry.SpanLink) *Stitched {
	st := &Stitched{Stream: stream}
	for _, l := range links {
		if l.Stream == stream {
			st.Links = append(st.Links, l)
		}
	}
	slices.SortStableFunc(st.Links, func(a, b telemetry.SpanLink) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.ToEpoch, b.ToEpoch))
	})
	commits := commitLinks(stream, links)
	type segKey struct {
		epoch int
		seq   int64
		stage telemetry.Stage
		where int
	}
	seen := make(map[segKey]struct{}, len(segs))
	var wheres []string
	byEpoch := make(map[int][]telemetry.Segment)
	maxEpoch := 0
	for _, l := range commits {
		if l.ToEpoch > maxEpoch {
			maxEpoch = l.ToEpoch
		}
	}
	for _, seg := range segs {
		if seg.Stream != stream || int(seg.Stage) >= stageCount {
			continue
		}
		e := assignEpoch(seg, commits)
		if e < 0 || e > maxEpoch {
			st.Unassigned++
			continue
		}
		w := slices.Index(wheres, seg.Where)
		if w < 0 {
			w, wheres = len(wheres), append(wheres, seg.Where)
		}
		k := segKey{e, seg.Seq, seg.Stage, w}
		if _, dup := seen[k]; dup {
			st.Deduped++
			continue
		}
		seen[k] = struct{}{}
		byEpoch[e] = append(byEpoch[e], seg)
	}
	for e := 0; e <= maxEpoch; e++ {
		es := EpochSummary{Epoch: e, MinSeq: -1, MaxSeq: -1}
		for _, l := range commits {
			if l.ToEpoch == e {
				es.Where = l.ToWhere
			}
			if l.FromEpoch == e && es.Where == "" {
				es.Where = l.FromWhere
			}
		}
		segs := byEpoch[e]
		slices.SortStableFunc(segs, func(a, b telemetry.Segment) int {
			return cmp.Or(cmp.Compare(a.Seq, b.Seq), cmp.Compare(a.Stage, b.Stage), cmp.Compare(a.Start, b.Start))
		})
		perSeq := make(map[int64]int)
		for _, s := range segs {
			if es.MinSeq < 0 || s.Seq < es.MinSeq {
				es.MinSeq = s.Seq
			}
			if s.Seq > es.MaxSeq {
				es.MaxSeq = s.Seq
			}
			if es.Start == 0 && es.End == 0 || s.Start < es.Start {
				es.Start = s.Start
			}
			if s.End > es.End {
				es.End = s.End
			}
			es.PerStage[s.Stage]++
			perSeq[s.Seq] |= 1 << s.Stage
		}
		full := int64(-1)
		all := 1<<stageCount - 1
		for seq, mask := range perSeq {
			if mask == all {
				es.Complete++
				if full < 0 || seq < full {
					full = seq
				}
			}
		}
		if full >= 0 {
			es.firstFullS = full
			for _, s := range segs {
				if s.Seq == full {
					es.FirstFull = append(es.FirstFull, s)
				}
			}
		}
		st.Epochs = append(st.Epochs, es)
	}
	return st
}

// stitchLogsRef is the fleet's collect as it was before span lanes: each
// log's records read in recording order and filtered by stream, card by
// card, then stitchRef.
func stitchLogsRef(p spanPlan) (string, int, []*Stitched) {
	if len(p.links) == 0 {
		return "no streams migrated; nothing to stitch\n", 0, nil
	}
	var moved []int
	for _, l := range p.links {
		moved = append(moved, l.Stream)
	}
	slices.Sort(moved)
	var b strings.Builder
	var out []*Stitched
	live := 0
	for _, g := range slices.Compact(moved) {
		var segs []telemetry.Segment
		for _, log := range p.recorded {
			for _, s := range log {
				if s.Stream == g && s.End >= s.Start {
					segs = append(segs, s)
				}
			}
		}
		st := stitchRef(g, segs, p.links)
		b.WriteString(st.Render())
		if st.LiveMigrated() && st.FullPath() {
			live++
		}
		out = append(out, st)
	}
	return b.String(), live, out
}

// FuzzSpanStitch holds the lane-reading collect and the map-free Stitch to
// the path they replaced: generated segment sets recorded into span logs and
// stitched by StitchLogs render byte for byte what the old collect and
// Stitch render, and Stitch over each stream's collected segments returns
// the same summary.
func FuzzSpanStitch(f *testing.F) {
	rng := rand.New(rand.NewSource(1960))
	for range 24 {
		seed := make([]byte, 64+rng.Intn(1200))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := genSpanPlan(data)
		logs := make([]*telemetry.SpanLog, len(p.recorded))
		for i, recs := range p.recorded {
			logs[i] = &telemetry.SpanLog{}
			for _, s := range recs {
				logs[i].Record(s)
			}
		}
		want, wantLive, ref := stitchLogsRef(p)
		got, gotLive := StitchLogs(logs, p.links)
		if got != want || gotLive != wantLive {
			t.Fatalf("StitchLogs (live=%d):\n%s\nwant (live=%d):\n%s", gotLive, got, wantLive, want)
		}
		for _, r := range ref {
			var segs []telemetry.Segment
			for _, log := range logs {
				segs = log.AppendStream(segs, r.Stream)
			}
			if st := Stitch(r.Stream, segs, p.links); !reflect.DeepEqual(st, r) {
				t.Fatalf("stream %d: Stitch = %+v, want %+v", r.Stream, st, r)
			}
		}
	})
}
