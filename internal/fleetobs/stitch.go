package fleetobs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Span-link kinds, matching what the migration controller records.
const (
	LinkLive  = "live"  // live migration: frame cursor preserved
	LinkCold  = "cold"  // cold restore from checkpoint: cursor may be stale
	LinkReadd = "readd" // fresh re-add: window and cursor restart
	LinkAbort = "abort" // handoff failed; the epoch did not advance
)

// stageCount covers disk..playout.
const stageCount = int(telemetry.StagePlayout) + 1

// EpochSummary is one placement's slice of a stitched stream trace.
type EpochSummary struct {
	Epoch      int
	Where      string // serving card, from the handoff links
	MinSeq     int64
	MaxSeq     int64
	Start      sim.Time
	End        sim.Time
	PerStage   [stageCount]int
	Complete   int // frames with a full disk→…→playout span inside this epoch
	FirstFull  []telemetry.Segment
	firstFullS int64
}

// Stitched is one stream's trace reassembled across every placement it
// lived on: per-epoch summaries joined by the explicit handoff links, plus
// the stitching bookkeeping (duplicates collapsed, segments that could not
// be attributed to any epoch).
type Stitched struct {
	Stream     int
	Epochs     []EpochSummary
	Links      []telemetry.SpanLink
	Deduped    int
	Unassigned int
}

// commitLinks returns the stream's epoch-advancing links sorted by target
// epoch (aborts excluded — they annotate, but no epoch exists after them).
func commitLinks(stream int, links []telemetry.SpanLink) []telemetry.SpanLink {
	var out []telemetry.SpanLink
	for _, l := range links {
		if l.Stream == stream && l.Kind != LinkAbort {
			out = append(out, l)
		}
	}
	slices.SortStableFunc(out, func(a, b telemetry.SpanLink) int { return cmp.Compare(a.ToEpoch, b.ToEpoch) })
	return out
}

// assignEpoch attributes one segment to an epoch. Segments stamped with an
// epoch at record time (the serving card knew its placement) are trusted.
// Unstamped segments (Epoch < 0: the client side of the wire, which never
// learns placements) are assigned by the handoff links: a live handoff
// preserves the frame cursor, so seq ≥ cursor proves the frame was served
// by the new placement even if it was still in flight when the link was
// recorded; cold restores and re-adds may rewind the cursor, so only the
// segment's start time against the import instant decides.
func assignEpoch(seg telemetry.Segment, commits []telemetry.SpanLink) int {
	if seg.Epoch >= 0 {
		return seg.Epoch
	}
	e := 0
	for _, l := range commits {
		matched := seg.Start >= l.At
		if l.Kind == LinkLive && seg.Seq >= l.Seq {
			matched = true
		}
		if !matched {
			break
		}
		e = l.ToEpoch
	}
	return e
}

// Stitch reassembles one stream's span history from segments gathered off
// every card's registry and the handoff links the migration controller
// recorded. Duplicate (epoch, seq, stage, where) segments — the dedup-replay
// path can legitimately record the same hop twice — collapse to one.
func Stitch(stream int, segs []telemetry.Segment, links []telemetry.SpanLink) *Stitched {
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

	// The dedupe key holds Where as an index into the few names seen, so
	// the set hashes no string.
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
		// Stable: two sites' segments with one (seq, stage, start) keep
		// their collect order.
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

// Render writes the stitched trace in its byte-stable artifact form: one
// block per epoch with seq range and per-stage counts, handoff links
// spelled out between them (cold and readd handoffs are explicit gaps —
// the cursor may have rewound, so the epochs are *not* presented as one
// contiguous seq space), and the first frame of each epoch that completed
// a full disk→wire→playout span traced hop by hop.
func (st *Stitched) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stitched trace gid=%02d: %d epoch(s), %d link(s), deduped=%d, unassigned=%d\n",
		st.Stream, len(st.Epochs), len(st.Links), st.Deduped, st.Unassigned)
	linksFrom := make(map[int][]telemetry.SpanLink)
	for _, l := range st.Links {
		linksFrom[l.FromEpoch] = append(linksFrom[l.FromEpoch], l)
	}
	for _, es := range st.Epochs {
		where := es.Where
		if where == "" {
			where = "?"
		}
		fmt.Fprintf(&b, "epoch %d on %s: seq %d..%d span %v..%v  disk=%d bus=%d queue=%d tx=%d wire=%d playout=%d complete=%d\n",
			es.Epoch, where, es.MinSeq, es.MaxSeq, es.Start, es.End,
			es.PerStage[telemetry.StageDisk], es.PerStage[telemetry.StageBus],
			es.PerStage[telemetry.StageQueue], es.PerStage[telemetry.StageTx],
			es.PerStage[telemetry.StageWire], es.PerStage[telemetry.StagePlayout],
			es.Complete)
		if len(es.FirstFull) > 0 {
			fmt.Fprintf(&b, "  frame seq=%d full span:", es.firstFullS)
			for _, s := range es.FirstFull {
				fmt.Fprintf(&b, " %s[%v+%v]", s.Stage, s.Start, s.Dur())
			}
			b.WriteString("\n")
		}
		for _, l := range linksFrom[es.Epoch] {
			switch l.Kind {
			case LinkAbort:
				fmt.Fprintf(&b, "  handoff ABORT %s→%s at %v cursor seq=%d (epoch unchanged)\n",
					l.FromWhere, l.ToWhere, l.At, l.Seq)
			case LinkLive:
				fmt.Fprintf(&b, "  handoff live %s→%s at %v cursor seq=%d (cursor contiguous)\n",
					l.FromWhere, l.ToWhere, l.At, l.Seq)
			default:
				fmt.Fprintf(&b, "  handoff %s %s→%s at %v cursor seq=%d (EPOCH GAP: cursor not contiguous)\n",
					l.Kind, l.FromWhere, l.ToWhere, l.At, l.Seq)
			}
		}
	}
	return b.String()
}

// LiveMigrated reports whether the stream completed at least one live
// handoff — the acceptance filter for which stream to feature in the
// stitched artifact.
func (st *Stitched) LiveMigrated() bool {
	for _, l := range st.Links {
		if l.Kind == LinkLive {
			return true
		}
	}
	return false
}

// FullPath reports whether any epoch recorded a complete disk→…→playout
// frame span.
func (st *Stitched) FullPath() bool {
	for _, es := range st.Epochs {
		if es.Complete > 0 {
			return true
		}
	}
	return false
}
