package main

import (
	"math"
	"time"
)

// paceErrors turns per-stream arrivals into per-frame pacing errors in ms.
// The daemon is an open loop: frame k of a stream is due at k·period plus a
// constant the bench cannot know (process start, eligibility lead). So per
// stream offset_k = arrival_k − seq_k·period, the smallest offset is taken
// as that stream's on-time reference, and a frame's error is how much later
// than the reference it ran. Keying by sequence number, not by arrival
// order, keeps a gap (dropped frames) from reading as lateness.
func paceErrors(arrivals map[uint32][]arrival, period time.Duration) []float64 {
	var errs []float64
	for _, as := range arrivals {
		best := time.Duration(math.MaxInt64)
		for _, a := range as {
			if off := a.at - time.Duration(a.seq)*period; off < best {
				best = off
			}
		}
		for _, a := range as {
			off := a.at - time.Duration(a.seq)*period
			errs = append(errs, float64(off-best)/float64(time.Millisecond))
		}
	}
	return errs
}

// burstDrains returns, for every sequence number at least two streams
// delivered, the time from the first to the last arrival of that round in
// ms: how long the daemon took to drain one period's burst.
func burstDrains(arrivals map[uint32][]arrival) []float64 {
	type window struct {
		first, last time.Duration
		n           int
	}
	rounds := map[uint32]*window{}
	for _, as := range arrivals {
		for _, a := range as {
			w := rounds[a.seq]
			if w == nil {
				rounds[a.seq] = &window{first: a.at, last: a.at, n: 1}
				continue
			}
			w.first, w.last, w.n = min(w.first, a.at), max(w.last, a.at), w.n+1
		}
	}
	var drains []float64
	for _, w := range rounds {
		if w.n >= 2 {
			drains = append(drains, float64(w.last-w.first)/float64(time.Millisecond))
		}
	}
	return drains
}
