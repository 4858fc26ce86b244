// Package qos provides the analytical side of DWCS: minimum-bandwidth
// guarantees, utilization-based feasibility checks, and delay bounds
// derived from the window-constrained scheduling model the paper's
// scheduler implements (§3.1.2, and the DWCS analyses it cites).
//
// The key identities:
//
//   - A stream with period T and loss-tolerance x/y is guaranteed service
//     of at least (y−x) packets per window of y packet slots, so its
//     guaranteed fraction of its own requested rate is (y−x)/y and its
//     minimum bandwidth is S·8·(y−x)/(y·T) for frame size S.
//   - A stream set is feasible on one link of capacity C when the sum of
//     minimum bandwidths does not exceed C, and feasible on the scheduler
//     CPU when Σ (y−x)/y · (c/T) ≤ 1 for per-decision service time c —
//     the utilization test the cluster's admission control applies.
//   - In a feasible schedule, a packet of stream i waits at most
//     (x_i + 1) · T_i from eligibility to service (it can lose at most its
//     window's loss budget before the constraint forces service).
package qos

import (
	"errors"
	"fmt"

	"repro/internal/fixed"
	"repro/internal/sim"
)

// Stream describes one stream for analysis.
type Stream struct {
	Name       string
	Period     sim.Time   // T: inter-frame service spacing
	FrameBytes int64      // S: nominal frame size
	Loss       fixed.Frac // x/y window constraint
}

func (s Stream) validate() error {
	if s.Period <= 0 {
		return fmt.Errorf("qos: %s: period must be positive", s.Name)
	}
	if s.FrameBytes <= 0 {
		return fmt.Errorf("qos: %s: frame size must be positive", s.Name)
	}
	x, y := s.Loss.Num, s.Loss.Den
	if y == 0 {
		y = 1
	}
	if x < 0 || x > y {
		return fmt.Errorf("qos: %s: loss tolerance %v out of range", s.Name, s.Loss)
	}
	return nil
}

// window returns (x, y) with the zero value normalized to 0/1.
func (s Stream) window() (x, y int64) {
	x, y = s.Loss.Num, s.Loss.Den
	if y == 0 {
		y = 1
	}
	return
}

// RequestedBps is the stream's full requested bandwidth S·8/T.
func (s Stream) RequestedBps() float64 {
	return float64(s.FrameBytes*8) / s.Period.Seconds()
}

// GuaranteedFraction is (y−x)/y: the fraction of packets that must be
// serviced on time in every window.
func (s Stream) GuaranteedFraction() float64 {
	x, y := s.window()
	return float64(y-x) / float64(y)
}

// MinBandwidthBps is the stream's guaranteed minimum bandwidth.
func (s Stream) MinBandwidthBps() float64 {
	return s.RequestedBps() * s.GuaranteedFraction()
}

// MaxDelayBound is the longest a packet can wait from eligibility to
// service in a feasible schedule: the window can defer it past at most x
// loss slots plus its own slot.
func (s Stream) MaxDelayBound() sim.Time {
	x, _ := s.window()
	return sim.Time(x+1) * s.Period
}

// Report is the outcome of a feasibility analysis.
type Report struct {
	Streams []Stream

	// RequestedBps and GuaranteedBps aggregate the stream set.
	RequestedBps  float64
	GuaranteedBps float64
	// LinkUtilization is GuaranteedBps over capacity; CPUUtilization is
	// Σ (y−x)/y · c/T.
	LinkUtilization float64
	CPUUtilization  float64
	// Feasible means both utilizations are ≤ 1.
	Feasible bool
}

// ErrInfeasible is wrapped by Check when the set cannot be guaranteed.
var ErrInfeasible = errors.New("qos: stream set infeasible")

// Check analyses a stream set against a link of linkBps and a scheduler
// that needs perDecision CPU time per serviced frame. It returns the
// report, plus ErrInfeasible when a guarantee bound is exceeded.
func Check(streams []Stream, linkBps float64, perDecision sim.Time) (*Report, error) {
	r := &Report{Streams: streams}
	for _, s := range streams {
		if err := s.validate(); err != nil {
			return nil, err
		}
		r.RequestedBps += s.RequestedBps()
		r.GuaranteedBps += s.MinBandwidthBps()
		r.CPUUtilization += s.GuaranteedFraction() * perDecision.Seconds() / s.Period.Seconds()
	}
	if linkBps > 0 {
		r.LinkUtilization = r.GuaranteedBps / linkBps
	}
	r.Feasible = r.LinkUtilization <= 1 && r.CPUUtilization <= 1
	if !r.Feasible {
		return r, fmt.Errorf("%w: link %.2f, cpu %.2f", ErrInfeasible, r.LinkUtilization, r.CPUUtilization)
	}
	return r, nil
}

// String summarizes the report.
func (r *Report) String() string {
	verdict := "feasible"
	if !r.Feasible {
		verdict = "INFEASIBLE"
	}
	return fmt.Sprintf("qos: %d streams, requested %.0f bps, guaranteed %.0f bps, link %.1f%%, cpu %.1f%% — %s",
		len(r.Streams), r.RequestedBps, r.GuaranteedBps,
		100*r.LinkUtilization, 100*r.CPUUtilization, verdict)
}
