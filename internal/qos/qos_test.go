package qos

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/sim"
)

func s1() Stream {
	return Stream{Name: "s1", Period: 160 * sim.Millisecond, FrameBytes: 5000,
		Loss: fixed.New(1, 2)}
}

func TestStreamArithmetic(t *testing.T) {
	s := s1()
	// 5000 B × 8 / 0.16 s = 250 kbps requested.
	if got := s.RequestedBps(); math.Abs(got-250000) > 1 {
		t.Errorf("requested = %v", got)
	}
	if got := s.GuaranteedFraction(); got != 0.5 {
		t.Errorf("fraction = %v", got)
	}
	if got := s.MinBandwidthBps(); math.Abs(got-125000) > 1 {
		t.Errorf("min bw = %v", got)
	}
	// x=1 → at most (1+1)·T wait.
	if got := s.MaxDelayBound(); got != 320*sim.Millisecond {
		t.Errorf("delay bound = %v", got)
	}
}

func TestZeroLossStream(t *testing.T) {
	s := s1()
	s.Loss = fixed.New(0, 1)
	if s.GuaranteedFraction() != 1 {
		t.Error("zero-loss stream must be fully guaranteed")
	}
	if s.MaxDelayBound() != s.Period {
		t.Errorf("delay bound = %v, want one period", s.MaxDelayBound())
	}
	var zero Stream
	zero.Period = sim.Second
	zero.FrameBytes = 100
	if zero.GuaranteedFraction() != 1 { // zero Frac = 0/1
		t.Error("zero-value loss must mean no losses allowed")
	}
}

func TestCheckFeasible(t *testing.T) {
	streams := []Stream{s1(), s1(), s1()}
	rep, err := Check(streams, 100e6, 925*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible {
		t.Fatal("3×250kbps on 100 Mbps must be feasible")
	}
	if rep.LinkUtilization > 0.01 {
		t.Errorf("link util = %v", rep.LinkUtilization)
	}
	if !strings.Contains(rep.String(), "feasible") {
		t.Errorf("report: %s", rep)
	}
}

func TestCheckInfeasibleLink(t *testing.T) {
	// 500 × 250 kbps guaranteed-half streams = 62.5 Mbps guaranteed; on a
	// 10 Mbps link that is infeasible.
	streams := make([]Stream, 500)
	for i := range streams {
		streams[i] = s1()
	}
	rep, err := Check(streams, 10e6, sim.Microsecond)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
	if rep.Feasible || rep.LinkUtilization <= 1 {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.String(), "INFEASIBLE") {
		t.Errorf("report: %s", rep)
	}
}

func TestCheckInfeasibleCPU(t *testing.T) {
	// 1000 streams at 10 ms periods with 100 µs decisions: CPU util = 10.
	streams := make([]Stream, 1000)
	for i := range streams {
		streams[i] = Stream{Name: "f", Period: 10 * sim.Millisecond, FrameBytes: 100,
			Loss: fixed.New(0, 1)}
	}
	_, err := Check(streams, 1e12, 100*sim.Microsecond)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckValidation(t *testing.T) {
	bad := []Stream{
		{Name: "p", Period: 0, FrameBytes: 1},
		{Name: "f", Period: 1, FrameBytes: 0},
		{Name: "l", Period: 1, FrameBytes: 1, Loss: fixed.New(3, 2)},
	}
	for _, s := range bad {
		if _, err := Check([]Stream{s}, 1e6, sim.Microsecond); err == nil {
			t.Errorf("stream %s should fail validation", s.Name)
		}
	}
}

// The analytical minimum-bandwidth guarantee must hold on the real
// scheduler: an overloaded link still delivers each stream at least its
// guaranteed fraction.
func TestGuaranteeHoldsUnderOverload(t *testing.T) {
	clock := sim.Time(0)
	// Packets are eligible for their whole period (EligibleEarly = T), so
	// the scheduler may serve each one any time before its deadline.
	sched := dwcs.New(dwcs.Config{
		WorkConserving: false,
		EligibleEarly:  10 * sim.Millisecond,
		Now:            func() sim.Time { return clock },
	})
	specs := []dwcs.StreamSpec{
		{ID: 1, Name: "tight", Period: 10 * sim.Millisecond, Loss: fixed.New(1, 4), Lossy: true, BufCap: 256},
		{ID: 2, Name: "loose", Period: 10 * sim.Millisecond, Loss: fixed.New(3, 4), Lossy: true, BufCap: 256},
	}
	for _, sp := range specs {
		if err := sched.AddStream(sp); err != nil {
			t.Fatal(err)
		}
	}
	// Both streams stay backlogged; the "link" only services one packet
	// per 8 ms — 125 packets/s against 200/s requested, a 1.6× overload.
	for clock < 10*sim.Second {
		for _, sp := range specs {
			for sched.QueueLen(sp.ID) < 4 {
				if err := sched.Enqueue(sp.ID, dwcs.Packet{Bytes: 1000}); err != nil {
					break
				}
			}
		}
		sched.Schedule()
		clock += 8 * sim.Millisecond
	}
	tight, _ := sched.Stats(1)
	loose, _ := sched.Stats(2)
	// The tight stream (guaranteed 3/4) must achieve a higher service
	// fraction than the loose one (guaranteed 1/4).
	fTight := float64(tight.Serviced) / float64(tight.Serviced+tight.Dropped)
	fLoose := float64(loose.Serviced) / float64(loose.Serviced+loose.Dropped)
	if fTight <= fLoose {
		t.Fatalf("tight=%.2f loose=%.2f: window constraints not honored", fTight, fLoose)
	}
	if fTight < 0.70 {
		t.Fatalf("tight stream served %.2f, want ≥ its 0.75 guarantee (within slack)", fTight)
	}
}

// Property: guaranteed bandwidth never exceeds requested, and scales
// linearly in frame size.
func TestBandwidthProperties(t *testing.T) {
	f := func(x8, y8 uint8, size uint16, periodMs uint8) bool {
		y := int64(y8)%16 + 1
		x := int64(x8) % (y + 1)
		s := Stream{
			Name:       "p",
			Period:     sim.Time(periodMs%100+1) * sim.Millisecond,
			FrameBytes: int64(size) + 1,
			Loss:       fixed.New(x, y),
		}
		if s.MinBandwidthBps() > s.RequestedBps()+1e-9 {
			return false
		}
		double := s
		double.FrameBytes *= 2
		return math.Abs(double.MinBandwidthBps()-2*s.MinBandwidthBps()) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
