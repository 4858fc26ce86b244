package dwcs

import (
	"testing"

	"repro/internal/fixed"
	"repro/internal/mpeg"
	"repro/internal/sim"
)

// A window constraint x/y guarantees a stream (y-x)/y of its frames: on an
// overloaded link each stream still gets at least its guaranteed fraction.
func TestGuaranteeHoldsUnderOverload(t *testing.T) {
	clock := sim.Time(0)
	// Packets are eligible for their whole period (EligibleEarly = T), so
	// the scheduler may serve each one any time before its deadline.
	sched := New(Config{
		WorkConserving: false,
		EligibleEarly:  10 * sim.Millisecond,
		Now:            func() sim.Time { return clock },
	})
	specs := []StreamSpec{
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
				if err := sched.Enqueue(sp.ID, Packet{Bytes: 1000}); err != nil {
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

// TestLayeredMPEGProtectsReferenceFrames maps a clip's I/P/B frames onto
// three DWCS streams with decreasing protection and overloads the service:
// under DWCS's window constraints the B layer absorbs the losses, the P
// layer loses at most its tolerance, and the I layer loses nothing.
func TestLayeredMPEGProtectsReferenceFrames(t *testing.T) {
	clip := mpeg.GenerateDefault()
	iFrames, pFrames, bFrames := clip.ByType()
	if len(iFrames) == 0 || len(pFrames) == 0 || len(bFrames) == 0 {
		t.Fatal("clip missing frame types")
	}

	clk := &testClock{}
	// Paced with a full period of eligibility, like TestGuaranteeHoldsUnderOverload.
	T := 10 * sim.Millisecond
	s := New(Config{EligibleEarly: T, Now: clk.Now})
	layers := []struct {
		id     int
		frames []mpeg.Frame
		loss   fixed.Frac
		lossy  bool
	}{
		{1, iFrames, fixed.New(0, 1), false}, // I: never lose, never drop
		{2, pFrames, fixed.New(1, 4), true},  // P: ≤1 of 4
		{3, bFrames, fixed.New(1, 2), true},  // B: ≤1 of 2
	}
	for _, l := range layers {
		mustAdd(t, s, StreamSpec{ID: l.id, Period: T, Loss: l.loss, Lossy: l.lossy, BufCap: 256})
	}

	// Keep all three layers backlogged; service one packet per 4 ms
	// (250/s) against 300/s demand — a 1.2× overload that stays above the
	// layers' guaranteed minimum of 225/s (I:100% + P:75% + B:50%), so the
	// window constraints are feasible and must hold.
	cursor := map[int]int{1: 0, 2: 0, 3: 0}
	for clk.now < 20*sim.Second {
		for _, l := range layers {
			for s.QueueLen(l.id) < 4 && cursor[l.id] < 1<<30 {
				f := l.frames[cursor[l.id]%len(l.frames)]
				if s.Enqueue(l.id, Packet{Bytes: f.Size, Offset: f.Offset}) != nil {
					break
				}
				cursor[l.id]++
			}
		}
		s.Schedule()
		clk.now += 4 * sim.Millisecond
	}

	iStats, _ := s.Stats(1)
	pStats, _ := s.Stats(2)
	bStats, _ := s.Stats(3)
	if iStats.Dropped != 0 {
		t.Fatalf("I layer dropped %d frames", iStats.Dropped)
	}
	frac := func(st StreamStats) float64 {
		tot := st.Serviced + st.Dropped
		if tot == 0 {
			return 0
		}
		return float64(st.Dropped) / float64(tot)
	}
	fp, fb := frac(pStats), frac(bStats)
	if fb <= fp {
		t.Fatalf("B layer (%.2f) must absorb more loss than P (%.2f)", fb, fp)
	}
	// Window guarantees: P loses at most ~1/4, B at most ~1/2 (small slack
	// for window boundaries).
	if fp > 0.30 {
		t.Fatalf("P layer loss %.2f exceeds its 1/4 tolerance", fp)
	}
	if fb > 0.55 {
		t.Fatalf("B layer loss %.2f exceeds its 1/2 tolerance", fb)
	}
	// I frames were serviced (late is allowed; lost is not).
	if iStats.Serviced == 0 {
		t.Fatal("I layer starved")
	}
}
