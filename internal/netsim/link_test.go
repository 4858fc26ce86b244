package netsim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// A burst of sends queues behind the transmitter and is delivered in send
// order, one wire time apart.
func TestLinkIsFIFOUnderABurst(t *testing.T) {
	eng := sim.NewEngine(1)
	var got []int64
	l := Fast100(eng, "eth0", PortFunc(func(p *Packet) { got = append(got, p.Seq) }))
	for i := 0; i < 50; i++ {
		l.Send(&Packet{Seq: int64(i), Bytes: int64(100 + 37*(i%5))}, nil)
	}
	eng.Run()
	if len(got) != 50 {
		t.Fatalf("delivered %d of 50", len(got))
	}
	for i, seq := range got {
		if seq != int64(i) {
			t.Fatalf("delivery %d carried seq %d: %v", i, seq, got)
		}
	}
}

// When a transmission ends, the next queued one is already on the wire by
// the time the finished one's onWire runs; each delivery follows its own
// transmission by the propagation delay.
func TestLinkStartsNextTransmissionBeforeOnWire(t *testing.T) {
	eng := sim.NewEngine(1)
	var log strings.Builder
	l := Fast100(eng, "eth0", PortFunc(func(p *Packet) {
		fmt.Fprintf(&log, "%d deliver %d\n", eng.Now(), p.Seq)
	}))
	for i := 0; i < 3; i++ {
		seq := i
		l.Send(&Packet{Seq: int64(i), Bytes: 1000}, func() {
			fmt.Fprintf(&log, "%d onWire %d packets=%d busy=%v\n", eng.Now(), seq, l.Packets, l.busy)
		})
	}
	eng.Run()
	w, prop := l.WireTime(1000), 2*sim.Microsecond
	want := fmt.Sprintf(`%d onWire 0 packets=2 busy=true
%d deliver 0
%d onWire 1 packets=3 busy=true
%d deliver 1
%d onWire 2 packets=3 busy=false
%d deliver 2
`, w, w+prop, 2*w, 2*w+prop, 3*w, 3*w+prop)
	if log.String() != want {
		t.Errorf("event order:\n%s--- want\n%s", log.String(), want)
	}
}

// A lost packet — every DropEvery-th, or any while the link is down — still
// holds the transmitter for its wire time and is never delivered.
func TestLinkLossBurnsWireTimeAndDeliversNothing(t *testing.T) {
	for _, c := range []struct {
		name      string
		set       func(l *Link)
		delivered string
	}{
		{"DropEvery", func(l *Link) { l.DropEvery = 2 }, "0 2"},
		{"SetDown", func(l *Link) { l.SetDown(true) }, ""},
	} {
		eng := sim.NewEngine(1)
		var got []string
		l := Fast100(eng, "eth0", PortFunc(func(p *Packet) { got = append(got, fmt.Sprint(p.Seq)) }))
		c.set(l)
		var freed []sim.Time
		for i := 0; i < 4; i++ {
			l.Send(&Packet{Seq: int64(i), Bytes: 1000}, func() { freed = append(freed, eng.Now()) })
		}
		eng.Run()
		if s := strings.Join(got, " "); s != c.delivered {
			t.Errorf("%s: delivered %q, want %q", c.name, s, c.delivered)
		}
		w := l.WireTime(1000)
		for i, at := range freed {
			if at != sim.Time(i+1)*w {
				t.Errorf("%s: transmitter free #%d at %v, want %v", c.name, i, at, sim.Time(i+1)*w)
			}
		}
		if len(freed) != 4 || l.Packets != 4 || l.Dropped != int64(4-len(got)) {
			t.Errorf("%s: %d onWire, packets=%d dropped=%d", c.name, len(freed), l.Packets, l.Dropped)
		}
	}
}

// Utilization is the fraction of [0, now] the transmitter was busy: the
// definition sim.Resource gives a holder that keeps it for each wire time.
// A resource driven by the same script is the reference.
func TestLinkUtilizationMatchesResourceDefinition(t *testing.T) {
	eng := sim.NewEngine(1)
	l := Fast100(eng, "eth0", nil)
	ref := sim.NewResource(eng, "ref")
	send := func(n int64) {
		l.Send(&Packet{Bytes: n}, nil)
		ref.Use(l.WireTime(n), nil)
	}
	for _, s := range []struct {
		at    sim.Time
		bytes []int64
	}{
		{0, []int64{1000, 64, 1500}},
		{700 * sim.Microsecond, []int64{9000}},
		{705 * sim.Microsecond, []int64{200}},
		{3 * sim.Millisecond, []int64{1}},
	} {
		s := s
		eng.At(s.at, func() {
			for _, n := range s.bytes {
				send(n)
			}
		})
	}
	if l.Utilization() != 0 {
		t.Fatalf("utilization %v at time zero", l.Utilization())
	}
	samples := 0
	eng.Every(7*sim.Microsecond, func() {
		samples++
		if got, want := l.Utilization(), ref.Utilization(); got != want {
			t.Fatalf("at %v: utilization %v, reference %v", eng.Now(), got, want)
		}
	})
	eng.RunUntil(5 * sim.Millisecond)
	if samples < 700 || l.Utilization() == 0 || l.Utilization() >= 1 {
		t.Fatalf("%d samples, final utilization %v", samples, l.Utilization())
	}
}

// A steady-state transmission with no onWire callback allocates nothing.
func TestLinkSendDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine(1)
	delivered := 0
	l := Fast100(eng, "eth0", PortFunc(func(*Packet) { delivered++ }))
	p := &Packet{Bytes: 1000}
	step := l.WireTime(p.Bytes) + 2*sim.Microsecond
	round := func() {
		for i := 0; i < 4; i++ {
			l.Send(p, nil)
		}
		eng.RunUntil(eng.Now() + 4*step)
	}
	round() // grow the FIFOs and the event arena to their steady state
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%v allocs per four sends, want 0", allocs)
	}
	if int64(delivered) != l.Packets {
		t.Errorf("delivered %d of %d", delivered, l.Packets)
	}
}

// BenchmarkLinkSend is the link's own number: host time and allocations per
// transmission (serialization, the transmitter-free event, delivery).
func BenchmarkLinkSend(b *testing.B) {
	eng := sim.NewEngine(1)
	l := Fast100(eng, "eth0", PortFunc(func(*Packet) {}))
	p := &Packet{Bytes: 1000}
	l.Send(p, nil)
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Send(p, nil)
		eng.Run()
	}
}
