package netsim

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestFullFrameWireTimeAbout120us(t *testing.T) {
	eng := sim.NewEngine(1)
	l := Fast100(eng, "eth0", nil)
	us := l.WireTime(MTU).Microseconds()
	if us < 115 || us > 130 {
		t.Fatalf("1500-byte frame = %.1f µs, want ≈120–125", us)
	}
}

func TestThousandByteFrameWireTime(t *testing.T) {
	eng := sim.NewEngine(1)
	l := Fast100(eng, "eth0", nil)
	us := l.WireTime(1000).Microseconds()
	if us < 80 || us > 90 {
		t.Fatalf("1000-byte frame = %.1f µs, want ≈85", us)
	}
}

func TestWireTimeFragmentsLargePayloads(t *testing.T) {
	eng := sim.NewEngine(1)
	l := Fast100(eng, "eth0", nil)
	one := l.WireTime(MTU)
	ten := l.WireTime(10 * MTU)
	if ten != 10*one {
		t.Fatalf("10×MTU = %v, want %v (10 fragments)", ten, 10*one)
	}
	if l.WireTime(0) <= 0 {
		t.Fatal("zero payload should still cost one frame of overhead")
	}
}

func TestEndToEndI960PathAbout1_2ms(t *testing.T) {
	// Table 4: i960 TX stack + wire + switch + client RX stack ≈ 1.2 ms.
	eng := sim.NewEngine(1)
	client := NewClient(eng, "player")
	sw := NewSwitch(eng, "sw0", 90*sim.Microsecond) // store-and-forward
	toClient := Fast100(eng, "sw-client", client)
	sw.Attach("player", toClient)
	niLink := Fast100(eng, "ni-eth", sw)

	var deliveredAt sim.Time
	client.OnFrame = func(p *Packet) { deliveredAt = eng.Now() }
	start := eng.Now()
	// The i960 sender pays its stack before the wire.
	eng.After(I960Stack().Tx, func() {
		niLink.Send(&Packet{Dst: "player", Bytes: 1000}, nil)
	})
	eng.Run()
	ms := (deliveredAt - start).Milliseconds()
	if ms < 1.0 || ms > 1.45 {
		t.Fatalf("end-to-end = %.3f ms, want ≈1.2", ms)
	}
}

func TestHostStackFasterThanI960(t *testing.T) {
	if HostStack().Tx >= I960Stack().Tx {
		t.Fatal("200 MHz host stack must beat 66 MHz i960 stack")
	}
}

func TestLinkSerializesTransmissions(t *testing.T) {
	eng := sim.NewEngine(1)
	var arrivals []sim.Time
	sink := PortFunc(func(p *Packet) { arrivals = append(arrivals, eng.Now()) })
	l := Fast100(eng, "eth0", sink)
	for i := 0; i < 3; i++ {
		l.Send(&Packet{Bytes: 1000, Seq: int64(i)}, nil)
	}
	eng.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	gap := arrivals[1] - arrivals[0]
	if gap != l.WireTime(1000) {
		t.Fatalf("inter-arrival %v, want wire time %v", gap, l.WireTime(1000))
	}
	if l.Packets != 3 || l.Bytes != 3000 {
		t.Fatalf("link stats: %d pkts %d bytes", l.Packets, l.Bytes)
	}
}

func TestOnWireFiresWhenTransmitterFree(t *testing.T) {
	eng := sim.NewEngine(1)
	l := Fast100(eng, "eth0", nil)
	var freeAt sim.Time
	l.Send(&Packet{Bytes: 1000}, func() { freeAt = eng.Now() })
	eng.Run()
	if freeAt != l.WireTime(1000) {
		t.Fatalf("transmitter free at %v, want %v", freeAt, l.WireTime(1000))
	}
}

func TestSwitchRoutesByDestination(t *testing.T) {
	eng := sim.NewEngine(1)
	var gotA, gotB int
	a := NewClient(eng, "a")
	a.OnFrame = func(*Packet) { gotA++ }
	b := NewClient(eng, "b")
	b.OnFrame = func(*Packet) { gotB++ }
	sw := NewSwitch(eng, "sw", 10*sim.Microsecond)
	sw.Attach("a", Fast100(eng, "la", a))
	sw.Attach("b", Fast100(eng, "lb", b))
	in := Fast100(eng, "in", sw)
	in.Send(&Packet{Dst: "a", Bytes: 100}, nil)
	in.Send(&Packet{Dst: "b", Bytes: 100}, nil)
	in.Send(&Packet{Dst: "nobody", Bytes: 100}, nil)
	eng.Run()
	if gotA != 1 || gotB != 1 {
		t.Fatalf("a=%d b=%d, want 1 each", gotA, gotB)
	}
	if sw.Forwarded != 2 {
		t.Fatalf("forwarded = %d, want 2 (unknown dst dropped)", sw.Forwarded)
	}
}

func TestAttachPortTap(t *testing.T) {
	eng := sim.NewEngine(1)
	got := 0
	sw := NewSwitch(eng, "sw", 0)
	sw.AttachPort("tap", PortFunc(func(*Packet) { got++ }))
	in := Fast100(eng, "in", sw)
	in.Send(&Packet{Dst: "tap", Bytes: 64}, nil)
	eng.Run()
	if got != 1 {
		t.Fatalf("tap saw %d packets", got)
	}
}

func TestClientAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewClient(eng, "player")
	c.BW = stats.NewBandwidthMeter("player", sim.Second)
	l := Fast100(eng, "eth", c)
	l.Send(&Packet{Bytes: 1000, Deadline: 1}, nil) // deadline long past
	l.Send(&Packet{Bytes: 500}, nil)
	eng.Run()
	if c.Received != 2 || c.RecvBytes != 1500 {
		t.Fatalf("client: %v", c)
	}
	if c.Late != 1 {
		t.Fatalf("late = %d, want 1", c.Late)
	}
	// A frame's latency runs from its start on the wire (Sent): its wire
	// time, the propagation delay and the receive stack.
	first := l.WireTime(1000) + 2*sim.Microsecond + c.RxStack
	second := l.WireTime(500) + 2*sim.Microsecond + c.RxStack
	if want := (first + second) / 2; c.MeanLatency() != want {
		t.Fatalf("mean latency %v, want %v", c.MeanLatency(), want)
	}
	c.BW.FlushUntil(sim.Second)
	if c.BW.Series.Len() == 0 {
		t.Fatal("bandwidth meter got no samples")
	}
}

// MeanLatency is the integer mean stats.Summarize computes over the
// send-to-delivered latencies of the frames played out: the same nanosecond
// for any set of deliveries, zero for none.
// A receive stack slower than the arrivals queues them without bound: every
// frame still plays out.
func TestClientUnlimitedByDefault(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := NewClient(eng, "c")
	cl.RxStack = 10 * sim.Millisecond
	for i := 0; i < 100; i++ {
		cl.Deliver(&Packet{Seq: int64(i), Bytes: 1000})
	}
	eng.Run()
	if cl.Received != 100 {
		t.Fatalf("received=%d, want 100", cl.Received)
	}
}

func TestMeanLatencyMatchesSummarize(t *testing.T) {
	if c := NewClient(sim.NewEngine(1), "player"); c.MeanLatency() != 0 {
		t.Fatalf("no deliveries: mean %v", c.MeanLatency())
	}
	if err := quick.Check(func(us []uint32) bool {
		eng := sim.NewEngine(1)
		c := NewClient(eng, "player")
		eng.RunUntil(1000 * sim.Second) // past the longest latency (614 s)
		known := make([]sim.Time, len(us))
		for i, u := range us {
			known[i] = sim.Time(u)*sim.Microsecond/7 + c.RxStack
			c.Deliver(&Packet{Bytes: 1, Sent: eng.Now() - known[i] + c.RxStack})
		}
		eng.Run()
		return c.MeanLatency() == stats.Summarize(known).Mean
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroRateLinkPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLink(eng, "bad", 0, 0, nil)
}

// Property: wire time is monotone in payload size.
func TestWireTimeMonotone(t *testing.T) {
	eng := sim.NewEngine(1)
	l := Fast100(eng, "eth", nil)
	f := func(a, b uint32) bool {
		if a > b {
			a, b = b, a
		}
		return l.WireTime(int64(a)) <= l.WireTime(int64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every sent packet is delivered exactly once through a switch.
func TestSwitchDeliveryProperty(t *testing.T) {
	f := func(n uint8) bool {
		eng := sim.NewEngine(5)
		c := NewClient(eng, "c")
		sw := NewSwitch(eng, "sw", sim.Microsecond)
		sw.Attach("c", Fast100(eng, "out", c))
		in := Fast100(eng, "in", sw)
		for i := 0; i < int(n); i++ {
			in.Send(&Packet{Dst: "c", Bytes: int64(i) * 10}, nil)
		}
		eng.Run()
		return c.Received == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A playout allocates nothing beyond the client's delivery records: the
// receive-stack step is a callback built once, and the packet rides as the
// event's argument.
func TestClientDeliverDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewClient(eng, "player")
	c.Gaps = make([]sim.Time, 0, 1024)
	p := &Packet{Bytes: 1000, StreamID: 1}
	round := func() {
		for i := 0; i < 4; i++ {
			c.Deliver(p)
		}
		eng.Run()
	}
	round() // grow the event arena
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%v allocs per four deliveries, want 0", allocs)
	}
	if c.Received != 4*102 {
		t.Errorf("received %d", c.Received)
	}
	// Round k (1..102) plays its four frames out k receive stacks after
	// time 0, their Sent: the mean is 51.5 stacks.
	if want := c.RxStack * 103 / 2; c.MeanLatency() != want {
		t.Errorf("mean latency %v, want %v", c.MeanLatency(), want)
	}
}

// Switch forwarding hands the packet to the output link through a callback
// the link built once.
func TestSwitchForwardDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, "sw", 90*sim.Microsecond)
	delivered := 0
	sw.Attach("c", Fast100(eng, "sw→c", PortFunc(func(*Packet) { delivered++ })))
	p := &Packet{Dst: "c", Bytes: 1000}
	round := func() {
		for i := 0; i < 4; i++ {
			sw.Deliver(p)
		}
		eng.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%v allocs per four forwards, want 0", allocs)
	}
	if delivered != 4*102 {
		t.Errorf("delivered %d", delivered)
	}
}

// BenchmarkClientDeliver is the client's own number: host time and
// allocations per frame through the receive stack to playout.
func BenchmarkClientDeliver(b *testing.B) {
	eng := sim.NewEngine(1)
	c := NewClient(eng, "player")
	p := &Packet{Bytes: 1000, StreamID: 1}
	c.Deliver(p)
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Deliver(p)
		eng.Run()
	}
}
