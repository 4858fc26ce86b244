package netsim

import (
	"testing"

	"repro/internal/sim"
)

func TestDropEveryInjectsLoss(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewClient(eng, "c")
	l := Fast100(eng, "lossy", c)
	l.DropEvery = 5 // packets 5, 10, 15, 20 dropped
	for i := 0; i < 20; i++ {
		l.Send(&Packet{Dst: "c", Bytes: 1000, Seq: int64(i)}, nil)
	}
	eng.Run()
	if l.Dropped != 4 {
		t.Fatalf("dropped = %d, want 4", l.Dropped)
	}
	if c.Received != 16 {
		t.Fatalf("received = %d, want 16", c.Received)
	}
}

func TestDropStillFreesTransmitter(t *testing.T) {
	// A dropped packet must still occupy the wire (the loss happens at the
	// receiver side of the pipe), not wedge the link.
	eng := sim.NewEngine(1)
	c := NewClient(eng, "c")
	l := Fast100(eng, "lossy", c)
	l.DropEvery = 1 // drop everything
	fired := 0
	for i := 0; i < 3; i++ {
		l.Send(&Packet{Dst: "c", Bytes: 100}, func() { fired++ })
	}
	eng.Run()
	if fired != 3 {
		t.Fatalf("onWire fired %d times", fired)
	}
	if c.Received != 0 {
		t.Fatalf("received = %d", c.Received)
	}
}

func TestMulticastGroupFanOut(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, "sw", 10*sim.Microsecond)
	var clients []*Client
	for i := 0; i < 3; i++ {
		c := NewClient(eng, string(rune('a'+i)))
		clients = append(clients, c)
		sw.Attach(c.Name, Fast100(eng, "l"+c.Name, c))
		sw.JoinGroup("mcast-1", c.Name)
	}
	if sw.GroupSize("mcast-1") != 3 {
		t.Fatalf("group size = %d", sw.GroupSize("mcast-1"))
	}
	in := Fast100(eng, "in", sw)
	in.Send(&Packet{Dst: "mcast-1", Bytes: 1000}, nil)
	eng.Run()
	for _, c := range clients {
		if c.Received != 1 {
			t.Fatalf("client %s received %d", c.Name, c.Received)
		}
	}
	if sw.Forwarded != 3 {
		t.Fatalf("forwarded = %d", sw.Forwarded)
	}
}

func TestMulticastLeaveGroup(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, "sw", 0)
	a := NewClient(eng, "a")
	b := NewClient(eng, "b")
	sw.Attach("a", Fast100(eng, "la", a))
	sw.Attach("b", Fast100(eng, "lb", b))
	sw.JoinGroup("g", "a")
	sw.JoinGroup("g", "b")
	sw.LeaveGroup("g", "a")
	sw.LeaveGroup("g", "zzz") // no-op
	in := Fast100(eng, "in", sw)
	in.Send(&Packet{Dst: "g", Bytes: 64}, nil)
	eng.Run()
	if a.Received != 0 || b.Received != 1 {
		t.Fatalf("a=%d b=%d", a.Received, b.Received)
	}
}

func TestMulticastFromNIScheduler(t *testing.T) {
	// One DWCS stream fanned to several players through a group address —
	// the paper's intro-level scalable-delivery technique composed with
	// NI-based scheduling.
	eng := sim.NewEngine(2)
	sw := NewSwitch(eng, "sw", 10*sim.Microsecond)
	var clients []*Client
	for i := 0; i < 4; i++ {
		c := NewClient(eng, string(rune('w'+i)))
		clients = append(clients, c)
		sw.Attach(c.Name, Fast100(eng, "l"+c.Name, c))
		sw.JoinGroup("vod-42", c.Name)
	}
	src := Fast100(eng, "src", sw)
	for seq := 0; seq < 10; seq++ {
		src.Send(&Packet{Dst: "vod-42", Seq: int64(seq), Bytes: 2000}, nil)
	}
	eng.Run()
	for _, c := range clients {
		if c.Received != 10 {
			t.Fatalf("client %s received %d of 10", c.Name, c.Received)
		}
	}
}
