package nic

import (
	"testing"

	"repro/internal/dwcs"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestDecoupledDispatchDeliversEverything(t *testing.T) {
	r := newRig(t, true)
	ext, err := r.card.LoadScheduler(SchedulerConfig{
		WorkConserving: true,
		DispatchQueue:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ext.AddStream(streamSpec(1, 10*sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := ext.Enqueue(1, dwcs.Packet{Bytes: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunUntil(2 * sim.Second)
	if ext.Sent != 30 {
		t.Fatalf("sent = %d, want 30", ext.Sent)
	}
	if r.client.Received != 30 {
		t.Fatalf("client received %d", r.client.Received)
	}
	st, _ := ext.Sched.Stats(1)
	if st.Serviced != 30 {
		t.Fatalf("serviced = %d", st.Serviced)
	}
}

func TestDecoupledDispatchPreservesOrder(t *testing.T) {
	r := newRig(t, true)
	ext, _ := r.card.LoadScheduler(SchedulerConfig{
		WorkConserving: true,
		DispatchQueue:  4,
	})
	ext.AddStream(streamSpec(1, 10*sim.Millisecond))
	var seqs []int64
	ext.OnDispatch = func(p *dwcs.Packet) { seqs = append(seqs, p.Seq) }
	for i := 0; i < 20; i++ {
		ext.Enqueue(1, dwcs.Packet{Bytes: 500})
	}
	r.eng.RunUntil(2 * sim.Second)
	if len(seqs) != 20 {
		t.Fatalf("dispatched %d", len(seqs))
	}
	for i, s := range seqs {
		if s != int64(i) {
			t.Fatalf("out of order at %d: %v", i, seqs)
		}
	}
}

func TestDecoupledSchedulingDecisionsOutpaceCoupled(t *testing.T) {
	// §3.1.1: "Asynchronous scheduling and dispatch ... allows scheduling
	// decisions to be made at a higher rate." Measure time for the
	// scheduler task to drain its backlog of decisions in each mode.
	drain := func(queue int) sim.Time {
		r := newRig(t, true)
		ext, _ := r.card.LoadScheduler(SchedulerConfig{
			WorkConserving: true,
			DispatchQueue:  queue,
		})
		ext.AddStream(streamSpec(1, 10*sim.Millisecond))
		var lastDecision sim.Time
		done := 0
		ext.OnDispatch = func(p *dwcs.Packet) {
			done++
		}
		_ = lastDecision
		for i := 0; i < 50; i++ {
			ext.Enqueue(1, dwcs.Packet{Bytes: 1000})
		}
		// Time until the *scheduler* has emptied its rings (decisions all
		// made), regardless of dispatch completion.
		for r.eng.Now() < 5*sim.Second && ext.Sched.Len() > 0 {
			r.eng.RunUntil(r.eng.Now() + sim.Millisecond)
		}
		return r.eng.Now()
	}
	coupled := drain(0)
	decoupled := drain(16)
	if decoupled >= coupled {
		t.Fatalf("decoupled decisions (%v) should outpace coupled (%v)", decoupled, coupled)
	}
}

func TestDecoupledDispatchBackpressure(t *testing.T) {
	// A tiny dispatch queue must not lose frames; the scheduler blocks
	// until the dispatcher catches up.
	r := newRig(t, true)
	ext, _ := r.card.LoadScheduler(SchedulerConfig{
		WorkConserving: true,
		DispatchQueue:  1,
	})
	ext.AddStream(streamSpec(1, 10*sim.Millisecond))
	for i := 0; i < 25; i++ {
		ext.Enqueue(1, dwcs.Packet{Bytes: 1000})
	}
	r.eng.RunUntil(3 * sim.Second)
	if ext.Sent != 25 || r.client.Received != 25 {
		t.Fatalf("sent=%d received=%d, want 25 each", ext.Sent, r.client.Received)
	}
}

// A decision's packet is only valid until the scheduler's next decision, so
// the decoupled dispatch queue must hold copies: with a queue in between,
// the wire carries the same (stream, seq, bytes) sequence as the coupled
// path, and every frame's card memory is released once it is on the wire.
func TestDecoupledDispatchSendsDecidedPackets(t *testing.T) {
	type sent struct {
		stream int
		seq    int64
		bytes  int64
	}
	run := func(queue int) []sent {
		r := newRig(t, true)
		c2 := netsim.NewClient(r.eng, "client-2")
		r.sw.Attach("client-2", netsim.Fast100(r.eng, "sw-c2", c2))
		ext, err := r.card.LoadScheduler(SchedulerConfig{WorkConserving: true, DispatchQueue: queue})
		if err != nil {
			t.Fatal(err)
		}
		var got []sent
		record := func(p *netsim.Packet) { got = append(got, sent{p.StreamID, p.Seq, p.Bytes}) }
		r.client.OnFrame, c2.OnFrame = record, record
		for id := 1; id <= 2; id++ {
			if err := ext.AddStream(streamSpec(id, 10*sim.Millisecond)); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < 20; i++ {
			id := 1 + int(i%2)
			n := 400 + 37*i
			addr, err := r.card.Mem.Alloc(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := ext.Enqueue(id, dwcs.Packet{Bytes: n, Payload: FrameBuf{r.card.Mem, addr}}); err != nil {
				t.Fatal(err)
			}
		}
		r.eng.RunUntil(2 * sim.Second)
		if used := r.card.Mem.Used(); used != 0 {
			t.Errorf("queue %d: %d bytes of card memory never released", queue, used)
		}
		return got
	}
	coupled, decoupled := run(0), run(4)
	if len(coupled) != 20 {
		t.Fatalf("coupled path delivered %d of 20", len(coupled))
	}
	for i, s := range coupled {
		if want := int64(400 + 37*(2*s.seq+int64(s.stream-1))); s.bytes != want {
			t.Fatalf("frame %d = %+v, want %d bytes", i, s, want)
		}
	}
	if len(decoupled) != len(coupled) {
		t.Fatalf("decoupled delivered %d, coupled %d", len(decoupled), len(coupled))
	}
	for i := range coupled {
		if decoupled[i] != coupled[i] {
			t.Fatalf("frame %d: decoupled %+v, coupled %+v", i, decoupled[i], coupled[i])
		}
	}
}
