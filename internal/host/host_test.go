package host

import (
	"testing"

	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/hostos"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/webload"
)

// bench wires a 2-CPU host with a scheduler process and one client.
type bench struct {
	eng    *sim.Engine
	sys    *hostos.System
	sched  *Scheduler
	client *netsim.Client
}

func newBench(t *testing.T) *bench {
	t.Helper()
	eng := sim.NewEngine(11)
	sys := hostos.New(eng, 2, 10*sim.Millisecond)
	client := netsim.NewClient(eng, "c1")
	sw := netsim.NewSwitch(eng, "sw", 90*sim.Microsecond)
	sw.Attach("c1", netsim.Fast100(eng, "sw-c1", client))
	link := netsim.Fast100(eng, "host-eth", sw)
	sched := NewScheduler(eng, sys, link, SchedulerConfig{
		CPU:           0,
		EligibleEarly: 40 * sim.Millisecond,
	})
	return &bench{eng: eng, sys: sys, sched: sched, client: client}
}

func stream(id int, period sim.Time) dwcs.StreamSpec {
	return dwcs.StreamSpec{ID: id, Name: "s", Period: period,
		Loss: fixed.New(1, 2), Lossy: true, BufCap: 64}
}

func TestHostSchedulerDeliversUnloaded(t *testing.T) {
	b := newBench(t)
	T := 80 * sim.Millisecond
	if err := b.sched.AddStream(stream(1, T), "c1"); err != nil {
		t.Fatal(err)
	}
	clip, _ := mpeg.Generate(mpeg.GenConfig{Frames: 60, FPS: 30, GOPPattern: "IBB", MeanFrame: 1500, Seed: 9})
	StartProducer(b.eng, b.sys, b.sched, ProducerConfig{
		Clip: clip, StreamID: 1, Every: 40 * sim.Millisecond,
		PerFrameCPU: 200 * sim.Microsecond, CPU: hostos.AnyCPU,
	})
	b.eng.RunUntil(8 * sim.Second)
	if b.client.Received < 50 {
		t.Fatalf("client received %d frames", b.client.Received)
	}
	if b.sched.Dropped > 3 {
		t.Fatalf("unloaded host dropped %d frames", b.sched.Dropped)
	}
}

func TestHostSchedulerDegradesUnderLoad(t *testing.T) {
	run := func(loadPct float64) (sent, dropped int64) {
		b := newBench(t)
		T := 80 * sim.Millisecond
		b.sched.AddStream(stream(1, T), "c1")
		clip, _ := mpeg.Generate(mpeg.GenConfig{Frames: 60, FPS: 30, GOPPattern: "IBB", MeanFrame: 1500, Seed: 9})
		StartProducer(b.eng, b.sys, b.sched, ProducerConfig{
			Clip: clip, StreamID: 1, Every: 40 * sim.Millisecond,
			PerFrameCPU: 200 * sim.Microsecond, CPU: hostos.AnyCPU,
		})
		if loadPct > 0 {
			g := webload.NewGenerator(b.eng, b.sys, webload.TargetUtilization("w", loadPct, 2))
			g.Start()
		}
		b.eng.RunUntil(20 * sim.Second)
		return b.sched.Sent, b.sched.Dropped
	}
	sent0, _ := run(0)
	sent60, dropped60 := run(60)
	if sent60 >= sent0 {
		t.Fatalf("60%% load did not reduce throughput: %d vs %d", sent60, sent0)
	}
	if dropped60 == 0 {
		t.Fatal("60% load should force deadline drops")
	}
}

func TestProducerLoopAndStop(t *testing.T) {
	b := newBench(t)
	b.sched.AddStream(stream(1, 10*sim.Millisecond), "c1")
	clip, _ := mpeg.Generate(mpeg.GenConfig{Frames: 5, FPS: 30, GOPPattern: "IBB", MeanFrame: 800, Seed: 2})
	p := StartProducer(b.eng, b.sys, b.sched, ProducerConfig{
		Clip: clip, StreamID: 1, Every: 5 * sim.Millisecond,
	})
	b.eng.RunUntil(200 * sim.Millisecond)
	if p.Injected <= 5 {
		t.Fatalf("loop producer injected only %d", p.Injected)
	}
	p.Stop()
	p.Stop() // idempotent
	before := p.Injected
	b.eng.RunUntil(400 * sim.Millisecond)
	if p.Injected != before {
		t.Fatal("producer kept injecting after Stop")
	}
}

func TestProducerFullRingCountsStalls(t *testing.T) {
	b := newBench(t)
	sp := stream(1, sim.Second) // very slow service
	sp.BufCap = 2
	b.sched.AddStream(sp, "c1")
	clip, _ := mpeg.Generate(mpeg.GenConfig{Frames: 30, FPS: 30, GOPPattern: "IBB", MeanFrame: 800, Seed: 2})
	p := StartProducer(b.eng, b.sys, b.sched, ProducerConfig{
		Clip: clip, StreamID: 1, Every: sim.Millisecond,
	})
	b.eng.RunUntil(500 * sim.Millisecond)
	if p.Stalled == 0 {
		t.Fatal("expected stalls against a full 2-slot ring")
	}
}

func TestBadProducerPeriodPanics(t *testing.T) {
	b := newBench(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	StartProducer(b.eng, b.sys, b.sched, ProducerConfig{Every: 0})
}

func TestQueuingDelayRecorded(t *testing.T) {
	b := newBench(t)
	b.sched.AddStream(stream(1, 50*sim.Millisecond), "c1")
	clip, _ := mpeg.Generate(mpeg.GenConfig{Frames: 20, FPS: 30, GOPPattern: "IBB", MeanFrame: 1000, Seed: 2})
	StartProducer(b.eng, b.sys, b.sched, ProducerConfig{
		Clip: clip, StreamID: 1, Every: 10 * sim.Millisecond,
	})
	b.eng.RunUntil(3 * sim.Second)
	qd := b.sched.QDelay[1]
	if qd == nil || len(qd.Delays) == 0 {
		t.Fatal("no queuing delays recorded")
	}
	// Producers inject 5× faster than service: delays must grow.
	if qd.Max() < 100*sim.Millisecond {
		t.Fatalf("max queuing delay = %v, expected backlog growth", qd.Max())
	}
}
