package cluster

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dvcmnet"
	"repro/internal/fixed"
	"repro/internal/mpeg"
	"repro/internal/nic"
	"repro/internal/overload"
	"repro/internal/sim"
)

func oneNode() []NodeConfig {
	return []NodeConfig{{Name: "n0", Segments: 2, SchedulerNIs: 2, ProducerNIs: 2}}
}

func request(name string, period sim.Time) StreamRequest {
	return StreamRequest{
		Name: name, Period: period, FrameBytes: 5000,
		Loss: fixed.New(1, 2), Lossy: true,
	}
}

func TestAdmitPlacesStream(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, oneNode())
	p, err := c.Admit(request("s1", 160*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if p.Scheduler == nil || p.Producer == nil || p.Node == nil {
		t.Fatalf("incomplete placement: %+v", p)
	}
	if p.Scheduler.Streams() != 1 {
		t.Fatalf("scheduler streams = %d", p.Scheduler.Streams())
	}
	if c.Admitted != 1 {
		t.Fatalf("admitted = %d", c.Admitted)
	}
}

// TestAdmitSkipsCardsPastHighWater: with overload protection armed, a card
// whose budget is past its high-water mark is passed over even when it is
// the least CPU-loaded, and with every card past the mark the request is
// refused outright.
func TestAdmitSkipsCardsPastHighWater(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Close()
	c := New(eng, []NodeConfig{{Name: "n0", Segments: 1, SchedulerNIs: 2, ProducerNIs: 1}})
	c.EnableOverload()
	s0, s1 := c.Nodes[0].Schedulers[0], c.Nodes[0].Schedulers[1]
	pastHighWater := func(s *SchedulerNI) {
		b := s.Overload.Budget
		if err := b.Charge(overload.ClassLeak, b.HighWater()-b.Used()+1); err != nil {
			t.Fatal(err)
		}
	}

	// Both cards are idle, so the tie would go to sched0.
	pastHighWater(s0)
	p, err := c.Admit(request("a", 160*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if p.Scheduler != s1 {
		t.Fatalf("admitted on %s, want sched1: sched0 is past high water", p.Scheduler.Card.Name)
	}

	pastHighWater(s1)
	if _, err := c.Admit(request("b", 160*sim.Millisecond)); !errors.Is(err, ErrAdmission) {
		t.Fatalf("err = %v, want ErrAdmission with both cards past high water", err)
	}
	if c.Rejected != 1 || c.Admitted != 1 || s0.Streams() != 0 || s1.Streams() != 1 {
		t.Fatalf("rejected=%d admitted=%d streams=%d/%d, want 1, 1, 0/1",
			c.Rejected, c.Admitted, s0.Streams(), s1.Streams())
	}
}

func TestAdmitBalancesAcrossSchedulerNIs(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, oneNode())
	for i := 0; i < 8; i++ {
		if _, err := c.Admit(request("s", 160*sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	n := c.Nodes[0]
	a, b := n.Schedulers[0].Streams(), n.Schedulers[1].Streams()
	if a != 4 || b != 4 {
		t.Fatalf("unbalanced placement: %d vs %d", a, b)
	}
}

func TestAdmissionRejectsOverCommit(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, []NodeConfig{{Name: "n0", Segments: 1, SchedulerNIs: 1, ProducerNIs: 1}})
	// Very fast large-frame streams exhaust the 100 Mbps link quickly:
	// 5 ms period × 12 kB ≈ 20 Mbps each → ~3.5 fit under a 70% ceiling.
	admitted := 0
	var lastErr error
	for i := 0; i < 50; i++ {
		_, err := c.Admit(StreamRequest{
			Name: "fat", Period: 5 * sim.Millisecond, FrameBytes: 12000,
			Loss: fixed.New(1, 2), Lossy: true,
		})
		if err != nil {
			lastErr = err
			break
		}
		admitted++
	}
	if admitted == 0 || admitted > 10 {
		t.Fatalf("admitted %d fat streams, want a small number", admitted)
	}
	if !errors.Is(lastErr, ErrAdmission) {
		t.Fatalf("err = %v", lastErr)
	}
	if c.Rejected != 1 {
		t.Fatalf("rejected = %d", c.Rejected)
	}
}

func TestAdmissionValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, oneNode())
	if _, err := c.Admit(StreamRequest{Name: "bad", Period: 0, FrameBytes: 100}); err == nil {
		t.Error("zero period should fail")
	}
	if _, err := c.Admit(StreamRequest{Name: "bad", Period: sim.Second, FrameBytes: 0}); err == nil {
		t.Error("zero frame size should fail")
	}
}

func TestNoProducersMeansRejection(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, []NodeConfig{{Name: "n0", SchedulerNIs: 1, ProducerNIs: 0}})
	if _, err := c.Admit(request("s", sim.Second)); !errors.Is(err, ErrAdmission) {
		t.Fatalf("err = %v", err)
	}
}

func TestEndToEndClusterStreaming(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, oneNode())
	clip, _ := mpeg.Generate(mpeg.GenConfig{Frames: 30, FPS: 30, GOPPattern: "IBB", MeanFrame: 2000, Seed: 8})
	var clients []interface{ String() string }
	for i := 0; i < 4; i++ {
		p, err := c.Admit(request("s", 100*sim.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		cl := c.AttachClient(p)
		clients = append(clients, cl)
		c.Start(p, clip, 50*sim.Millisecond, 1)
	}
	eng.RunUntil(6 * sim.Second)
	for i, cl := range clients {
		s := cl.String()
		if s == "" {
			t.Fatalf("client %d produced no summary", i)
		}
	}
	// All 4×30 frames delivered through the SAN switch.
	if c.Switch.Forwarded < 110 {
		t.Fatalf("switch forwarded %d frames, want ≈120", c.Switch.Forwarded)
	}
}

func TestCapacityScalesWithHardware(t *testing.T) {
	req := request("s", 160*sim.Millisecond)
	small := Capacity([]NodeConfig{{Name: "n", SchedulerNIs: 1, ProducerNIs: 1}}, req)
	big := Capacity([]NodeConfig{
		{Name: "a", Segments: 2, SchedulerNIs: 2, ProducerNIs: 2},
		{Name: "b", Segments: 2, SchedulerNIs: 2, ProducerNIs: 2},
	}, req)
	if small == 0 {
		t.Fatal("single-NI cluster admits nothing")
	}
	if big < 3*small {
		t.Fatalf("4× hardware admits %d vs %d — should scale ≈4×", big, small)
	}
}

func TestCapacityLimitedByMemoryForHugeBuffers(t *testing.T) {
	// 4 MB cards: 64-deep rings of 50 kB frames = 3.2 MB each → ~1 stream
	// per card under the 70% ceiling.
	req := StreamRequest{Name: "hd", Period: 500 * sim.Millisecond, FrameBytes: 50000,
		Loss: fixed.New(1, 2), Lossy: true}
	got := Capacity([]NodeConfig{{Name: "n", SchedulerNIs: 1, ProducerNIs: 1}}, req)
	if got != 0 && got > 2 {
		t.Fatalf("memory ceiling should cap admissions, got %d", got)
	}
}

func TestFeasibilityReportMatchesAdmission(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, oneNode())
	for i := 0; i < 6; i++ {
		if _, err := c.Admit(request("s", 160*sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range c.Nodes {
		for _, s := range n.Schedulers {
			rep, err := s.Feasibility()
			if err != nil {
				t.Fatalf("%s: %v", s.Card.Name, err)
			}
			if !rep.Feasible {
				t.Fatalf("%s: admitted set reported infeasible: %s", s.Card.Name, rep)
			}
			if len(rep.Streams) != s.Streams() {
				t.Fatalf("%s: report has %d streams, card has %d",
					s.Card.Name, len(rep.Streams), s.Streams())
			}
		}
	}
}

func TestRemoteInstructionToPlacedStream(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, oneNode())
	p, err := c.Admit(request("s", 160*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// A management client elsewhere on the SAN reconfigures the placed
	// stream through the distributed VCM.
	mgr := dvcmnet.Attach(eng, c.Switch, "mgmt", nil)
	var rerr error
	mgr.Invoke(p.Scheduler.Card.Name, core.Instr{Ext: "dwcs", Op: "reconfigure",
		Arg: nic.ReconfigureArgs{StreamID: p.StreamID, Period: 80 * sim.Millisecond,
			Loss: fixed.New(0, 1)}},
		func(_ any, err error) { rerr = err })
	eng.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if x, y, _ := p.Scheduler.Ext.Sched.Window(p.StreamID); x != 0 || y != 1 {
		t.Fatalf("window = %d/%d after remote reconfigure", x, y)
	}
}
