package cluster

import (
	"testing"

	"repro/internal/fixed"
	"repro/internal/sim"
)

func twoSchedCluster(t *testing.T) *Cluster {
	t.Helper()
	eng := sim.NewEngine(11)
	return New(eng, []NodeConfig{{Name: "n0", Segments: 1, SchedulerNIs: 2, ProducerNIs: 1}})
}

func req(name string) StreamRequest {
	return StreamRequest{Name: name, Period: 160 * sim.Millisecond,
		FrameBytes: 12_000, Loss: fixed.New(1, 2), Lossy: true}
}

// TestReadmitRefundsAndPreservesClient is the regression test for the old
// Readmit, which ignored the failed placement entirely: the dead card's
// commitment was never refunded and the stream was re-admitted under a
// fresh client address, orphaning the viewer.
func TestReadmitRefundsAndPreservesClient(t *testing.T) {
	c := twoSchedCluster(t)
	s0 := c.Nodes[0].Schedulers[0]
	s1 := c.Nodes[0].Schedulers[1]

	p, err := c.Admit(req("movie"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Scheduler != s0 {
		t.Fatalf("first admit on %s, want sched0", p.Scheduler.Card.Name)
	}
	affected := c.FailScheduler(s0, c.Live())
	if len(affected) != 1 || affected[0] != p {
		t.Fatalf("affected = %v", affected)
	}
	if s0.CPULoad() != 0 || s0.LinkLoad() != 0 {
		t.Fatalf("failed card still holds cpu=%v link=%v", s0.CPULoad(), s0.LinkLoad())
	}

	np, err := c.Readmit(p, p.Req)
	if err != nil {
		t.Fatal(err)
	}
	if np.Scheduler != s1 {
		t.Fatalf("readmitted to %s, want the surviving card", np.Scheduler.Card.Name)
	}
	if np.Client != p.Client {
		t.Fatalf("client %s changed to %s across failover", p.Client, np.Client)
	}
	if np.StreamID == p.StreamID {
		t.Fatal("stream ID reused; the dead card's DWCS state is gone")
	}
	live := c.Live()
	if len(live) != 1 || live[0] != np {
		t.Fatalf("live = %v, want just the new placement", live)
	}
	// Double Readmit of the same old placement must not double-refund.
	if _, err := c.Readmit(p, p.Req); err != nil {
		t.Fatal(err)
	}
	if s0.CPULoad() != 0 {
		t.Fatalf("sched0 cpu load %v after double readmit, want 0", s0.CPULoad())
	}
}

// TestReadmitExcludesOldCardEvenIfNotFailed: moving a stream must not land
// it back on the card it is being moved off.
func TestReadmitExcludesOldCardEvenIfNotFailed(t *testing.T) {
	c := twoSchedCluster(t)
	p, err := c.Admit(req("movie"))
	if err != nil {
		t.Fatal(err)
	}
	np, err := c.Readmit(p, p.Req)
	if err != nil {
		t.Fatal(err)
	}
	if np.Scheduler == p.Scheduler {
		t.Fatal("readmit placed the stream back on the card it left")
	}
}

// TestMonitorDetectsCrashFailsOverAndSeesRecovery: the full loop — a card
// crash silences its endpoint, heartbeats miss, the monitor fails the card
// and re-admits its stream on the survivor, and after the card resets the
// monitor readmits it to service.
func TestMonitorDetectsCrashFailsOverAndSeesRecovery(t *testing.T) {
	c := twoSchedCluster(t)
	s0 := c.Nodes[0].Schedulers[0]
	s1 := c.Nodes[0].Schedulers[1]
	p0, err := c.Admit(req("a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit(req("b")); err != nil {
		t.Fatal(err)
	}

	m := NewMonitor(c, "monitor")
	m.Interval = 100 * sim.Millisecond
	m.Timeout = 10 * sim.Millisecond
	m.Misses = 2
	m.Auto = true
	var moved *Placement
	m.OnReadmit = func(old, now *Placement, err error) {
		if err != nil {
			t.Errorf("readmit %s: %v", old.Req.Name, err)
			return
		}
		moved = now
	}
	m.Start()

	c.Eng.At(sim.Second, s0.Card.Crash)
	c.Eng.At(2*sim.Second, s0.Card.Reset)
	c.Eng.RunUntil(3 * sim.Second)
	m.Stop()

	if m.Detected != 1 {
		t.Fatalf("detected = %d failures", m.Detected)
	}
	if m.Failovers != 1 || moved == nil {
		t.Fatalf("failovers = %d, moved = %v", m.Failovers, moved)
	}
	if moved.Scheduler != s1 {
		t.Fatalf("stream moved to %s, want the survivor", moved.Scheduler.Card.Name)
	}
	if moved.Client != p0.Client {
		t.Fatalf("client changed across monitor failover: %s → %s", p0.Client, moved.Client)
	}
	if m.Recovered != 1 || s0.Failed() {
		t.Fatalf("recovered = %d, s0 failed = %v after reset", m.Recovered, s0.Failed())
	}
	if m.Probes == 0 {
		t.Fatal("monitor sent no probes")
	}
}

// TestSecondDeadCardStillFailsOver is the regression test for the failover
// the domain filter refused: with one card already dead on another node, a
// second card's death made "the switch" suspect, and since every card sits
// behind the one SAN switch the filter vetoed the whole cluster — admission
// denied with two healthy cards standing.
func TestSecondDeadCardStillFailsOver(t *testing.T) {
	eng := sim.NewEngine(11)
	defer eng.Close()
	c := New(eng, []NodeConfig{
		{Name: "n0", Segments: 1, SchedulerNIs: 2, ProducerNIs: 1},
		{Name: "n1", Segments: 1, SchedulerNIs: 2, ProducerNIs: 1},
	})
	for _, name := range []string{"a", "b", "c", "d"} {
		if _, err := c.Admit(req(name)); err != nil {
			t.Fatal(err)
		}
	}
	dead0, dead1 := c.Nodes[0].Schedulers[0], c.Nodes[1].Schedulers[0]
	if c.Live()[2].Scheduler != dead1 {
		t.Fatalf("stream 3 admitted on %s, want n1/sched0", c.Live()[2].Scheduler.Card.Name)
	}

	m := NewMonitor(c, "monitor")
	m.Interval = 100 * sim.Millisecond
	m.Timeout = 10 * sim.Millisecond
	m.Auto = true
	moved := map[int]*Placement{}
	m.OnReadmit = func(old, now *Placement, err error) {
		if err != nil {
			t.Errorf("readmit %s off %s: %v", old.Req.Name, old.Scheduler.Card.Name, err)
			return
		}
		moved[old.StreamID] = now
	}
	m.Start()
	eng.At(sim.Second, dead0.Card.Crash)
	eng.At(2*sim.Second, dead1.Card.Crash)
	eng.RunUntil(3 * sim.Second)
	m.Stop()

	if m.Detected != 2 || m.Failovers != 2 {
		t.Fatalf("detected=%d failovers=%d, want 2 and 2", m.Detected, m.Failovers)
	}
	now := moved[3]
	if now == nil || now.Scheduler.Failed() {
		t.Fatalf("stream 3 moved to %+v, want a healthy card", now)
	}
}
