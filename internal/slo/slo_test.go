package slo

import (
	"strings"
	"testing"

	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// counters is a hand-cranked cumulative stat source.
type counters struct{ attempts, losses int64 }

func (c *counters) get() (int64, int64) { return c.attempts, c.losses }

func newTestMonitor(objs ...Objective) (*Monitor, []*counters) {
	m := NewMonitor("ni-0", Config{
		ShortWindow: 2 * sim.Second, LongWindow: 8 * sim.Second,
		EvalEvery: sim.Second, ViolateSustain: 3,
	})
	var cs []*counters
	for _, o := range objs {
		c := &counters{}
		m.Track(o, c.get)
		cs = append(cs, c)
	}
	return m, cs
}

func TestFromSpec(t *testing.T) {
	spec := dwcs.StreamSpec{ID: 7, Name: "cam-7", Loss: fixed.New(1, 4)}
	o := FromSpec(spec, 10*sim.Millisecond)
	if o.Stream != 7 || o.Name != "cam-7" || o.LossTarget != 0.25 ||
		o.LatencyTarget != 10*sim.Millisecond {
		t.Fatalf("FromSpec = %+v", o)
	}
	// Zero-valued Loss (lossless stream): no budget at all.
	if o := FromSpec(dwcs.StreamSpec{ID: 1}, 0); o.LossTarget != 0 {
		t.Fatalf("lossless LossTarget = %v, want 0", o.LossTarget)
	}
}

func TestBurnEscalationAndSustainToViolated(t *testing.T) {
	m, cs := newTestMonitor(Objective{Stream: 1, Name: "s1", LossTarget: 0.1})
	var trans []string
	m.OnChange = func(id int, from, to State) {
		trans = append(trans, from.String()+">"+to.String())
	}

	// Clean traffic: 100 attempts/eval, no loss.
	for i := 0; i < 4; i++ {
		cs[0].attempts += 100
		m.Eval()
	}
	if got := m.StreamState(1); got != StateOK {
		t.Fatalf("clean traffic state = %v, want ok", got)
	}

	// 40% loss = burn 4.0 against a 0.1 budget: past PageBurn on both
	// windows once the long window sees enough of it.
	for i := 0; i < 8; i++ {
		cs[0].attempts += 100
		cs[0].losses += 40
		m.Eval()
	}
	if got := m.StreamState(1); got != StateViolated {
		t.Fatalf("sustained 4× burn state = %v, want violated", got)
	}
	if m.Health() != StateViolated || m.Violations != 1 {
		t.Fatalf("health=%v violations=%d", m.Health(), m.Violations)
	}
	// Escalation passed through burning before hardening.
	joined := strings.Join(trans, " ")
	if !strings.Contains(joined, ">burning") || !strings.Contains(joined, "burning>violated") {
		t.Fatalf("transitions %v should pass through burning to violated", trans)
	}

	// Recovery: clean evals step the state down one rung per sustain period.
	for i := 0; i < 40; i++ {
		cs[0].attempts += 100
		m.Eval()
	}
	if got := m.StreamState(1); got != StateOK {
		t.Fatalf("after sustained clean traffic state = %v, want ok", got)
	}
}

func TestWarnWithoutPageStaysWarn(t *testing.T) {
	m, cs := newTestMonitor(Objective{Stream: 1, Name: "s1", LossTarget: 0.1})
	// 15% loss = burn 1.5: past WarnBurn (1) but short of PageBurn (2).
	for i := 0; i < 10; i++ {
		cs[0].attempts += 100
		cs[0].losses += 15
		m.Eval()
	}
	if got := m.StreamState(1); got != StateWarn {
		t.Fatalf("burn 1.5 state = %v, want warn", got)
	}
}

func TestLatencyBreachEscalates(t *testing.T) {
	m, cs := newTestMonitor(Objective{Stream: 2, Name: "s2",
		LossTarget: 0.5, LatencyTarget: 5 * sim.Millisecond})
	cs[0].attempts = 10
	// Queue-stage segment over the bound; other stages and streams ignored.
	m.ObserveSegment(telemetry.Segment{Stream: 2, Stage: telemetry.StageQueue,
		Start: 0, End: 8 * sim.Millisecond})
	m.ObserveSegment(telemetry.Segment{Stream: 2, Stage: telemetry.StageDisk,
		Start: 0, End: sim.Second})
	m.ObserveSegment(telemetry.Segment{Stream: 99, Stage: telemetry.StageQueue,
		Start: 0, End: sim.Second})
	m.Eval()
	if got := m.StreamState(2); got != StateBurning {
		t.Fatalf("latency breach state = %v, want burning", got)
	}
	// Bound latency clears after the breach rolls out of the short window.
	for i := 0; i < 20; i++ {
		cs[0].attempts += 10
		m.Eval()
	}
	if got := m.StreamState(2); got != StateOK {
		t.Fatalf("recovered state = %v, want ok", got)
	}
}

func TestZeroBudgetAnyLossBurns(t *testing.T) {
	m, cs := newTestMonitor(Objective{Stream: 1, Name: "s1", LossTarget: 0})
	for i := 0; i < 3; i++ {
		cs[0].attempts += 100
		cs[0].losses++
		m.Eval()
	}
	if got := m.StreamState(1); got < StateBurning {
		t.Fatalf("zero-budget loss state = %v, want at least burning", got)
	}
}

func TestHealthIsWorstStreamAndTableDeterministic(t *testing.T) {
	m, cs := newTestMonitor(
		Objective{Stream: 3, Name: "s3", LossTarget: 0.1},
		Objective{Stream: 1, Name: "s1", LossTarget: 0.1},
	)
	for i := 0; i < 6; i++ {
		cs[0].attempts += 100
		cs[0].losses += 50 // stream 3 burns
		cs[1].attempts += 100
		m.Eval()
	}
	if m.StreamState(1) != StateOK || m.StreamState(3) == StateOK {
		t.Fatal("only stream 3 should be unhealthy")
	}
	if m.Health() != m.StreamState(3) {
		t.Fatalf("health %v should match worst stream %v", m.Health(), m.StreamState(3))
	}
	a, b := m.Table(), m.Table()
	if a != b {
		t.Fatal("Table not deterministic")
	}
	// Sorted by ID: stream 1 row precedes stream 3 despite track order.
	if strings.Index(a, "\n1    s1") > strings.Index(a, "\n3    s3") {
		t.Fatalf("table rows not sorted by stream ID:\n%s", a)
	}
}

func TestMonitorOnEngineAndInstrument(t *testing.T) {
	eng := sim.NewEngine(42)
	m := NewMonitor("ni-0", Config{})
	c := &counters{}
	m.Track(Objective{Stream: 1, Name: "s1", LossTarget: 0.1}, c.get)
	eng.Every(100*sim.Millisecond, func() { c.attempts += 10; c.losses += 6 })
	m.Start(eng)
	m.Start(eng) // idempotent
	reg := telemetry.New()
	m.Instrument(reg)
	eng.RunUntil(20 * sim.Second)
	m.Stop()
	if m.Health() != StateViolated {
		t.Fatalf("60%% loss for 20s health = %v, want violated", m.Health())
	}
	vals := reg.ValuesText()
	if !strings.Contains(vals, "slo.health 3") ||
		!strings.Contains(vals, "slo.violations_total 1") {
		t.Fatalf("instrumented values:\n%s", vals)
	}
}

// TrackStream reads live scheduler counters, keeps the last reading while the
// stream is off the scheduler, and ignores the rewind when it is re-added with
// fresh counters — so no evaluation sees attempts run backwards.
func TestTrackStreamFreezesOnRemovalAndIgnoresRewind(t *testing.T) {
	var clock sim.Time
	sched := dwcs.New(dwcs.Config{WorkConserving: true, Now: func() sim.Time { return clock }})
	spec := dwcs.StreamSpec{ID: 1, Name: "s1", Period: 40 * sim.Millisecond,
		Loss: fixed.New(1, 2), Lossy: true, BufCap: 16}
	serve := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := sched.Enqueue(1, dwcs.Packet{Bytes: 100}); err != nil {
				t.Fatal(err)
			}
			if d := sched.Schedule(); d.Packet == nil {
				t.Fatalf("frame %d not dispatched: %+v", i, d)
			}
		}
	}
	if err := sched.AddStream(spec); err != nil {
		t.Fatal(err)
	}
	m := NewMonitor("ni-0", Config{})
	m.TrackStream(spec, 0, sched)
	read := m.byID[1].stats

	serve(3)
	// One frame left past its deadline is dropped: a loss and an attempt.
	if err := sched.Enqueue(1, dwcs.Packet{Bytes: 100}); err != nil {
		t.Fatal(err)
	}
	clock += 10 * spec.Period
	if d := sched.Schedule(); len(d.Dropped) != 1 {
		t.Fatalf("late frame not dropped: %+v", d)
	}
	if a, l := read(); a != 4 || l != 1 {
		t.Fatalf("live reading = (%d,%d), want (4,1)", a, l)
	}
	m.Eval()

	if err := sched.RemoveStream(1); err != nil {
		t.Fatal(err)
	}
	if a, l := read(); a != 4 || l != 1 {
		t.Fatalf("reading after removal = (%d,%d), want frozen (4,1)", a, l)
	}

	// Re-added, the scheduler's counters restart at zero: the reading holds
	// until they pass the frozen value.
	if err := sched.AddStream(spec); err != nil {
		t.Fatal(err)
	}
	serve(2)
	if a, l := read(); a != 4 || l != 1 {
		t.Fatalf("reading during rewind = (%d,%d), want held (4,1)", a, l)
	}
	m.Eval()
	if b := m.byID[1].buckets[1]; b.attempts != 0 || b.losses != 0 {
		t.Fatalf("rewind leaked into the window: %+v", b)
	}
	serve(3)
	if a, _ := read(); a != 5 {
		t.Fatalf("attempts past the rewind = %d, want live 5", a)
	}
}

// A Track source that rewinds (a stream revoked and reinstated with fresh
// counters) is a counter restart: the bucket after it is the new reading,
// and no bucket ever goes negative.
func TestTrackRewindIsCounterRestart(t *testing.T) {
	m := NewMonitor("ni-0", Config{})
	c := &counters{}
	m.Track(Objective{Stream: 1, Name: "s1", LossTarget: 0.5}, c.get)
	s := m.byID[1]
	for i, r := range []counters{{100, 10}, {200, 30}, {20, 5}, {20, 5}, {50, 0}, {80, 9}} {
		*c = r
		m.Eval()
		b := s.buckets[(s.next-1+len(s.buckets))%len(s.buckets)]
		if b.attempts < 0 || b.losses < 0 {
			t.Fatalf("eval %d after reading %+v: negative bucket %+v", i, r, b)
		}
		if i == 2 && (b.attempts != 20 || b.losses != 5) {
			t.Fatalf("bucket after the rewind = %+v, want the new reading (20,5)", b)
		}
	}
}
