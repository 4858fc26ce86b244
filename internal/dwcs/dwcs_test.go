package dwcs

import (
	"errors"
	"testing"

	"repro/internal/fixed"
	"repro/internal/sim"
)

// testClock is a settable clock for driving the scheduler directly.
type testClock struct{ now sim.Time }

func (c *testClock) Now() sim.Time { return c.now }

func newScheduler(clk *testClock, mutate ...func(*Config)) *Scheduler {
	cfg := Config{WorkConserving: true, Now: clk.Now}
	for _, m := range mutate {
		m(&cfg)
	}
	return New(cfg)
}

func mustAdd(t *testing.T, s *Scheduler, spec StreamSpec) {
	t.Helper()
	if err := s.AddStream(spec); err != nil {
		t.Fatalf("AddStream(%+v): %v", spec, err)
	}
}

func mustEnqueue(t *testing.T, s *Scheduler, id int, p Packet) {
	t.Helper()
	if err := s.Enqueue(id, p); err != nil {
		t.Fatalf("Enqueue(%d): %v", id, err)
	}
}

func spec(id int, period sim.Time, loss fixed.Frac) StreamSpec {
	return StreamSpec{ID: id, Period: period, Loss: loss, Lossy: true, BufCap: 32}
}

func TestAddStreamValidation(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	bad := []StreamSpec{
		{ID: 1, Period: 0, BufCap: 4},
		{ID: 1, Period: -1, BufCap: 4},
		{ID: 1, Period: 1, BufCap: 0},
		{ID: 1, Period: 1, BufCap: 4, Loss: fixed.New(3, 2)},  // x > y
		{ID: 1, Period: 1, BufCap: 4, Loss: fixed.New(-1, 2)}, // negative
	}
	for i, sp := range bad {
		if err := s.AddStream(sp); !errors.Is(err, ErrBadSpec) {
			t.Errorf("spec %d: err = %v, want ErrBadSpec", i, err)
		}
	}
	mustAdd(t, s, spec(1, sim.Millisecond, fixed.New(1, 2)))
	if err := s.AddStream(spec(1, sim.Millisecond, fixed.New(1, 2))); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate: %v", err)
	}
}

func TestZeroLossFracMeansNoLossAllowed(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	mustAdd(t, s, StreamSpec{ID: 1, Period: sim.Millisecond, BufCap: 4, Lossy: true})
	x, y, err := s.Window(1)
	if err != nil || x != 0 || y != 1 {
		t.Fatalf("window = %d/%d, %v; want 0/1", x, y, err)
	}
}

func TestEnqueueUnknownStream(t *testing.T) {
	s := newScheduler(&testClock{})
	if err := s.Enqueue(42, Packet{}); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Stats(42); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("Stats err = %v", err)
	}
	if _, _, err := s.Window(42); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("Window err = %v", err)
	}
	if err := s.RemoveStream(42); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("Remove err = %v", err)
	}
}

func TestEnqueueFullRing(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	sp := spec(1, sim.Millisecond, fixed.New(1, 2))
	sp.BufCap = 2
	mustAdd(t, s, sp)
	mustEnqueue(t, s, 1, Packet{})
	mustEnqueue(t, s, 1, Packet{})
	if err := s.Enqueue(1, Packet{}); !errors.Is(err, ErrBufferFull) {
		t.Fatalf("err = %v", err)
	}
	st, _ := s.Stats(1)
	if st.RejectedFull != 1 {
		t.Fatalf("RejectedFull = %d", st.RejectedFull)
	}
	if s.QueueLen(1) != 2 || s.Len() != 2 {
		t.Fatalf("queue len = %d/%d", s.QueueLen(1), s.Len())
	}
}

func TestDeadlinesOffsetByPeriod(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	T := 10 * sim.Millisecond
	mustAdd(t, s, spec(1, T, fixed.New(1, 2)))
	for i := 0; i < 3; i++ {
		mustEnqueue(t, s, 1, Packet{})
	}
	for i := 1; i <= 3; i++ {
		d := s.Schedule()
		if d.Packet == nil {
			t.Fatalf("dispatch %d missing", i)
		}
		if want := sim.Time(i) * T; d.Packet.Deadline != want {
			t.Fatalf("packet %d deadline = %v, want %v", i, d.Packet.Deadline, want)
		}
	}
}

func TestStarvedStreamDeadlineRestartsFromNow(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	T := 10 * sim.Millisecond
	mustAdd(t, s, spec(1, T, fixed.New(1, 2)))
	mustEnqueue(t, s, 1, Packet{})
	s.Schedule()
	// Producer silent for a long time; next packet must not inherit a stale
	// deadline chain.
	clk.now = sim.Second
	mustEnqueue(t, s, 1, Packet{})
	d := s.Schedule()
	if d.Packet.Deadline != sim.Second+T {
		t.Fatalf("deadline = %v, want %v", d.Packet.Deadline, sim.Second+T)
	}
}

// Precedence: lowest window-constraint first (LossFirst variant).
func TestLossFirstPrefersTightestConstraint(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	mustAdd(t, s, spec(1, sim.Millisecond, fixed.New(1, 2))) // 0.5
	mustAdd(t, s, spec(2, sim.Millisecond, fixed.New(1, 4))) // 0.25 — tighter
	mustAdd(t, s, spec(3, sim.Millisecond, fixed.New(0, 1))) // zero — tightest
	for id := 1; id <= 3; id++ {
		mustEnqueue(t, s, id, Packet{})
	}
	want := []int{3, 2, 1}
	for i, id := range want {
		d := s.Schedule()
		if d.Packet == nil || d.Packet.StreamID != id {
			t.Fatalf("dispatch %d = %+v, want stream %d", i, d.Packet, id)
		}
	}
}

func TestEqualLossBreaksTiesEDF(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	mustAdd(t, s, spec(1, 20*sim.Millisecond, fixed.New(1, 2)))
	mustAdd(t, s, spec(2, 10*sim.Millisecond, fixed.New(1, 2))) // earlier deadline
	mustEnqueue(t, s, 1, Packet{})
	mustEnqueue(t, s, 2, Packet{})
	if d := s.Schedule(); d.Packet.StreamID != 2 {
		t.Fatalf("got stream %d, want 2 (EDF tie-break)", d.Packet.StreamID)
	}
}

func TestZeroConstraintsEqualDeadlinesHighestDenominatorFirst(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	mustAdd(t, s, spec(1, 10*sim.Millisecond, fixed.New(0, 2)))
	mustAdd(t, s, spec(2, 10*sim.Millisecond, fixed.New(0, 5))) // bigger window of must-send
	mustEnqueue(t, s, 1, Packet{})
	mustEnqueue(t, s, 2, Packet{})
	if d := s.Schedule(); d.Packet.StreamID != 2 {
		t.Fatalf("got stream %d, want 2 (highest denominator)", d.Packet.StreamID)
	}
}

func TestEqualNonZeroConstraintsLowestNumeratorFirst(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	mustAdd(t, s, spec(1, 10*sim.Millisecond, fixed.New(2, 4))) // = 1/2, numerator 2
	mustAdd(t, s, spec(2, 10*sim.Millisecond, fixed.New(1, 2))) // = 1/2, numerator 1
	mustEnqueue(t, s, 1, Packet{})
	mustEnqueue(t, s, 2, Packet{})
	if d := s.Schedule(); d.Packet.StreamID != 2 {
		t.Fatalf("got stream %d, want 2 (lowest numerator)", d.Packet.StreamID)
	}
}

func TestFCFSFallback(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	mustAdd(t, s, spec(1, 10*sim.Millisecond, fixed.New(1, 2)))
	mustAdd(t, s, spec(2, 10*sim.Millisecond, fixed.New(1, 2)))
	clk.now = 1
	mustEnqueue(t, s, 2, Packet{}) // same deadline base? no — arrives first
	clk.now = 2
	mustEnqueue(t, s, 1, Packet{})
	// Deadlines differ (now+T), so EDF picks stream 2 anyway; to isolate
	// FCFS we need equal deadlines and equal windows, covered by enqueueing
	// at the same instant with same period: both at clk 2.
	s2 := newScheduler(&testClock{})
	mustAdd(t, s2, spec(1, 10*sim.Millisecond, fixed.New(1, 2)))
	mustAdd(t, s2, spec(2, 10*sim.Millisecond, fixed.New(1, 2)))
	mustEnqueue(t, s2, 2, Packet{})
	mustEnqueue(t, s2, 1, Packet{})
	// Identical loss, deadline, numerator: FCFS by enqueue order — but both
	// enqueued at time 0; order falls back to equal, scan keeps the first
	// best (stream 2 was enqueued first but scan order is insertion order
	// of streams). With equal keys the scan retains stream 1.
	d := s2.Schedule()
	if d.Packet == nil {
		t.Fatal("no dispatch")
	}
}

func TestEDFFirstVariantPrefersEarlierDeadline(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk, func(c *Config) { c.Precedence = EDFFirst })
	// Tight loss but later deadline vs loose loss with earlier deadline.
	mustAdd(t, s, spec(1, 20*sim.Millisecond, fixed.New(0, 1)))
	mustAdd(t, s, spec(2, 10*sim.Millisecond, fixed.New(3, 4)))
	mustEnqueue(t, s, 1, Packet{})
	mustEnqueue(t, s, 2, Packet{})
	if d := s.Schedule(); d.Packet.StreamID != 2 {
		t.Fatalf("EDFFirst got stream %d, want 2", d.Packet.StreamID)
	}
	// The LossFirst variant makes the opposite choice.
	s2 := newScheduler(&testClock{})
	mustAdd(t, s2, spec(1, 20*sim.Millisecond, fixed.New(0, 1)))
	mustAdd(t, s2, spec(2, 10*sim.Millisecond, fixed.New(3, 4)))
	mustEnqueue(t, s2, 1, Packet{})
	mustEnqueue(t, s2, 2, Packet{})
	if d := s2.Schedule(); d.Packet.StreamID != 1 {
		t.Fatalf("LossFirst got stream %d, want 1", d.Packet.StreamID)
	}
}

func TestServiceWindowAdjustment(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	mustAdd(t, s, spec(1, 10*sim.Millisecond, fixed.New(1, 3)))
	for i := 0; i < 4; i++ {
		mustEnqueue(t, s, 1, Packet{})
	}
	check := func(wx, wy int64) {
		t.Helper()
		x, y, _ := s.Window(1)
		if x != wx || y != wy {
			t.Fatalf("window = %d/%d, want %d/%d", x, y, wx, wy)
		}
	}
	check(1, 3)
	s.Schedule() // served on time: y'-- → 1/2
	check(1, 2)
	s.Schedule() // y'-- → 1/1 == x' → reset
	check(1, 3)
}

func TestZeroToleranceWindowCyclesOnService(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	mustAdd(t, s, spec(1, 10*sim.Millisecond, fixed.New(0, 2)))
	for i := 0; i < 2; i++ {
		mustEnqueue(t, s, 1, Packet{})
	}
	s.Schedule()
	if x, y, _ := s.Window(1); x != 0 || y != 1 {
		t.Fatalf("window = %d/%d, want 0/1", x, y)
	}
	s.Schedule()
	if x, y, _ := s.Window(1); x != 0 || y != 2 {
		t.Fatalf("window = %d/%d, want reset 0/2", x, y)
	}
}

func TestLossyStreamDropsLatePackets(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	T := 10 * sim.Millisecond
	mustAdd(t, s, spec(1, T, fixed.New(2, 3)))
	for i := 0; i < 3; i++ {
		mustEnqueue(t, s, 1, Packet{Bytes: 100})
	}
	// Let the first two deadlines (10ms, 20ms) pass.
	clk.now = 25 * sim.Millisecond
	d := s.Schedule()
	if len(d.Dropped) != 2 {
		t.Fatalf("dropped = %d, want 2", len(d.Dropped))
	}
	if d.Packet == nil || d.Packet.Deadline != 3*T {
		t.Fatalf("dispatched %+v, want the 30ms-deadline packet", d.Packet)
	}
	st, _ := s.Stats(1)
	if st.Dropped != 2 || st.Serviced != 1 || st.Violations != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Window: two misses consumed the loss budget: 2/3 → 1/2 → 0/1, then
	// service of the last packet resets 0/1 → 0/... reset to 2/3.
	if x, y, _ := s.Window(1); x != 2 || y != 3 {
		t.Fatalf("window = %d/%d, want 2/3 (reset)", x, y)
	}
}

func TestViolationWhenZeroBudgetMisses(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	mustAdd(t, s, spec(1, 10*sim.Millisecond, fixed.New(0, 4)))
	mustEnqueue(t, s, 1, Packet{})
	clk.now = 50 * sim.Millisecond
	d := s.Schedule()
	if len(d.Dropped) != 1 {
		t.Fatalf("dropped = %d, want 1", len(d.Dropped))
	}
	st, _ := s.Stats(1)
	if st.Violations != 1 {
		t.Fatalf("violations = %d, want 1", st.Violations)
	}
}

func TestLosslessStreamTransmitsLate(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	sp := spec(1, 10*sim.Millisecond, fixed.New(1, 2))
	sp.Lossy = false
	mustAdd(t, s, sp)
	mustEnqueue(t, s, 1, Packet{Bytes: 42})
	clk.now = 50 * sim.Millisecond
	d := s.Schedule()
	if d.Packet == nil || !d.Late {
		t.Fatalf("decision = %+v, want late dispatch", d)
	}
	if len(d.Dropped) != 0 {
		t.Fatal("lossless stream must not drop")
	}
	st, _ := s.Stats(1)
	if st.Late != 1 || st.Dropped != 0 || st.Serviced != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLosslessMissAdjustsWindowOnlyOnce(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	sp := spec(1, 10*sim.Millisecond, fixed.New(2, 4))
	sp.Lossy = false
	mustAdd(t, s, sp)
	mustEnqueue(t, s, 1, Packet{})
	mustEnqueue(t, s, 1, Packet{}) // keeps the queue non-empty
	clk.now = 15 * sim.Millisecond
	// Several scheduling passes over the same missed head must not
	// repeatedly debit the window. First Schedule dispatches the late head,
	// so instead use a second stream to win the dispatch.
	mustAdd(t, s, spec(2, sim.Millisecond, fixed.New(0, 1)))
	mustEnqueue(t, s, 2, Packet{})
	s.Schedule() // dispatches stream 2 (zero constraint), processes stream 1 miss
	if x, y, _ := s.Window(1); x != 1 || y != 3 {
		t.Fatalf("window = %d/%d, want 1/3 after single miss", x, y)
	}
	mustEnqueue(t, s, 2, Packet{})
	s.Schedule()
	if x, y, _ := s.Window(1); x != 1 || y != 3 {
		t.Fatalf("window = %d/%d, want 1/3 (no double debit)", x, y)
	}
}

func TestPacedModeWaitsForEligibility(t *testing.T) {
	clk := &testClock{}
	s := New(Config{Now: clk.Now}) // paced (not work-conserving)
	T := 10 * sim.Millisecond
	mustAdd(t, s, spec(1, T, fixed.New(1, 2)))
	mustEnqueue(t, s, 1, Packet{})
	d := s.Schedule()
	if d.Packet != nil {
		t.Fatal("dispatched before eligibility")
	}
	if d.WaitUntil != T {
		t.Fatalf("WaitUntil = %v, want %v", d.WaitUntil, T)
	}
	clk.now = T
	d = s.Schedule()
	if d.Packet == nil || d.Late {
		t.Fatalf("decision at deadline = %+v, want on-time dispatch", d)
	}
}

func TestPacedModeEligibleEarly(t *testing.T) {
	clk := &testClock{}
	early := 4 * sim.Millisecond
	s := New(Config{Now: clk.Now, EligibleEarly: early})
	T := 10 * sim.Millisecond
	mustAdd(t, s, spec(1, T, fixed.New(1, 2)))
	mustEnqueue(t, s, 1, Packet{})
	d := s.Schedule()
	if d.WaitUntil != T-early {
		t.Fatalf("WaitUntil = %v, want %v", d.WaitUntil, T-early)
	}
	clk.now = T - early
	if d = s.Schedule(); d.Packet == nil {
		t.Fatal("not dispatched at eligibility")
	}
}

func TestPacedRateMatchesPeriod(t *testing.T) {
	clk := &testClock{}
	s := New(Config{Now: clk.Now})
	T := 10 * sim.Millisecond
	mustAdd(t, s, spec(1, T, fixed.New(1, 2)))
	for i := 0; i < 5; i++ {
		mustEnqueue(t, s, 1, Packet{Bytes: 1000})
	}
	var dispatches []sim.Time
	for len(dispatches) < 5 {
		d := s.Schedule()
		switch {
		case d.Packet != nil:
			dispatches = append(dispatches, clk.now)
		case d.WaitUntil > 0:
			clk.now = d.WaitUntil
		default:
			t.Fatal("scheduler idle with packets queued")
		}
	}
	for i, at := range dispatches {
		if want := sim.Time(i+1) * T; at != want {
			t.Fatalf("dispatch %d at %v, want %v", i, at, want)
		}
	}
}

func TestIdleDecision(t *testing.T) {
	s := newScheduler(&testClock{})
	mustAdd(t, s, spec(1, sim.Millisecond, fixed.New(1, 2)))
	d := s.Schedule()
	if !d.Idle() {
		t.Fatalf("decision = %+v, want idle", d)
	}
}

func TestDispatchedPacketSurvivesSlotReuse(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	mustAdd(t, s, spec(1, sim.Millisecond, fixed.New(1, 2)))
	mustEnqueue(t, s, 1, Packet{Bytes: 111})
	d := s.Schedule()
	// Re-using the freed descriptor slot must not mutate the returned packet.
	mustEnqueue(t, s, 1, Packet{Bytes: 999})
	if d.Packet.Bytes != 111 {
		t.Fatalf("dispatched packet mutated: %+v", d.Packet)
	}
}

func TestRemoveStreamFreesDescriptors(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	mustAdd(t, s, spec(1, sim.Millisecond, fixed.New(1, 2)))
	mustEnqueue(t, s, 1, Packet{})
	mustEnqueue(t, s, 1, Packet{})
	if err := s.RemoveStream(1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, s, spec(2, sim.Millisecond, fixed.New(1, 2)))
	mustEnqueue(t, s, 2, Packet{})
	mustEnqueue(t, s, 2, Packet{})
	if got := s.StreamIDs(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("StreamIDs = %v", got)
	}
	// The removed stream's two descriptors were reused, not appended.
	if len(s.table) != 2 {
		t.Fatalf("descriptor table grew to %d slots, want 2", len(s.table))
	}
}

func TestQueueLenUnknownStream(t *testing.T) {
	s := newScheduler(&testClock{})
	if s.QueueLen(9) != 0 {
		t.Fatal("unknown stream should report 0")
	}
}

func TestPrecedenceAndSelectorStrings(t *testing.T) {
	if LossFirst.String() != "lossFirst" || EDFFirst.String() != "edfFirst" {
		t.Error("precedence names")
	}
	if Precedence(9).String() != "Precedence(9)" {
		t.Error("unknown precedence name")
	}
	if Scan.String() != "scan" || Heaps.String() != "heaps" {
		t.Error("selector names")
	}
}

func TestReconfigureChangesRateAndWindow(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	mustAdd(t, s, spec(1, 10*sim.Millisecond, fixed.New(1, 2)))
	mustEnqueue(t, s, 1, Packet{}) // deadline 10ms under the old period
	if err := s.Reconfigure(1, 40*sim.Millisecond, fixed.New(2, 5)); err != nil {
		t.Fatal(err)
	}
	if x, y, _ := s.Window(1); x != 2 || y != 5 {
		t.Fatalf("window = %d/%d, want restarted 2/5", x, y)
	}
	// The queued packet keeps its old deadline; the next one is spaced by
	// the new period from it.
	d1 := s.Schedule()
	if d1.Packet.Deadline != 10*sim.Millisecond {
		t.Fatalf("old packet deadline = %v", d1.Packet.Deadline)
	}
	mustEnqueue(t, s, 1, Packet{})
	d2 := s.Schedule()
	if d2.Packet.Deadline != 50*sim.Millisecond {
		t.Fatalf("new packet deadline = %v, want 50ms", d2.Packet.Deadline)
	}
}

func TestReconfigureValidation(t *testing.T) {
	s := newScheduler(&testClock{})
	mustAdd(t, s, spec(1, 10*sim.Millisecond, fixed.New(1, 2)))
	if err := s.Reconfigure(9, sim.Millisecond, fixed.New(1, 2)); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("unknown stream: %v", err)
	}
	if err := s.Reconfigure(1, 0, fixed.New(1, 2)); !errors.Is(err, ErrBadSpec) {
		t.Errorf("zero period: %v", err)
	}
	if err := s.Reconfigure(1, sim.Millisecond, fixed.New(5, 2)); !errors.Is(err, ErrBadSpec) {
		t.Errorf("bad loss: %v", err)
	}
	// Failed reconfigure leaves the stream untouched.
	if x, y, _ := s.Window(1); x != 1 || y != 2 {
		t.Fatalf("window mutated by failed reconfigure: %d/%d", x, y)
	}
}

// Every way an enqueue can be refused returns an error built in advance:
// a rejected frame allocates nothing, and errors.Is still classifies it.
func TestRejectedEnqueueDoesNotAllocate(t *testing.T) {
	ring := newScheduler(&testClock{})
	full := spec(1, sim.Millisecond, fixed.New(1, 2))
	full.BufCap = 2
	mustAdd(t, ring, full)
	mustEnqueue(t, ring, 1, Packet{})
	mustEnqueue(t, ring, 1, Packet{})
	cases := []struct {
		name string
		s    *Scheduler
		id   int
		want error
		msg  string
	}{
		{"ring full", ring, 1, ErrBufferFull, "dwcs: stream buffer full: stream 1 ring (cap 2)"},
		{"unknown stream", ring, 42, ErrUnknownStream, "dwcs: unknown stream"},
	}
	for _, c := range cases {
		var err error
		allocs := testing.AllocsPerRun(100, func() { err = c.s.Enqueue(c.id, Packet{Bytes: 1000}) })
		if !errors.Is(err, c.want) || err.Error() != c.msg {
			t.Errorf("%s: err = %q, want %q (%v)", c.name, err, c.msg, c.want)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per rejected enqueue, want 0", c.name, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { ring.Pause(42); ring.Stats(42) }); allocs != 0 {
		t.Errorf("%v allocs per unknown-stream Pause and Stats, want 0", allocs)
	}
}

// A steady-state decision allocates nothing: the dispatched packet is the
// scheduler's own copy, valid until the next decision.
func TestScheduleDoesNotAllocate(t *testing.T) {
	clk := &testClock{}
	s := newScheduler(clk)
	for id := 1; id <= 4; id++ {
		mustAdd(t, s, spec(id, sim.Millisecond, fixed.New(1, 2)))
	}
	round := func() {
		for id := 1; id <= 4; id++ {
			s.Enqueue(id, Packet{Bytes: 1000})
		}
		for s.Schedule().Packet != nil {
		}
		clk.now += sim.Millisecond
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%v allocs per four enqueues and decisions, want 0", allocs)
	}
	if st, _ := s.Stats(1); st.Serviced != 102 {
		t.Errorf("stream 1 serviced %d, want 102", st.Serviced)
	}
}
