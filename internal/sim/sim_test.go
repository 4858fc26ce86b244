package sim

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	e.At(30*Microsecond, func() { got = append(got, e.Now()) })
	e.At(10*Microsecond, func() { got = append(got, e.Now()) })
	e.At(20*Microsecond, func() { got = append(got, e.Now()) })
	e.Run()
	want := []Time{10 * Microsecond, 20 * Microsecond, 30 * Microsecond}
	if len(got) != 3 {
		t.Fatalf("fired %d events, want 3", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTieBreakIsInsertionOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Microsecond, func() { got = append(got, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-time events fired out of insertion order: %v", got)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("After fired at %v, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestCancelSkipsEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Now() != 0 {
		t.Fatalf("clock advanced to %v for cancelled event", e.Now())
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(10, func() { count++ })
	e.At(20, func() { count++ })
	e.At(30, func() { count++ })
	e.RunUntil(20)
	if count != 2 {
		t.Fatalf("fired %d events, want 2", count)
	}
	if e.Now() != 20 {
		t.Fatalf("now = %v, want 20", e.Now())
	}
	e.Run()
	if count != 3 {
		t.Fatalf("fired %d events total, want 3", count)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("now = %v, want 500", e.Now())
	}
}

func TestEveryTicksUntilStopped(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	var stop func()
	stop = e.Every(10, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 3 {
			stop()
		}
	})
	e.Run()
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3: %v", len(ticks), ticks)
	}
	for i, at := range ticks {
		if want := Time(10 * (i + 1)); at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(42)
		var trace []int64
		for i := 0; i < 100; i++ {
			d := Time(e.Rand().Intn(1000) + 1)
			e.After(d, func() { trace = append(trace, int64(e.Now())) })
		}
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "bus")
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(Time(i), func() {
			r.Use(100, func() { order = append(order, i) })
		})
	}
	e.Run()
	if !sort.IntsAreSorted(order) || len(order) != 5 {
		t.Fatalf("grants out of FIFO order: %v", order)
	}
	// 5 sequential 100ns holds finish at 100, 200, ... 500.
	if e.Now() != 500 {
		t.Fatalf("finished at %v, want 500", e.Now())
	}
}

func TestResourceSerializesHolders(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk")
	active := 0
	maxActive := 0
	for i := 0; i < 8; i++ {
		r.Acquire(func() {
			active++
			if active > maxActive {
				maxActive = active
			}
			e.After(10, func() {
				active--
				r.Release()
			})
		})
	}
	e.Run()
	if maxActive != 1 {
		t.Fatalf("resource held by %d at once", maxActive)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "x")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.Release()
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cpu")
	r.Use(100, nil)
	e.Run()
	e.RunUntil(200)
	got := r.Utilization()
	if got < 0.49 || got > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", got)
	}
}

// Under sustained contention — a waiter joins for every one granted — the
// wait queue keeps its backing array instead of reallocating it.
func TestResourceReleaseDoesNotAllocateUnderContention(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "bus")
	granted := func() {}
	for i := 0; i < 5; i++ {
		r.Acquire(granted) // one holder, four waiters
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			r.Release()
			r.Acquire(granted)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per 64 release/acquire pairs, want 0", allocs)
	}
	if r.QueueLen() != 4 {
		t.Errorf("queue length %d, want 4", r.QueueLen())
	}
}

// A finished Use grants the next waiter before its own done runs: the
// waiter's completion is scheduled first, so it takes the lower sequence
// number and fires before anything done schedules for the same instant.
func TestResourceGrantsNextBeforeDone(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "bus")
	var order []string
	r.Use(10, func() {
		if !r.Busy() || r.QueueLen() != 1 {
			t.Errorf("first done: busy=%v queue=%d, want the second Use granted", r.Busy(), r.QueueLen())
		}
		order = append(order, "first done")
		e.After(10, func() { order = append(order, "scheduled by first done") })
	})
	r.Use(10, func() { order = append(order, "second done") })
	granted := false
	r.Acquire(func() { granted = true; order = append(order, "third granted"); r.Release() })
	e.Run()
	want := "first done, third granted, second done, scheduled by first done"
	if got := strings.Join(order, ", "); got != want || !granted {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

// Use under sustained contention allocates nothing: the wait line holds
// requests by value and the completion callback is built once.
func TestResourceUseDoesNotAllocateUnderContention(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "bus")
	done := func() {}
	round := func() {
		for i := 0; i < 5; i++ {
			r.Use(100, done) // one holder, four waiters
		}
		e.Run()
	}
	round() // grow the wait line and the event arena
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%v allocs per five contended Uses, want 0", allocs)
	}
}

// AtArg and AfterArg fire in (time, sequence) order with At, pass their
// argument, and cancel like any event.
func TestAtArg(t *testing.T) {
	e := NewEngine(1)
	var got []string
	note := func(arg any) { got = append(got, fmt.Sprintf("%v@%d", arg, e.Now())) }
	e.AtArg(5, note, "b")
	e.At(5, func() { got = append(got, fmt.Sprintf("fn@%d", e.Now())) })
	e.AfterArg(1, note, "a")
	ev := e.AtArg(7, note, "cancelled")
	if !ev.Scheduled() {
		t.Fatal("AtArg event not scheduled")
	}
	ev.Cancel()
	e.Run()
	if want := "a@1 b@5 fn@5"; strings.Join(got, " ") != want {
		t.Fatalf("fired %q, want %q", strings.Join(got, " "), want)
	}
	if ev.Scheduled() {
		t.Fatal("cancelled AtArg event still scheduled")
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5:               "5ns",
		3 * Microsecond: "3.000µs",
		2 * Millisecond: "2.000ms",
		1 * Second:      "1.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

// Property: RunUntil never runs events scheduled after the horizon.
func TestRunUntilHorizonProperty(t *testing.T) {
	f := func(offsets []uint16, horizon uint16) bool {
		e := NewEngine(7)
		ok := true
		for _, off := range offsets {
			at := Time(off)
			e.At(at, func() {
				if e.Now() > Time(horizon) {
					ok = false
				}
			})
		}
		e.RunUntil(Time(horizon))
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCancelTwiceIsNoop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, func() { fired = true })
	ev.Cancel()
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	ev := e.At(10, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("fired %d times, want 1", count)
	}
	// The arena slot has been recycled; a stale Cancel must not touch it.
	ev.Cancel()
	e.At(20, func() { count++ })
	e.Run()
	if count != 2 {
		t.Fatalf("stale Cancel suppressed a reused slot: count = %d", count)
	}
}

func TestCancelStaleHandleDoesNotTouchReusedSlot(t *testing.T) {
	e := NewEngine(1)
	var stale Event
	fired := 0
	stale = e.At(10, func() {})
	e.Run() // fires and recycles the slot

	// The next scheduled event reuses the same arena slot (LIFO free-list).
	ev2 := e.At(20, func() { fired++ })
	if stale.idx != ev2.idx {
		t.Fatalf("test premise broken: slots %d vs %d (free-list not LIFO?)", stale.idx, ev2.idx)
	}
	stale.Cancel() // generation mismatch: must not cancel ev2
	e.Run()
	if fired != 1 {
		t.Fatalf("stale handle cancelled a newer event in the reused slot (fired=%d)", fired)
	}
}

func TestScheduledReporting(t *testing.T) {
	e := NewEngine(1)
	var zero Event
	if zero.Scheduled() {
		t.Error("zero-value Event reports Scheduled")
	}
	zero.Cancel() // must not panic

	ev := e.At(10, func() {})
	if !ev.Scheduled() {
		t.Error("pending event not Scheduled")
	}
	ev.Cancel()
	if ev.Scheduled() {
		t.Error("cancelled event still Scheduled")
	}

	ev2 := e.At(20, func() {})
	e.Run()
	if ev2.Scheduled() {
		t.Error("fired event still Scheduled")
	}
}

func TestArenaReusesSlots(t *testing.T) {
	e := NewEngine(1)
	// A schedule-inside-callback chain must keep recycling one slot.
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	e.Run()
	if n != 1000 {
		t.Fatalf("ticked %d, want 1000", n)
	}
	if got := len(e.slots); got > 2 {
		t.Errorf("arena grew to %d slots for a steady-state chain, want ≤ 2", got)
	}
}

// Property: the arena kernel replays any (offset, cancel) pattern exactly
// like a reference ordering by (time, seq).
func TestHeapOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine(3)
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, off := range offsets {
			at := Time(off)
			i := i
			e.At(at, func() { got = append(got, rec{e.Now(), i}) })
		}
		e.Run()
		if len(got) != len(offsets) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Drain must release the peak arena capacity a burst left behind, keep the
// clock/seq/RNG intact, and leave pre-Drain handles permanently inert —
// even when the new arena reuses the same slot indices at the same
// generation.
func TestDrainReleasesArenaHighWater(t *testing.T) {
	e := NewEngine(7)
	fired := 0
	var handles []Event
	for i := 0; i < 100000; i++ {
		handles = append(handles, e.At(Time(i), func() { fired++ }))
	}
	e.RunUntil(49999)
	if fired != 50000 {
		t.Fatalf("fired %d of the first 50000", fired)
	}
	if hw := e.ArenaCap(); hw < 50000 {
		t.Fatalf("arena high-water %d, want ≥ 50000 before Drain", hw)
	}
	r1 := e.Rand().Int63()
	e.Drain()
	if hw := e.ArenaCap(); hw != 0 {
		t.Fatalf("arena capacity %d after Drain, want 0", hw)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events pending after Drain", e.Pending())
	}
	if e.Now() != 49999 {
		t.Fatalf("Drain moved the clock to %v", e.Now())
	}
	if r2 := e.Rand().Int63(); r2 == r1 {
		t.Fatal("RNG did not advance — stream reset by Drain?")
	}

	// Regrow: a steady-state chain must stay tiny, not re-inflate.
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			e.After(Microsecond, tick)
		}
	}
	e.After(Microsecond, tick)
	// Stale handles must not cancel post-Drain events, even though slot 0
	// is reused at generation 0 again.
	for _, h := range handles {
		if h.Scheduled() {
			t.Fatal("pre-Drain handle claims to be scheduled")
		}
		h.Cancel()
	}
	e.Run()
	if n != 1000 {
		t.Fatalf("post-Drain chain ticked %d of 1000 — stale handle cancelled a live event", n)
	}
	if hw := e.ArenaCap(); hw > 64 {
		t.Fatalf("arena regrew to %d slots for a steady-state chain", hw)
	}
}

// A sweep that Drains between scenarios must not accumulate arena capacity
// across iterations: the high-water of each scenario is released, not
// summed.
func TestDrainBetweenScenarios(t *testing.T) {
	e := NewEngine(11)
	for round := 0; round < 5; round++ {
		for i := 0; i < 10000; i++ {
			e.After(Time(i), func() {})
		}
		e.Run()
		if hw := e.ArenaCap(); hw < 10000 {
			t.Fatalf("round %d: high-water %d, want ≥ 10000", round, hw)
		}
		e.Drain()
	}
	if hw := e.ArenaCap(); hw != 0 {
		t.Fatalf("capacity %d retained after final Drain", hw)
	}
}

// TryAdvance grants only when nothing can happen before the target: inside
// a run, within its bound, with no pending event — live or cancelled — at or
// before the target.
func TestTryAdvance(t *testing.T) {
	cases := []struct {
		name   string
		at     Time // the callback that asks runs here
		to     Time
		bound  Time // RunUntil bound; 0 drives the engine with one bare Step
		queued Time // a live event queued here when non-zero
		cancel Time // a cancelled event queued here when non-zero
		want   bool
	}{
		{name: "nothing pending", at: 10, to: 50, bound: 100, want: true},
		{name: "up to the inclusive bound", at: 10, to: 100, bound: 100, want: true},
		{name: "beyond the bound", at: 10, to: 101, bound: 100},
		{name: "event exactly at the target", at: 10, to: 50, bound: 100, queued: 50},
		{name: "event before the target", at: 10, to: 50, bound: 100, queued: 30},
		{name: "event just after the target", at: 10, to: 50, bound: 100, queued: 51, want: true},
		{name: "cancelled event at the target", at: 10, to: 50, bound: 100, cancel: 50},
		{name: "cancelled event before the target", at: 10, to: 50, bound: 100, cancel: 20},
		{name: "outside any run", at: 10, to: 50},
	}
	for _, c := range cases {
		e := NewEngine(1)
		var granted bool
		var after Time
		e.At(c.at, func() {
			if c.queued != 0 {
				e.At(c.queued, func() {})
			}
			if c.cancel != 0 {
				e.At(c.cancel, func() {}).Cancel()
			}
			granted = e.TryAdvance(c.to)
			after = e.Now()
		})
		if c.bound == 0 {
			e.Step()
		} else {
			e.RunUntil(c.bound)
		}
		want := c.at
		if c.want {
			want = c.to
		}
		if granted != c.want || after != want {
			t.Errorf("%s: TryAdvance(%v) = %v leaving now %v, want %v and %v", c.name, c.to, granted, after, c.want, want)
		}
	}

	e := NewEngine(1)
	if e.TryAdvance(10) || e.Now() != 0 {
		t.Error("TryAdvance granted on an engine that is not running")
	}
	// Run has no bound; the events after an advance still fire in order.
	var got []Time
	e.At(5, func() {
		if !e.TryAdvance(1000) {
			t.Error("Run refused an advance with nothing pending")
		}
		e.After(1, func() { got = append(got, e.Now()) })
	})
	e.At(2000, func() { got = append(got, e.Now()) })
	e.Run()
	if len(got) != 2 || got[0] != 1001 || got[1] != 2000 {
		t.Errorf("events after an advance fired at %v, want [1001 2000]", got)
	}
	if e.TryAdvance(3000) {
		t.Error("TryAdvance granted after Run returned")
	}
}

func TestRunUntilCancelledHeadStopsAtBound(t *testing.T) {
	// A cancelled event at the head of the heap must not let RunUntil run
	// past its bound: Step's skip-ahead would fire the 30-tick event during
	// RunUntil(15), which under a partitioned topology executes state beyond
	// the conservative safe horizon.
	e := NewEngine(1)
	ev := e.At(10, func() { t.Fatal("cancelled event fired") })
	fired := false
	e.At(30, func() { fired = true })
	ev.Cancel()
	e.RunUntil(15)
	if fired {
		t.Fatal("RunUntil(15) fired an event scheduled at 30")
	}
	if e.Now() != 15 {
		t.Fatalf("now = %v, want 15", e.Now())
	}
	e.RunUntil(40)
	if !fired {
		t.Fatal("event at 30 never fired")
	}
}
