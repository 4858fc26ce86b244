package overload

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

func testBudget() *Budget {
	// size 1000 → high 850, low 700 with the default watermarks.
	return NewBudget("card", 1000)
}

func TestAdmitExactlyAtHighWater(t *testing.T) {
	b := testBudget()
	// Projected footprint landing exactly on the high-water mark is admitted;
	// one byte more is rejected.
	at := StreamCost{State: 50, Slots: 100, Ring: b.HighWater() - 150}
	if err := b.AdmitStream(at); err != nil {
		t.Fatalf("admit at high water: %v", err)
	}
	b.ReleaseStream(at)
	over := at
	over.Ring++
	if err := b.AdmitStream(over); !errors.Is(err, ErrAdmission) {
		t.Fatalf("admit past high water: %v, want ErrAdmission", err)
	}
	if b.Rejects != 1 {
		t.Fatalf("rejects = %d, want 1", b.Rejects)
	}
	if b.Used() != 0 {
		t.Fatalf("used = %d after release, want 0", b.Used())
	}
}

func TestAdmissionChargesStateAndSlotsOnly(t *testing.T) {
	b := testBudget()
	sc := StreamCost{State: 10, Slots: 20, Ring: 500}
	if err := b.AdmitStream(sc); err != nil {
		t.Fatal(err)
	}
	// Ring bytes are mirrored live via the allocator observer, not charged at
	// admission — charging both would double-count.
	if got := b.Used(); got != 30 {
		t.Fatalf("used = %d after admission, want 30 (state+slots)", got)
	}
	if b.UsedClass(ClassStreamState) != 10 || b.UsedClass(ClassQueueSlots) != 20 {
		t.Fatalf("class split = %d/%d, want 10/20",
			b.UsedClass(ClassStreamState), b.UsedClass(ClassQueueSlots))
	}
}

func TestRejectThenRetryViaAwaitSpace(t *testing.T) {
	b := testBudget()
	b.Charge(ClassFrameBuf, 800)
	sc := StreamCost{State: 10, Slots: 10, Ring: 100}
	if err := b.AdmitStream(sc); !errors.Is(err, ErrAdmission) {
		t.Fatalf("admit under pressure: %v", err)
	}
	admitted := false
	b.AwaitSpace(func() {
		if err := b.AdmitStream(sc); err != nil {
			t.Fatalf("retry: %v", err)
		}
		admitted = true
	})
	if admitted {
		t.Fatal("retry fired above the low-water mark")
	}
	// Draining to just above low (701) keeps the waiter enrolled; reaching
	// low (700) fires it.
	b.Release(ClassFrameBuf, 99)
	if admitted {
		t.Fatal("retry fired at 701 used, low water is 700")
	}
	b.Release(ClassFrameBuf, 1)
	if !admitted {
		t.Fatal("retry did not fire at the low-water mark")
	}
	if b.Waiting() != 0 {
		t.Fatalf("waiting = %d, want 0", b.Waiting())
	}
}

func TestReadmissionIsFIFO(t *testing.T) {
	b := testBudget()
	b.Charge(ClassFrameBuf, 900)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		b.AwaitSpace(func() { order = append(order, i) })
	}
	b.Release(ClassFrameBuf, 900)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("fire order = %v, want [0 1 2]", order)
	}
}

func TestAwaitSpaceReenrollDoesNotRecurse(t *testing.T) {
	b := testBudget()
	// The budget is already below low water, so AwaitSpace fires its callback
	// synchronously. A callback whose retry fails re-enrolls from inside
	// drain; the reentrancy guard must absorb that instead of recursing.
	fires := 0
	var retry func()
	retry = func() {
		fires++
		if fires > 3 {
			t.Fatal("callback kept firing inside one drain")
		}
		b.AwaitSpace(retry) // still no room for us: get back in line
	}
	b.AwaitSpace(retry)
	if fires != 1 {
		t.Fatalf("fires = %d, want exactly 1 (re-enrollment waits for the next drain)", fires)
	}
	if b.Waiting() != 1 {
		t.Fatalf("waiting = %d, want 1", b.Waiting())
	}
	// The next release drains again: one more firing, one more re-enrollment.
	b.Charge(ClassFrameBuf, 10)
	b.Release(ClassFrameBuf, 10)
	if fires != 2 {
		t.Fatalf("fires = %d after release, want 2", fires)
	}
}

func TestLedgerConservation(t *testing.T) {
	b := testBudget()
	sc := StreamCost{State: 16, Slots: 64, Ring: 100}
	if err := b.AdmitStream(sc); err != nil {
		t.Fatal(err)
	}
	b.OnAlloc(120)
	b.OnAlloc(80)
	b.OnFree(120)
	b.Leak(33)
	b.Charge(ClassFrameBuf, 7)
	charged, released := b.Ledger()
	if charged-released != b.Used() {
		t.Fatalf("charged %d - released %d != used %d", charged, released, b.Used())
	}
	b.OnFree(80)
	b.OnFree(7)
	if got := b.ReclaimLeak(); got != 33 {
		t.Fatalf("reclaimed %d, want 33", got)
	}
	b.ReleaseStream(sc)
	charged, released = b.Ledger()
	if b.Used() != 0 || charged != released {
		t.Fatalf("after full teardown: used=%d charged=%d released=%d", b.Used(), charged, released)
	}
	if b.Breaches != 0 {
		t.Fatalf("breaches = %d, want 0", b.Breaches)
	}
}

func TestChargeRefusalAndBreachAccounting(t *testing.T) {
	b := testBudget()
	if err := b.Charge(ClassFrameBuf, 1001); !errors.Is(err, ErrBudget) {
		t.Fatalf("overcharge: %v, want ErrBudget", err)
	}
	if b.Used() != 0 || b.Breaches != 1 {
		t.Fatalf("used=%d breaches=%d after refused charge", b.Used(), b.Breaches)
	}
	// Physical allocations can't be refused: they apply and count a breach.
	b.OnAlloc(1001)
	if b.Used() != 1001 || b.Breaches != 2 {
		t.Fatalf("used=%d breaches=%d after observed overflow", b.Used(), b.Breaches)
	}
}

func TestOverReleasePanics(t *testing.T) {
	b := testBudget()
	b.Charge(ClassFrameBuf, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	b.Release(ClassFrameBuf, 11)
}

func TestBackpressureHysteresis(t *testing.T) {
	bp := &Backpressure{High: 10, Low: 4}
	if bp.Update(9) {
		t.Fatal("engaged below high")
	}
	if !bp.Update(10) {
		t.Fatal("not engaged at high")
	}
	// Stays engaged through the dead band.
	if !bp.Update(5) {
		t.Fatal("released above low")
	}
	if bp.Update(4) {
		t.Fatal("not released at low")
	}
	// And doesn't re-engage until high again.
	if bp.Update(9) {
		t.Fatal("re-engaged below high")
	}
	if bp.Engages != 1 || bp.Releases != 1 {
		t.Fatalf("engages=%d releases=%d, want 1/1", bp.Engages, bp.Releases)
	}
}

func TestLadderSustainAndReversal(t *testing.T) {
	l := NewLadder() // escalate 0.90, clear 0.75, sustain 3
	for i := 0; i < 2; i++ {
		if got := l.Evaluate(0.95); got != RungNone {
			t.Fatalf("eval %d: rung %v before sustain", i, got)
		}
	}
	if got := l.Evaluate(0.95); got != RungShed {
		t.Fatalf("rung %v after sustained pressure, want shed", got)
	}
	// Dead-band samples freeze the ladder and reset both counters.
	l.Evaluate(0.95)
	l.Evaluate(0.80)
	if got := l.Evaluate(0.95); got != RungShed {
		t.Fatalf("dead band did not reset the hot counter (rung %v)", got)
	}
	// Climb to the top, then clear back down to none.
	for l.Rung() < RungRevoke {
		l.Evaluate(0.95)
	}
	for i := 0; l.Rung() > RungNone; i++ {
		l.Evaluate(0.10)
		if i > 100 {
			t.Fatal("ladder never cleared")
		}
	}
	if l.Transitions != 8 {
		t.Fatalf("transitions = %d, want 8 (4 up + 4 down)", l.Transitions)
	}
}

func TestControllerRevokesAndReinstatesOnePerEval(t *testing.T) {
	c := NewController("card", 1000)
	// Pin pressure through budget occupancy alone: 850 of 850 high water.
	c.Budget.Charge(ClassFrameBuf, 850)
	live := 3
	c.Hooks.Revoke = func() bool {
		if live == 0 {
			return false
		}
		live--
		return true
	}
	c.Hooks.Reinstate = func() bool {
		live++
		return true
	}
	// Climb: 3 evals per rung, 4 rungs. Revocation starts only at the top,
	// one stream per evaluation.
	for i := 0; i < 12; i++ {
		c.Evaluate()
	}
	if c.Ladder.Rung() != RungRevoke {
		t.Fatalf("rung %v after sustained pressure", c.Ladder.Rung())
	}
	if c.Revoked != 1 {
		t.Fatalf("revoked = %d at the transition eval, want 1", c.Revoked)
	}
	c.Evaluate()
	c.Evaluate()
	if c.Revoked != 3 || live != 0 {
		t.Fatalf("revoked = %d live = %d, want 3/0", c.Revoked, live)
	}
	// Pressure clears: the ladder steps down and reinstates one per eval
	// once below the revoke rung.
	c.Budget.Release(ClassFrameBuf, 850)
	for i := 0; c.Reinstated < c.Revoked; i++ {
		c.Evaluate()
		if i > 100 {
			t.Fatal("revocations never reversed")
		}
	}
	if live != 3 {
		t.Fatalf("live = %d after recovery, want 3", live)
	}
}

func TestAllowSourceGatesOnBudgetAndBackpressure(t *testing.T) {
	c := NewController("card", 1000)
	if !c.AllowSource(1000) {
		t.Fatal("fresh controller gated a fitting fetch")
	}
	if c.AllowSource(1001) {
		t.Fatal("fetch past the absolute budget allowed")
	}
	c.BP.Update(c.BP.High)
	if c.AllowSource(1) {
		t.Fatal("fetch allowed with backpressure engaged")
	}
	if c.SourceStalls != 2 {
		t.Fatalf("source stalls = %d, want 2", c.SourceStalls)
	}
}

// The mem-leak drip never breaches: each drip is clamped to the free bytes,
// stop halts it even once space opens up, and ReclaimLeak returns every
// byte it dripped.
func TestDripClampsStopsAndReclaims(t *testing.T) {
	eng := sim.NewEngine(1)
	b := testBudget() // 1000 bytes
	if err := b.Charge(ClassFrameBuf, 300); err != nil {
		t.Fatal(err)
	}
	// 1 KB/s in 100 ms drips is 102 bytes a drip: six fit the 700 free
	// bytes whole, the seventh is clamped to the 88 left.
	stop := b.Drip(eng, 100*sim.Millisecond, 1)
	eng.RunUntil(650 * sim.Millisecond)
	if got := b.UsedClass(ClassLeak); got != 6*102 {
		t.Fatalf("leaked %d after six drips, want %d", got, 6*102)
	}
	eng.RunUntil(sim.Second)
	if b.UsedClass(ClassLeak) != 700 || b.Used() != b.Size() || b.Breaches != 0 {
		t.Fatalf("leak %d, used %d of %d, %d breaches: want the free 700 bytes and no breach",
			b.UsedClass(ClassLeak), b.Used(), b.Size(), b.Breaches)
	}
	stop()
	b.Release(ClassFrameBuf, 300)
	eng.RunUntil(2 * sim.Second)
	if got := b.UsedClass(ClassLeak); got != 700 {
		t.Fatalf("leak grew to %d after stop", got)
	}
	if n := b.ReclaimLeak(); n != 700 || b.Used() != 0 {
		t.Fatalf("reclaimed %d, %d left; want 700 and 0", n, b.Used())
	}
}

func TestBlackboxClassAccounting(t *testing.T) {
	b := NewBudget("card", 1<<20)
	if err := b.Charge(ClassBlackbox, 16<<10); err != nil {
		t.Fatalf("charge: %v", err)
	}
	if got := b.UsedClass(ClassBlackbox); got != 16<<10 {
		t.Fatalf("UsedClass(ClassBlackbox) = %d, want %d", got, 16<<10)
	}
	if ClassBlackbox.String() != "blackbox" {
		t.Fatalf("ClassBlackbox.String() = %q", ClassBlackbox.String())
	}
	b.Release(ClassBlackbox, 16<<10)
	if b.Used() != 0 {
		t.Fatalf("Used = %d after release, want 0", b.Used())
	}
	charged, released := b.Ledger()
	if charged != released {
		t.Fatalf("ledger conservation: charged %d != released %d", charged, released)
	}
}
