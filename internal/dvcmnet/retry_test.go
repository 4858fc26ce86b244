package dvcmnet

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// countExt counts executions — the probe for at-most-once semantics.
type countExt struct{ calls int }

func (*countExt) Name() string           { return "count" }
func (*countExt) Attach(*core.VCM) error { return nil }
func (c *countExt) Invoke(op string, arg any) (any, error) {
	c.calls++
	return c.calls, nil
}

func countingNodes(t *testing.T) (*sim.Engine, *Endpoint, *Endpoint, *countExt) {
	t.Helper()
	eng := sim.NewEngine(5)
	sw := netsim.NewSwitch(eng, "san", 90*sim.Microsecond)
	vcm := core.NewVCM("node-b")
	ext := &countExt{}
	if err := vcm.Register(ext); err != nil {
		t.Fatal(err)
	}
	a := Attach(eng, sw, "node-a", nil)
	b := Attach(eng, sw, "node-b", vcm)
	return eng, a, b, ext
}

// TestLateReplyAfterTimeoutIsNoOp: the remote is slower than the caller's
// timeout. The caller must fail exactly once; the reply that eventually
// arrives finds no pending call and is dropped.
func TestLateReplyAfterTimeoutIsNoOp(t *testing.T) {
	eng, a, b, ext := countingNodes(t)
	b.ProcessCost = 10 * sim.Millisecond
	a.Timeout = sim.Millisecond
	calls := 0
	var gotErr error
	a.Invoke("node-b", core.Instr{Ext: "count", Op: "x"}, func(_ any, err error) {
		calls++
		gotErr = err
	})
	eng.Run()
	if calls != 1 {
		t.Fatalf("done callback ran %d times", calls)
	}
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v", gotErr)
	}
	if a.Pending() != 0 {
		t.Fatal("timed-out call left pending")
	}
	if ext.calls != 1 || b.Served != 1 {
		t.Fatalf("remote executed %d times, served=%d", ext.calls, b.Served)
	}
}

// TestDuplicateReplyIsNoOp: a retransmit racing the first (undropped)
// reply produces a second, cached reply on the wire. The first completes
// the call; the duplicate must be ignored, and the instruction must have
// executed exactly once.
func TestDuplicateReplyIsNoOp(t *testing.T) {
	eng, a, b, ext := countingNodes(t)
	a.Timeout = 150 * sim.Microsecond // below the ~300 µs round trip
	a.MaxAttempts = 2
	calls := 0
	a.Invoke("node-b", core.Instr{Ext: "count", Op: "x"}, func(_ any, err error) {
		calls++
		if err != nil {
			t.Errorf("call failed: %v", err)
		}
	})
	eng.Run()
	if calls != 1 {
		t.Fatalf("done callback ran %d times", calls)
	}
	if a.Retried != 1 {
		t.Fatalf("retried = %d, want the one premature retransmit", a.Retried)
	}
	if ext.calls != 1 {
		t.Fatalf("instruction executed %d times under a duplicate request", ext.calls)
	}
	if b.Deduped != 1 {
		t.Fatalf("deduped = %d, want 1", b.Deduped)
	}
	if a.Pending() != 0 {
		t.Fatal("completed call left pending")
	}
}

// TestRetryRidesOutOutage: the remote's link toward the switch is down for
// 3 ms, so its replies are lost; exponential backoff keeps retransmitting
// with the same ID, the dedup cache answers each retransmit without running
// the instruction again, and the first reply sent after the link returns
// completes the call.
func TestRetryRidesOutOutage(t *testing.T) {
	eng, a, b, ext := countingNodes(t)
	b.out.SetDown(true)
	eng.At(3*sim.Millisecond, func() { b.out.SetDown(false) })
	a.Timeout = sim.Millisecond
	a.MaxAttempts = 8
	a.Backoff = sim.Millisecond
	var got any
	var gotErr error
	a.Invoke("node-b", core.Instr{Ext: "count", Op: "x"}, func(res any, err error) {
		got, gotErr = res, err
	})
	eng.Run()
	if gotErr != nil {
		t.Fatalf("call failed across a 3 ms outage: %v", gotErr)
	}
	if got != 1 || ext.calls != 1 {
		t.Fatalf("reply=%v calls=%d, want exactly one execution", got, ext.calls)
	}
	if a.Retried == 0 || b.Deduped == 0 {
		t.Fatalf("retried=%d deduped=%d, want the retransmits answered from the reply cache",
			a.Retried, b.Deduped)
	}
}

// TestBudgetBoundsRetries: with a generous attempt cap but a tight call
// budget, the invocation gives up once the next backoff would land past
// the budget — it must not retry forever against a dead address.
func TestBudgetBoundsRetries(t *testing.T) {
	eng := sim.NewEngine(6)
	sw := netsim.NewSwitch(eng, "san", 10*sim.Microsecond)
	a := Attach(eng, sw, "a", nil)
	a.Timeout = sim.Millisecond
	a.MaxAttempts = 100
	a.Backoff = sim.Millisecond
	a.Budget = 5 * sim.Millisecond
	var gotErr error
	var failedAt sim.Time
	a.Invoke("ghost", core.Instr{Ext: "count"}, func(_ any, err error) {
		gotErr, failedAt = err, eng.Now()
	})
	eng.Run()
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v", gotErr)
	}
	if failedAt > 6*sim.Millisecond {
		t.Fatalf("gave up at %v with a 5 ms budget", failedAt)
	}
	if a.Retried > 4 {
		t.Fatalf("retried %d times inside a 5 ms budget", a.Retried)
	}
	if a.Pending() != 0 {
		t.Fatal("failed call left pending")
	}
}

// TestInFlightRetransmitsAbsorbed: retransmits arriving while the first
// execution is still running are absorbed by the dedup cache — one
// execution, one reply, a successful call.
func TestInFlightRetransmitsAbsorbed(t *testing.T) {
	eng, a, b, ext := countingNodes(t)
	b.ProcessCost = 5 * sim.Millisecond
	a.Timeout = 2 * sim.Millisecond
	a.MaxAttempts = 5
	var gotErr error
	a.Invoke("node-b", core.Instr{Ext: "count", Op: "x"}, func(_ any, err error) {
		gotErr = err
	})
	eng.Run()
	if gotErr != nil {
		t.Fatalf("call failed: %v", gotErr)
	}
	if ext.calls != 1 {
		t.Fatalf("instruction executed %d times", ext.calls)
	}
	if b.Deduped != 2 {
		t.Fatalf("deduped = %d, want both retransmits absorbed in flight", b.Deduped)
	}
}
