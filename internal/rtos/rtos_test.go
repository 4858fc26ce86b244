package rtos

import (
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// seq is a step body that runs ops in order, one per call, and then ends.
// Each op makes at most one blocking call or burst, and makes it last, so
// the ops read as the straight-line body they split.
func seq(ops ...func(tc *TaskCtx)) func(*TaskCtx) bool {
	i := 0
	return func(tc *TaskCtx) bool {
		if i == len(ops) {
			return false
		}
		i++
		ops[i-1](tc)
		return true
	}
}

// repeat lists ops n times over, for seq.
func repeat(n int, ops ...func(tc *TaskCtx)) []func(*TaskCtx) {
	var all []func(*TaskCtx)
	for range n {
		all = append(all, ops...)
	}
	return all
}

// run returns an op that runs a d burst.
func run(d sim.Time) func(*TaskCtx) { return func(tc *TaskCtx) { tc.Run(d) } }

func TestSingleTaskRuns(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	ran := false
	k.SpawnStep("t", 100, seq(run(10*sim.Microsecond), func(*TaskCtx) { ran = true }))
	eng.Run()
	if !ran {
		t.Fatal("task did not run")
	}
	if eng.Now() != 10*sim.Microsecond {
		t.Fatalf("now = %v", eng.Now())
	}
}

func TestPriorityOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	var order []string
	for _, spec := range []struct {
		name string
		prio int
	}{{"low", 200}, {"high", 50}, {"mid", 100}} {
		spec := spec
		k.SpawnStep(spec.name, spec.prio, seq(func(tc *TaskCtx) {
			order = append(order, spec.name)
			tc.Run(sim.Microsecond)
		}))
	}
	eng.Run()
	want := []string{"high", "mid", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunHoldsCPUExclusively(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	var aDone, bStart sim.Time
	k.SpawnStep("a", 10, seq(run(100*sim.Microsecond), func(tc *TaskCtx) { aDone = tc.Now() }))
	k.SpawnStep("b", 20, seq(func(tc *TaskCtx) {
		bStart = tc.Now()
		tc.Run(50 * sim.Microsecond)
	}))
	eng.Run()
	if bStart < aDone {
		t.Fatalf("b started at %v before a finished at %v", bStart, aDone)
	}
}

func TestSleepYieldsCPU(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	var trace []string
	k.SpawnStep("sleeper", 10, seq(func(tc *TaskCtx) {
		trace = append(trace, "s1")
		tc.Sleep(100 * sim.Microsecond)
	}, func(*TaskCtx) { trace = append(trace, "s2") }))
	k.SpawnStep("worker", 20, seq(run(10*sim.Microsecond), func(*TaskCtx) { trace = append(trace, "w") }))
	eng.Run()
	want := []string{"s1", "w", "s2"}
	if len(trace) != 3 || trace[0] != want[0] || trace[1] != want[1] || trace[2] != want[2] {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestHigherPriorityWakeupPreemptsAtBoundary(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	var highRanAt sim.Time
	k.SpawnStep("high", 10, seq(func(tc *TaskCtx) { tc.Sleep(30 * sim.Microsecond) },
		func(tc *TaskCtx) { highRanAt = tc.Now() }))
	// Bursts; preemption at boundaries.
	k.SpawnStep("low", 200, seq(repeat(10, run(10*sim.Microsecond))...))
	eng.Run()
	// high wakes at 30µs, exactly a burst boundary of low; it must run
	// right there, not after all of low's bursts (100µs).
	if highRanAt != 30*sim.Microsecond {
		t.Fatalf("high ran at %v, want 30µs", highRanAt)
	}
}

func TestContextSwitchCostCharged(t *testing.T) {
	eng := sim.NewEngine(1)
	ctx := 5 * sim.Microsecond
	k := NewKernel(eng, "ni0", ctx)
	var bDone sim.Time
	k.SpawnStep("a", 10, seq(run(10*sim.Microsecond)))
	k.SpawnStep("b", 20, seq(run(10*sim.Microsecond), func(tc *TaskCtx) { bDone = tc.Now() }))
	eng.Run()
	// a runs 0-10 (first dispatch: no previous task → no switch), switch 5,
	// b runs 15-25.
	if bDone != 25*sim.Microsecond {
		t.Fatalf("b done at %v, want 25µs", bDone)
	}
	if k.Switches == 0 {
		t.Fatal("no switches counted")
	}
}

func TestAwaitCompletesAfterCallback(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	var done sim.Time
	k.SpawnStep("io", 10, seq(func(tc *TaskCtx) {
		tc.Await(func(cb func()) {
			eng.After(70*sim.Microsecond, cb)
		})
	}, func(tc *TaskCtx) { done = tc.Now() }))
	eng.Run()
	if done != 70*sim.Microsecond {
		t.Fatalf("await done at %v", done)
	}
}

func TestAwaitImmediateCompletionDoesNotDeadlock(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	finished := false
	k.SpawnStep("io", 10, seq(func(tc *TaskCtx) {
		tc.Await(func(cb func()) { cb() }) // completes synchronously
	}, func(*TaskCtx) { finished = true }))
	eng.Run()
	if !finished {
		t.Fatal("task stuck on pre-completed await")
	}
}

func TestSemaphoreBlocksAndWakes(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	sem := NewSemaphore(k, "frames", 0)
	var got sim.Time
	k.SpawnStep("consumer", 10, seq(sem.Take, func(tc *TaskCtx) { got = tc.Now() }))
	k.SpawnStep("producer", 20, seq(func(tc *TaskCtx) { tc.Sleep(40 * sim.Microsecond) },
		func(*TaskCtx) { sem.Give() }))
	eng.Run()
	if got != 40*sim.Microsecond {
		t.Fatalf("consumer resumed at %v", got)
	}
}

func TestSemaphoreCountsAndTryTake(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	sem := NewSemaphore(k, "s", 2)
	if !sem.TryTake() || !sem.TryTake() {
		t.Fatal("initial counts should succeed")
	}
	if sem.TryTake() {
		t.Fatal("empty TryTake succeeded")
	}
	sem.Give()
	if sem.Count() != 1 {
		t.Fatalf("count = %d", sem.Count())
	}
}

func TestSemaphoreGiveFromInterruptContext(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	sem := NewSemaphore(k, "irq", 0)
	served := 0
	k.SpawnStep("worker", 10, seq(repeat(3, sem.Take, func(tc *TaskCtx) {
		served++
		tc.Run(5 * sim.Microsecond)
	})...))
	for i := 1; i <= 3; i++ {
		eng.At(sim.Time(i)*100*sim.Microsecond, sem.Give)
	}
	eng.Run()
	if served != 3 {
		t.Fatalf("served = %d", served)
	}
}

func TestChargeDrainsMeterLap(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	m := cpu.NewMeter(cpu.I960RD())
	lap := cpu.StartLap(m)
	var took sim.Time
	k.SpawnStep("t", 10, seq(func(tc *TaskCtx) {
		m.Int(660) // 660 cycles = 10 µs at 66 MHz
		tc.Charge(lap)
	}, func(tc *TaskCtx) { took = tc.Now() }))
	eng.Run()
	if took != 10*sim.Microsecond {
		t.Fatalf("charge consumed %v, want 10µs", took)
	}
}

func TestNegativeRunPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	panicked := false
	k.SpawnStep("bad", 10, seq(func(tc *TaskCtx) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		tc.Run(-1)
	}))
	eng.Run()
	if !panicked {
		t.Fatal("expected panic")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	k.SpawnStep("t", 10, seq(run(25*sim.Microsecond), func(tc *TaskCtx) { tc.Sleep(75 * sim.Microsecond) }))
	eng.Run()
	u := k.Utilization()
	if u < 0.24 || u > 0.26 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
}

func TestFIFOWithinSamePriority(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.SpawnStep("t", 100, seq(func(tc *TaskCtx) {
			order = append(order, i)
			tc.Run(sim.Microsecond)
		}))
	}
	eng.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v", order)
		}
	}
}

// Property: N equal-priority tasks each running a burst complete in spawn
// order with total time = sum of bursts.
func TestKernelSerializationProperty(t *testing.T) {
	f := func(bursts []uint8) bool {
		eng := sim.NewEngine(1)
		k := NewKernel(eng, "k", 0)
		var total sim.Time
		var order []int
		for i, b := range bursts {
			i := i
			d := sim.Time(b) * sim.Microsecond
			total += d
			k.SpawnStep("t", 50, seq(run(d), func(*TaskCtx) { order = append(order, i) }))
		}
		eng.Run()
		if eng.Now() != total {
			return false
		}
		for i := range order {
			if order[i] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSliceRoundRobinsEqualPriority(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	k.TimeSlice = 20 * sim.Microsecond
	var firstB sim.Time
	work := func(mark *sim.Time) func(*TaskCtx) bool {
		return seq(repeat(4, run(10*sim.Microsecond), func(tc *TaskCtx) {
			if mark != nil && *mark == 0 {
				*mark = tc.Now()
			}
		})...)
	}
	k.SpawnStep("a", 100, work(nil))
	k.SpawnStep("b", 100, work(&firstB))
	eng.Run()
	// Without slicing, "a" runs all 40 µs first and b's first burst ends at
	// 50 µs. With a 20 µs slice the CPU rotates after two bursts, so b's
	// first burst completes at 30 µs.
	if firstB != 30*sim.Microsecond {
		t.Fatalf("b's first burst completed at %v, want 30µs (sliced rotation)", firstB)
	}
	if eng.Now() < 80*sim.Microsecond {
		t.Fatalf("total = %v, want both tasks' 80µs of work", eng.Now())
	}
}

func TestNoTimeSliceRunsToBlock(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	var order []string
	work := func(name string) func(*TaskCtx) bool {
		return seq(repeat(3, run(10*sim.Microsecond), func(*TaskCtx) { order = append(order, name) })...)
	}
	k.SpawnStep("a", 100, work("a"))
	k.SpawnStep("b", 100, work("b"))
	eng.Run()
	want := []string{"a", "a", "a", "b", "b", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTimeSliceDoesNotStarveLowerPriority(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni0", 0)
	k.TimeSlice = 10 * sim.Microsecond
	done := false
	k.SpawnStep("high", 50, seq(run(30*sim.Microsecond)))
	k.SpawnStep("low", 200, seq(run(10*sim.Microsecond), func(*TaskCtx) { done = true }))
	eng.Run()
	if !done {
		t.Fatal("low-priority task starved")
	}
}
