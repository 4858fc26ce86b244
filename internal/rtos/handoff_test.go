package rtos

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// scriptedScenario drives one kernel through every hand-off the kernel
// makes — dispatch with and without a context switch, burst boundaries with
// and without preemption, time-slice round-robin, block/wake by timer,
// completion and semaphore, a wake that lands before the block, a Halt in
// the middle of a burst and one in the middle of a context switch, a task
// that exits and a task spawned by a task — and returns the log of task
// marks and of every change in the task-state vector, sampled each
// simulated microsecond.
func scriptedScenario() string {
	log, _ := runScript(sim.Microsecond, false)
	return log
}

// runScript is scriptedScenario with the task-state vector sampled every
// sampleEvery (the Halts are triggered from the sampler, so they land
// where its ticks do). With parkAll, a no-op 1 µs ticker also runs on the
// engine: every burst and context switch then has an event due before it
// ends, so none completes in place. parked counts the bursts and switches
// that ended through their engine event.
func runScript(sampleEvery sim.Time, parkAll bool) (_ string, parked int) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "cpu", 2*sim.Microsecond)
	k.TimeSlice = 10 * sim.Microsecond

	var log strings.Builder
	var tasks []*Task
	// mark returns an op that logs what, with its task and time.
	mark := func(what string) func(*TaskCtx) {
		return func(tc *TaskCtx) { fmt.Fprintf(&log, "%6d %-5s %s\n", tc.Now(), k.Running().Name(), what) }
	}
	// bursts returns an op that logs the task's next burst.
	bursts := func() func(*TaskCtx) {
		i := 0
		return func(tc *TaskCtx) { mark(fmt.Sprintf("burst %d", i))(tc); i++ }
	}
	spawn := func(name string, prio int, ops ...func(tc *TaskCtx)) {
		task := k.SpawnStep(name, prio, seq(ops...))
		countParks(task, &parked)
		tasks = append(tasks, task)
	}

	early := NewSemaphore(k, "early", 0) // given before it is taken
	late := NewSemaphore(k, "late", 0)   // taken before it is given

	spawn("lo", 9, append(repeat(6, run(7*sim.Microsecond), bursts()),
		func(tc *TaskCtx) { late.Give(); mark("gave late")(tc) })...)
	for _, name := range []string{"midA", "midB"} {
		spawn(name, 5, append(repeat(5, run(4*sim.Microsecond), bursts()),
			func(tc *TaskCtx) { tc.Sleep(30 * sim.Microsecond) },
			mark("slept"), run(3*sim.Microsecond))...)
	}
	spawn("hi", 1,
		func(tc *TaskCtx) { early.Give(); tc.Sleep(9 * sim.Microsecond) },
		mark("awake"),
		early.Take, // count is 1: no block
		mark("took early"),
		// The completion fires inside start, before the task blocks.
		func(tc *TaskCtx) { tc.Await(func(done func()) { done() }) },
		mark("await immediate"),
		func(tc *TaskCtx) { tc.Await(func(done func()) { eng.After(25*sim.Microsecond, done) }) },
		mark("await done"),
		run(12*sim.Microsecond), // Halt lands in this burst
		mark("long burst"),
		func(tc *TaskCtx) {
			spawn("child", 3, mark("started"), run(5*sim.Microsecond), mark("exiting"))
			late.Take(tc)
		},
		mark("took late"))

	// Halt in the middle of hi's 12 µs burst; Resume 15 µs later.
	midBurst := false
	// Halt in the middle of the first context switch after 100 µs: the CPU
	// is reserved for a task that is still Ready.
	midSwitch := false
	halt := func(what string) {
		k.Halt()
		fmt.Fprintf(&log, "%6d ----- halt %s\n", eng.Now(), what)
		eng.After(15*sim.Microsecond, func() {
			fmt.Fprintf(&log, "%6d ----- resume\n", eng.Now())
			k.Resume()
		})
	}
	stateNames := [...]string{Ready: "rdy", Running: "RUN", Blocked: "blk", Exited: "xit"}
	prev := ""
	eng.Every(sampleEvery, func() {
		r := k.Running()
		if !midBurst && r != nil && r.Name() == "hi" && r.State() == Running &&
			strings.Contains(log.String(), "await done") {
			midBurst = true
			eng.After(5*sim.Microsecond, func() { halt("mid-burst") })
		}
		if !midSwitch && eng.Now() > 100*sim.Microsecond && r != nil && r.State() == Ready {
			midSwitch = true
			halt("mid-switch")
		}
		var row strings.Builder
		for _, t := range tasks {
			fmt.Fprintf(&row, " %s=%s", t.Name(), stateNames[t.State()])
		}
		if row.String() != prev {
			prev = row.String()
			fmt.Fprintf(&log, "%6d states%s\n", eng.Now(), prev)
		}
	})
	if parkAll {
		eng.Every(sim.Microsecond, func() {})
	}
	eng.RunUntil(400 * sim.Microsecond)
	fmt.Fprintf(&log, "switches=%d busy=%d", k.Switches, k.BusyTime)
	for _, t := range tasks {
		fmt.Fprintf(&log, " %s=%d", t.Name(), t.CPUTime)
	}
	log.WriteString("\n")
	return log.String(), parked
}

// countParks makes task's burst-done and switch-done callbacks count into
// *n: a burst or switch that completes in place never runs them. Call it
// before the task is first dispatched.
func countParks(task *Task, n *int) {
	burstDone, switchDone := task.burstDoneFn, task.switchDoneFn
	task.burstDoneFn = func() { *n++; burstDone() }
	task.switchDoneFn = func() { *n++; switchDone() }
}

// The in-place completion is invisible: the script logs the same bytes
// whether bursts and switches complete in place or all park behind a no-op
// ticker — and with the golden 1 µs sampler, whose ticks already refuse
// every in-place completion, those bytes are the channel kernel's log.
func TestInPlaceCompletionMatchesParkedPath(t *testing.T) {
	if got, _ := runScript(sim.Microsecond, true); got != scriptedScenarioGolden {
		t.Errorf("with every burst parked, the log left the golden one.\n--- got\n%s--- want\n%s", got, scriptedScenarioGolden)
	}
	for _, every := range []sim.Time{sim.Microsecond, 3 * sim.Microsecond, 7 * sim.Microsecond, 50 * sim.Microsecond, sim.Millisecond} {
		log, parked := runScript(every, false)
		parkedLog, total := runScript(every, true)
		if log != parkedLog {
			t.Errorf("sampled every %v: the log changed when every burst parked.\n--- as run\n%s--- all parked\n%s", every, log, parkedLog)
		}
		if every > sim.Microsecond && parked >= total {
			t.Errorf("sampled every %v: %d of %d bursts and switches parked; none completed in place", every, parked, total)
		}
	}
}

// TestScriptedScenarioMatchesChannelKernel pins the scheduling order to the
// log the goroutine-and-channel kernel produced for the same script (at the
// parent of the commit that introduced coroutine hand-off).
func TestScriptedScenarioMatchesChannelKernel(t *testing.T) {
	got := scriptedScenario()
	if !strings.Contains(got, "halt mid-burst") || !strings.Contains(got, "halt mid-switch") {
		t.Fatalf("the script no longer reaches a mid-burst and a mid-switch halt:\n%s", got)
	}
	if got != scriptedScenarioGolden {
		t.Errorf("scheduling order changed.\n--- got\n%s--- want\n%s", got, scriptedScenarioGolden)
	}
}

// handoffBody is a task that does one operation per 10 µs round trip: a
// step body built for its engine.
type handoffBody struct {
	name string
	step func(eng *sim.Engine) func(tc *TaskCtx) bool
}

// steadyKernel spawns c on a fresh kernel with a context-switch cost and
// runs the engine long enough for queues and the event arena to reach their
// steady state.
func steadyKernel(c handoffBody) *sim.Engine {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "cpu", sim.Microsecond)
	k.SpawnStep("t", 1, c.step(eng))
	eng.RunUntil(sim.Millisecond)
	return eng
}

// The hand-off bodies.
var handoffBodies = []handoffBody{
	{name: "Run", step: func(eng *sim.Engine) func(tc *TaskCtx) bool {
		// An event due as the burst ends refuses the in-place completion,
		// so every burst parks, and burstDone calls the step again.
		competitor := func() {}
		return func(tc *TaskCtx) bool {
			eng.After(10*sim.Microsecond, competitor)
			tc.Run(10 * sim.Microsecond)
			return true
		}
	}},
	{name: "RunInPlace", step: func(*sim.Engine) func(tc *TaskCtx) bool {
		// A lone task: every burst completes in place until the bound of
		// the executing RunUntil.
		return func(tc *TaskCtx) bool { tc.Run(10 * sim.Microsecond); return true }
	}},
	{name: "Sleep", step: func(*sim.Engine) func(tc *TaskCtx) bool {
		return func(tc *TaskCtx) bool { tc.Sleep(10 * sim.Microsecond); return true }
	}},
	{name: "Await", step: func(eng *sim.Engine) func(tc *TaskCtx) bool {
		start := func(done func()) { eng.After(10*sim.Microsecond, done) }
		return func(tc *TaskCtx) bool { tc.Await(start); return true }
	}},
}

// TestHandoffDoesNotAllocate holds the kernel to its no-allocation rule: a
// Run burst, parked or completed in place, a Sleep and wake, and an Await
// round trip cost no allocation once the task is in its loop.
func TestHandoffDoesNotAllocate(t *testing.T) {
	for _, c := range handoffBodies {
		eng := steadyKernel(c)
		allocs := testing.AllocsPerRun(200, func() {
			eng.RunUntil(eng.Now() + 10*sim.Microsecond)
		})
		if allocs != 0 {
			t.Errorf("%s round trip: %v allocs, want 0", c.name, allocs)
		}
	}
}

// TestContextSwitchDoesNotAllocate covers the switch-cost path between two
// tasks that alternate on the CPU: completed in place, and parked behind a
// no-op 1 µs ticker.
func TestContextSwitchDoesNotAllocate(t *testing.T) {
	for _, parked := range []bool{false, true} {
		eng := pingPongKernel()
		if parked {
			eng.Every(sim.Microsecond, func() {})
		}
		allocs := testing.AllocsPerRun(200, func() {
			eng.RunUntil(eng.Now() + 10*sim.Microsecond)
		})
		if allocs != 0 {
			t.Errorf("context switch (parked=%v): %v allocs, want 0", parked, allocs)
		}
	}
}

// pingPongKernel runs two tasks that hand each other the CPU through a pair
// of semaphores, one context switch per 5 µs.
func pingPongKernel() *sim.Engine {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "cpu", sim.Microsecond)
	ping, pong := NewSemaphore(k, "ping", 1), NewSemaphore(k, "pong", 0)
	player := func(mine, theirs *Semaphore) func(tc *TaskCtx) bool {
		n := 0 // call n takes (even n, giving first after a burst) or runs a burst
		return func(tc *TaskCtx) bool {
			if n%2 == 1 {
				tc.Run(4 * sim.Microsecond)
			} else {
				if n > 0 {
					theirs.Give()
				}
				mine.Take(tc)
			}
			n++
			return true
		}
	}
	k.SpawnStep("ping", 1, player(ping, pong))
	k.SpawnStep("pong", 1, player(pong, ping))
	eng.RunUntil(sim.Millisecond)
	return eng
}

// BenchmarkHandoff is the rtos layer's own number: host time and
// allocations per simulated task operation (one parked Run burst, one Run
// burst completed in place, one Sleep and wake, one Await round trip, one
// context switch between two tasks — with nothing else pending, that switch
// and the burst after it complete in place).
func BenchmarkHandoff(b *testing.B) {
	for _, c := range handoffBodies {
		b.Run(c.name, func(b *testing.B) {
			eng := steadyKernel(c)
			b.ReportAllocs()
			b.ResetTimer()
			eng.RunUntil(eng.Now() + sim.Time(b.N)*10*sim.Microsecond)
		})
	}
	b.Run("Switch", func(b *testing.B) {
		eng := pingPongKernel()
		b.ReportAllocs()
		b.ResetTimer()
		eng.RunUntil(eng.Now() + sim.Time(b.N)*5*sim.Microsecond)
	})
}

// TestTaskPanicSurfacesOnEngineCaller: a task body runs on the goroutine
// that steps the engine, so its panic can be recovered there (under the
// channel kernel it crashed the process from an unrelated goroutine).
func TestTaskPanicSurfacesOnEngineCaller(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "cpu", 0)
	k.SpawnStep("bad", 1, seq(run(sim.Microsecond), func(*TaskCtx) { panic("boom") }))
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want the task's panic value", r)
		}
	}()
	eng.Run()
	t.Error("engine returned; the task's panic was lost")
}

// scriptedScenarioGolden is scriptedScenario's log under the kernel that
// handed the CPU over two unbuffered channels per task, captured at the
// parent of the commit that replaced it with coroutine hand-off.
const scriptedScenarioGolden = `  1000 states lo=rdy midA=rdy midB=rdy hi=blk
  2000 states lo=rdy midA=RUN midB=rdy hi=blk
  6000 midA  burst 0
  9000 states lo=rdy midA=RUN midB=rdy hi=rdy
 10000 states lo=rdy midA=rdy midB=rdy hi=rdy
 12000 hi    awake
 12000 hi    took early
 12000 hi    await immediate
 12000 states lo=rdy midA=rdy midB=rdy hi=blk
 14000 states lo=rdy midA=rdy midB=RUN hi=blk
 18000 midB  burst 0
 22000 midB  burst 1
 26000 states lo=rdy midA=rdy midB=rdy hi=blk
 28000 midA  burst 1
 28000 states lo=rdy midA=RUN midB=rdy hi=blk
 32000 midA  burst 2
 36000 midA  burst 3
 37000 states lo=rdy midA=RUN midB=rdy hi=rdy
 40000 states lo=rdy midA=rdy midB=rdy hi=rdy
 42000 hi    await done
 42000 states lo=rdy midA=rdy midB=rdy hi=RUN
 47000 ----- halt mid-burst
 54000 states lo=rdy midA=rdy midB=rdy hi=rdy
 62000 ----- resume
 62000 hi    long burst
 63000 states lo=rdy midA=rdy midB=rdy hi=blk child=rdy
 64000 child started
 64000 states lo=rdy midA=rdy midB=rdy hi=blk child=RUN
 69000 child exiting
 69000 states lo=rdy midA=rdy midB=rdy hi=blk child=xit
 71000 midB  burst 2
 71000 states lo=rdy midA=rdy midB=RUN hi=blk child=xit
 75000 midB  burst 3
 79000 midB  burst 4
 79000 states lo=rdy midA=rdy midB=blk hi=blk child=xit
 81000 midA  burst 4
 81000 states lo=rdy midA=blk midB=blk hi=blk child=xit
 83000 states lo=RUN midA=blk midB=blk hi=blk child=xit
 90000 lo    burst 0
 97000 lo    burst 1
104000 lo    burst 2
109000 states lo=RUN midA=blk midB=rdy hi=blk child=xit
111000 states lo=rdy midA=rdy midB=rdy hi=blk child=xit
112000 ----- halt mid-switch
127000 ----- resume
129000 midA  slept
129000 states lo=rdy midA=RUN midB=rdy hi=blk child=xit
132000 states lo=rdy midA=xit midB=rdy hi=blk child=xit
134000 midB  slept
134000 states lo=rdy midA=xit midB=RUN hi=blk child=xit
137000 states lo=rdy midA=xit midB=xit hi=blk child=xit
139000 lo    burst 3
139000 states lo=RUN midA=xit midB=xit hi=blk child=xit
146000 lo    burst 4
153000 lo    burst 5
153000 lo    gave late
153000 states lo=xit midA=xit midB=xit hi=rdy child=xit
155000 hi    took late
155000 states lo=xit midA=xit midB=xit hi=xit child=xit
switches=15 busy=105000 lo=42000 midA=23000 midB=23000 hi=12000 child=5000
`
