// Package rtos models the embedded VxWorks configuration the paper boots on
// each i960 RD card: a priority-preemptive "wind"-style task scheduler,
// binary semaphores, blocking I/O waits, and the timestamp-counter rollover
// management the paper adds to the kernel (§2).
//
// A task body is a step function (SpawnStep) or a coroutine (Spawn,
// iter.Pull), driven in strict handoff by the simulation engine: exactly
// one task (or the kernel) executes at any instant, so the simulation stays
// deterministic and no hand-off goes through the Go scheduler. A step
// function is called as a plain function and keeps its place in its own
// state; a coroutine costs two coroutine switches per hand-off. Every task
// on a card's frame path is a step task; Spawn is for straight-line bodies
// off it (the Table 4 relays, experiment paths, examples, tests). A task
// consumes simulated CPU with Run (or Charge, which drains a cpu.Meter lap),
// blocks with Sleep/Await/Take, and the kernel always runs the
// highest-priority ready task, paying a context-switch cost on every switch.
// A CPU burst is not preempted mid-flight (bursts in this system are
// microseconds long); preemption happens at burst and blocking boundaries.
// A burst or context switch that nothing can interrupt — no ready task that
// would take the CPU at its end, no halt, no engine event due before it
// ends — completes in place (sim.Engine.TryAdvance) with no hand-off at
// all; the same callbacks then run at the same simulated instants in the
// same order.
//
// A task body runs on the goroutine that steps the engine, so a panic in a
// body surfaces there. Because a hand-off sits under every simulated frame,
// the steady-state Run/Sleep/Await/Take paths allocate nothing: every
// engine callback the kernel schedules is a func value built once, at
// NewKernel or at Spawn/SpawnStep.
//
// A task parked when a run ends would otherwise stay parked forever and pin
// everything its body references. Shutdown unwinds every such task; kernels
// register it with their engine, so closing the engine (sim.Engine.Close,
// sim.Topology.Close) is what a run does when its results are collected.
package rtos

import (
	"fmt"
	"iter"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// TaskState enumerates task lifecycle states.
type TaskState int

// Task states.
const (
	Ready TaskState = iota
	Running
	Blocked
	Exited
)

// yieldKind is what a task reports when it hands the CPU back; a body that
// returns ends the coroutine instead.
type yieldKind int

const (
	yBlocked yieldKind = iota // off the CPU until woken
	yBurst                    // CPU stays held until the burst-done event
)

// taskKilled is the panic value that unwinds a parked task's body when its
// kernel shuts down; Spawn's coroutine wrapper recovers it.
type taskKilled struct{}

// Task is one VxWorks-style task.
type Task struct {
	name string
	prio int // lower number = higher priority, VxWorks style
	seq  int64

	state       TaskState
	wakePending bool
	inBurst     bool     // a step task's burst holds the CPU until burstDone
	sliceUsed   sim.Time // CPU consumed since last dispatch (time slicing)

	// The coroutine: next runs the body up to its next yield (ok == false
	// once the body has returned), stop unwinds a parked body. A step task
	// has a no-op stop, and step and its context instead of next.
	next func() (yieldKind, bool)
	stop func()
	step func(*TaskCtx) bool
	tc   *TaskCtx

	// Engine callbacks, built once at Spawn so scheduling them allocates
	// nothing.
	wakeFn       func()
	burstDoneFn  func()
	switchDoneFn func()

	// CPUTime accumulates simulated CPU consumed by this task.
	CPUTime sim.Time
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// State returns the task state.
func (t *Task) State() TaskState { return t.state }

// Kernel is one processor's task scheduler.
type Kernel struct {
	eng     *sim.Engine
	name    string
	ctxCost sim.Time

	tasks           []*Task // every task spawned, for Shutdown
	ready           []*Task // sorted by (prio, seq)
	dispatchFn      func()  // k.dispatch, built once
	running         *Task
	last            *Task
	spawnSeq        int64
	dispatchPending bool
	halted          bool

	// TimeSlice, when positive, enables VxWorks kernelTimeSlice-style
	// round-robin among equal-priority tasks: a task whose burst ends is
	// also preempted by a *ready equal-priority* task once it has consumed
	// at least TimeSlice since it last got the CPU.
	TimeSlice sim.Time

	// Switches counts context switches (task-to-task transitions).
	Switches int64
	Resumes  int64 // coroutine resumes; calling a step task is not one
	// BusyTime accumulates CPU time consumed by all tasks.
	BusyTime sim.Time
}

// NewKernel returns a kernel on eng charging ctxCost per context switch.
// The kernel shuts down when eng is closed.
func NewKernel(eng *sim.Engine, name string, ctxCost sim.Time) *Kernel {
	k := &Kernel{eng: eng, name: name, ctxCost: ctxCost}
	k.dispatchFn = k.dispatch
	eng.OnClose(k.Shutdown)
	return k
}

// Name returns the kernel's name.
func (k *Kernel) Name() string { return k.name }

// Running returns the task currently holding the CPU, if any.
func (k *Kernel) Running() *Task { return k.running }

// Engine returns the simulation engine the kernel runs on.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Utilization reports the fraction of elapsed simulated time this kernel's
// tasks spent on the CPU.
func (k *Kernel) Utilization() float64 {
	if k.eng.Now() == 0 {
		return 0
	}
	return float64(k.BusyTime) / float64(k.eng.Now())
}

// TaskCtx is the API visible to a running task body.
type TaskCtx struct {
	k *Kernel
	t *Task
	// yield hands the CPU back to the kernel and returns when the kernel
	// next resumes the task: false if it shut down instead.
	yield func(yieldKind) bool
}

// Now returns the current simulated time.
func (tc *TaskCtx) Now() sim.Time { return tc.k.eng.Now() }

// Spawn creates a coroutine task; it becomes ready immediately and runs
// when it is the highest-priority ready task.
func (k *Kernel) Spawn(name string, prio int, body func(tc *TaskCtx)) *Task {
	t := k.newTask(name, prio)
	t.next, t.stop = iter.Pull(func(yield func(yieldKind) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, killed := r.(taskKilled); !killed {
					panic(r)
				}
			}
		}()
		body(&TaskCtx{k: k, t: t, yield: yield})
	})
	return t
}

// SpawnStep creates a step task. Each time it has the CPU the kernel calls
// step, which works up to one Sleep, SleepUntil, Await, Take, Run or Charge
// and returns true, or returns false when done; if that call completed at
// once, the kernel calls step again. A Run burst that parks holds the CPU:
// the kernel calls step again at its end, or when the task is next
// dispatched if a ready task preempts it there (a step that returned false
// ends then). A blocking call or Run after a parked one, in the same step,
// panics.
func (k *Kernel) SpawnStep(name string, prio int, step func(tc *TaskCtx) bool) *Task {
	t := k.newTask(name, prio)
	t.step, t.tc, t.stop = step, &TaskCtx{k: k, t: t}, func() {}
	return t
}

// exitStep is the step of a task whose last step parked a burst.
func exitStep(*TaskCtx) bool { return false }

// newTask makes a task of either kind ready; the caller then sets its body.
func (k *Kernel) newTask(name string, prio int) *Task {
	t := &Task{name: name, prio: prio}
	t.wakeFn = func() { k.wake(t) }
	t.burstDoneFn = func() { k.burstDone(t) }
	t.switchDoneFn = func() { k.switchDone(t) }
	k.tasks = append(k.tasks, t)
	k.enqueueReady(t)
	k.kick()
	return t
}

func (k *Kernel) enqueueReady(t *Task) {
	t.state = Ready
	k.spawnSeq++
	t.seq = k.spawnSeq // append at the back of this priority class
	i := len(k.ready)
	for i > 0 {
		prev := k.ready[i-1]
		if prev.prio < t.prio || (prev.prio == t.prio && prev.seq < t.seq) {
			break
		}
		i--
	}
	k.ready = append(k.ready, nil)
	copy(k.ready[i+1:], k.ready[i:])
	k.ready[i] = t
}

// Halt freezes the processor (card crash / firmware wedge): the running
// task is parked at its next burst boundary, ready tasks stop being
// dispatched, and timer wakeups only mark tasks ready. Resume undoes it.
func (k *Kernel) Halt() { k.halted = true }

// Resume restarts a halted kernel; ready tasks dispatch again.
func (k *Kernel) Resume() {
	if !k.halted {
		return
	}
	k.halted = false
	k.kick()
}

// kick schedules a dispatch if the CPU is idle.
func (k *Kernel) kick() {
	if k.halted || k.running != nil || k.dispatchPending || len(k.ready) == 0 {
		return
	}
	k.dispatchPending = true
	k.eng.After(0, k.dispatchFn)
}

func (k *Kernel) dispatch() {
	k.dispatchPending = false
	if k.halted || k.running != nil || len(k.ready) == 0 {
		return
	}
	t := popFront(&k.ready)
	if k.last != t && k.last != nil && k.ctxCost > 0 {
		// Pay the switch cost, then run.
		k.Switches++
		k.running = t // reserve the CPU during the switch
		if k.eng.TryAdvance(k.eng.Now() + k.ctxCost) {
			// Nothing can land mid-switch (switchDone's Halt test included):
			// finish it in place.
			k.resumeTask(t)
			return
		}
		k.eng.After(k.ctxCost, t.switchDoneFn)
		return
	}
	if k.last != t {
		k.Switches++
	}
	k.resumeTask(t)
}

// popFront removes and returns the head of q, shifting the rest down in
// place: re-slicing from the front would walk the slice off its backing
// array and make the next append allocate a new one.
func popFront(q *[]*Task) *Task {
	s := *q
	t := s[0]
	n := copy(s, s[1:])
	s[n] = nil
	*q = s[:n]
	return t
}

// switchDone ends the context switch dispatch started towards t.
func (k *Kernel) switchDone(t *Task) {
	if k.halted {
		// The crash landed mid-switch: park the task instead.
		k.running = nil
		k.enqueueReady(t)
		return
	}
	k.resumeTask(t)
}

// resumeTask gives t the CPU at the start of a fresh time slice.
func (k *Kernel) resumeTask(t *Task) {
	k.running = t
	k.last = t
	t.sliceUsed = 0
	k.handoff(t)
}

// handoff runs t's body up to its next yield or park and acts on it.
func (k *Kernel) handoff(t *Task) {
	t.state = Running
	ok := true
	if t.step != nil {
		for ok = t.step(t.tc); ok && t.state != Blocked && !t.inBurst; ok = t.step(t.tc) {
		}
		if t.inBurst {
			if !ok {
				t.step = exitStep // the task ends with its burst
			}
			return // CPU stays reserved; burstDone calls the step again
		}
	} else {
		k.Resumes++
		var kind yieldKind
		if kind, ok = t.next(); ok && kind == yBurst {
			return // CPU stays reserved; the burst-done event resumes the task
		}
	}
	if !ok {
		t.state = Exited
	}
	k.running = nil
	k.kick()
}

// burstDone ends t's CPU burst: a preemption point.
func (k *Kernel) burstDone(t *Task) {
	t.inBurst = false
	// A ready task that preempts t takes the CPU; a processor that froze
	// during the burst parks t, and Resume re-dispatches it.
	if k.halted || k.preempts(t) {
		k.running = nil
		k.enqueueReady(t)
		k.kick()
		return
	}
	k.handoff(t)
}

// preempts reports whether a ready task takes the CPU from t at a burst
// boundary. A higher-priority ready task always does; with time slicing
// enabled, an equal-priority ready task does too once t's slice is spent.
func (k *Kernel) preempts(t *Task) bool {
	if len(k.ready) == 0 {
		return false
	}
	head := k.ready[0].prio
	return head < t.prio || (head == t.prio && k.TimeSlice > 0 && t.sliceUsed >= k.TimeSlice)
}

// Shutdown ends every task that has not exited: a parked task's body is
// unwound (its deferred calls run), a task that was never dispatched never
// starts. The kernel is halted for good. Call it once the engine has
// stopped running — never from a task body or an engine callback.
func (k *Kernel) Shutdown() {
	k.halted = true
	for _, t := range k.tasks {
		t.stop()
		t.state = Exited
	}
	k.tasks, k.ready, k.running = nil, nil, nil
}

// wake makes t ready; if t has not yet blocked (a completion raced ahead of
// the block), the wakeup is remembered.
func (k *Kernel) wake(t *Task) {
	switch t.state {
	case Blocked:
		k.enqueueReady(t)
		k.kick()
	case Exited:
		// ignore
	default:
		t.wakePending = true
	}
}

// park hands the CPU back to the kernel until it resumes the task. Must be
// called from the task's own body.
func (tc *TaskCtx) park(kind yieldKind) {
	if !tc.yield(kind) {
		panic(taskKilled{}) // the kernel shut down: unwind the body
	}
}

// parked panics if the calling step task already parked in this step.
func (t *Task) parked() {
	if t.state == Blocked || t.inBurst {
		panic(fmt.Sprintf("rtos %s: two blocking calls in one step", t.name))
	}
}

// block parks the calling task until wake.
func (tc *TaskCtx) block() {
	t := tc.t
	t.parked()
	if t.wakePending {
		t.wakePending = false
		return
	}
	t.state = Blocked
	if t.step == nil { // handoff parks a step task when its step returns
		tc.park(yBlocked)
	}
}

// Run consumes d of simulated CPU, holding the processor.
//
// When nothing can interrupt the burst — the kernel is not halted, no ready
// task would take the CPU at its end, and the engine has nothing due before
// it ends — the burst completes in place: the clock moves on and the body
// continues without a hand-off. Otherwise the task parks until burstDone: a
// coroutine inside Run, a step task when its step returns.
func (tc *TaskCtx) Run(d sim.Time) {
	t, k := tc.t, tc.k
	t.parked()
	if d < 0 {
		panic(fmt.Sprintf("rtos %s: negative run %v", t.name, d))
	}
	if d == 0 {
		return
	}
	t.CPUTime += d
	k.BusyTime += d
	t.sliceUsed += d
	if !k.halted && !k.preempts(t) && k.eng.TryAdvance(k.eng.Now()+d) {
		return
	}
	k.eng.After(d, t.burstDoneFn)
	t.state = Running
	if t.step != nil {
		t.inBurst = true // handoff returns when the step does
		return
	}
	tc.park(yBurst)
}

// Charge consumes CPU for all cycles accumulated on lap since its last
// Take — the bridge between cpu.Meter-instrumented code and task time.
func (tc *TaskCtx) Charge(lap *cpu.Lap) { tc.Run(lap.Take()) }

// Sleep blocks the task for d.
func (tc *TaskCtx) Sleep(d sim.Time) {
	if d <= 0 {
		return
	}
	tc.k.eng.After(d, tc.t.wakeFn)
	tc.block()
}

// SleepUntil blocks the task until absolute time at (no-op if in the past).
func (tc *TaskCtx) SleepUntil(at sim.Time) {
	now := tc.k.eng.Now()
	if at > now {
		tc.Sleep(at - now)
	}
}

// Await starts an asynchronous operation and blocks until its completion
// callback fires. start receives the completion function to pass to the
// substrate (disk read, DMA, link send, ...).
func (tc *TaskCtx) Await(start func(done func())) {
	start(tc.t.wakeFn)
	tc.block()
}

// Semaphore is a counting semaphore usable from tasks (Take) and from
// interrupt context, i.e. plain engine callbacks (Give).
type Semaphore struct {
	k       *Kernel
	name    string
	count   int
	waiters []*Task
}

// NewSemaphore returns a semaphore with an initial count.
func NewSemaphore(k *Kernel, name string, initial int) *Semaphore {
	return &Semaphore{k: k, name: name, count: initial}
}

// Take decrements the semaphore, blocking the calling task while the count
// is zero.
func (s *Semaphore) Take(tc *TaskCtx) {
	if s.count > 0 {
		s.count--
		return
	}
	s.waiters = append(s.waiters, tc.t)
	tc.block()
}

// TryTake decrements without blocking, reporting success.
func (s *Semaphore) TryTake() bool {
	if s.count > 0 {
		s.count--
		return true
	}
	return false
}

// Give increments the semaphore, waking the longest-waiting task if any.
func (s *Semaphore) Give() {
	if len(s.waiters) > 0 {
		s.k.wake(popFront(&s.waiters))
		return
	}
	s.count++
}

// Count returns the current count (waiters imply 0).
func (s *Semaphore) Count() int { return s.count }

// Timestamp models the i960 RD free-running timestamp counter: a width-
// limited register incrementing at a fixed rate. The paper adds "timestamp
// counter rollover management" to VxWorks; Extended reconstructs a
// monotonic 64-bit count from the rolling register, provided it is read at
// least once per wrap period.
type Timestamp struct {
	eng  *sim.Engine
	hz   int64
	bits uint

	lastRaw  uint64
	rollBase uint64
}

// NewTimestamp returns a counter of the given register width and rate.
func NewTimestamp(eng *sim.Engine, hz int64, bits uint) *Timestamp {
	if bits == 0 || bits > 63 {
		panic("rtos: timestamp width must be 1..63")
	}
	return &Timestamp{eng: eng, hz: hz, bits: bits}
}

// Raw returns the rolling register value at the current simulated time.
func (ts *Timestamp) Raw() uint64 {
	ticks := uint64(ts.eng.Now()) * uint64(ts.hz) / uint64(sim.Second)
	return ticks & ((1 << ts.bits) - 1)
}

// Extended returns a monotonic tick count, applying rollover management.
func (ts *Timestamp) Extended() uint64 {
	raw := ts.Raw()
	if raw < ts.lastRaw {
		ts.rollBase += 1 << ts.bits
	}
	ts.lastRaw = raw
	return ts.rollBase + raw
}

// WrapPeriod returns how long the register takes to wrap.
func (ts *Timestamp) WrapPeriod() sim.Time {
	return sim.Time(uint64(sim.Second) * (1 << ts.bits) / uint64(ts.hz))
}
