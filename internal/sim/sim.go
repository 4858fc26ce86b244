// Package sim is a deterministic discrete-event simulation kernel.
//
// Every substrate in this reproduction — the i960 RD network interface, the
// PCI bus, the disks, the Ethernet, the host OS — advances a shared virtual
// clock owned by an Engine. Events are callbacks ordered by (time, insertion
// sequence), so two runs with the same seed replay identically; there are no
// goroutines and no wall-clock dependencies, which keeps the reproduced
// tables and figures stable across machines.
//
// The pending-event queue is a flat 4-ary min-heap of indices into an event
// arena with a free-list: the steady-state schedule/fire cycle allocates
// nothing and never boxes events through interfaces, so the harness's own
// hot loop stays out of the way of the simulated hardware it measures (the
// paper makes the same argument for its i960 fast paths). Event handles
// carry a generation counter, so cancelling an event that already fired —
// or whose arena slot has since been reused — is a safe no-op.
//
// An event carries at most one argument: At and After schedule a func(),
// AtArg and AfterArg a func(any) with the value to pass it. A component
// builds its callbacks once and passes per-operation state (the packet in
// flight, say) as the argument, so scheduling an operation allocates no
// closure. A pointer, or any pointer-shaped value, passes without boxing.
// Cross-partition messages follow the same rule (Partition.Send and
// SendArg) and return no handle: a sent message cannot be recalled.
// Resource follows it too: its one wait line holds requests by value, and
// its completion callback is built once.
//
// A callback that is about to schedule its own continuation d from now can
// instead ask TryAdvance to move the clock there and carry on in place. The
// engine grants that only when nothing else could have run first: no pending
// event — cancelled ones included — is due at or before the target, and the
// target lies within the bound of the Run or RunUntil executing (the
// partition's safe horizon under a Topology, where no message can land
// before it). A tie refuses, because the event already queued holds the
// lower sequence number and fires first. Granted, the continuation runs at
// the same instant, before the same events, as the scheduled one would have:
// (time, sequence) order is preserved and only the hand-off is skipped.
//
// Under a Topology, a message takes its destination's next sequence number
// when it crosses a round barrier, not when it is sent. Messages merged in
// the same round and due at the same instant fire in (source partition,
// source sequence) order. The relative order of same-instant messages merged
// in different rounds — and of a message and a same-instant local event — is
// unspecified: it is the same at any worker count, but it is not the order a
// monolithic engine would give, so no artifact may depend on it.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Time is a point in simulated time (or a duration between two such
// points), in nanoseconds.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Microseconds returns t as a float64 count of microseconds (reporting only).
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds returns t as a float64 count of milliseconds (reporting only).
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns t as float64 seconds (reporting only).
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", t.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// eventSlot is one arena entry. Slots are recycled through the engine's
// free-list; gen increments on every recycle so stale Event handles cannot
// touch a reused slot. The callback is fn, or fa called with arg; a slot
// with neither is cancelled.
type eventSlot struct {
	at  Time
	seq uint64
	fn  func()
	fa  func(any)
	arg any
	gen uint32
}

// live reports whether the slot still has a callback to run.
func (s *eventSlot) live() bool { return s.fn != nil || s.fa != nil }

// Event is a handle to a scheduled callback. The zero value is inert: Cancel
// and Scheduled on it are safe no-ops, so callers can keep one Event field
// and never nil-check it.
type Event struct {
	eng   *Engine
	idx   int32
	gen   uint32
	epoch uint32
}

// Cancel prevents the event from firing. Safe to call more than once, after
// the event has fired, and on the zero value; a handle whose arena slot has
// been recycled for a newer event is recognised by its stale generation (or
// a stale Drain epoch) and left untouched.
func (ev Event) Cancel() {
	if ev.eng == nil || ev.epoch != ev.eng.epoch || int(ev.idx) >= len(ev.eng.slots) {
		return // zero value, or the arena was drained since this handle was minted
	}
	s := &ev.eng.slots[ev.idx]
	if s.gen != ev.gen {
		return // already fired (or cancelled and reaped): slot reused
	}
	s.fn, s.fa, s.arg = nil, nil, nil // reaped lazily by Step without advancing the clock
}

// Scheduled reports whether the event is still pending (not yet fired and
// not cancelled). The zero value reports false.
func (ev Event) Scheduled() bool {
	if ev.eng == nil || ev.epoch != ev.eng.epoch || int(ev.idx) >= len(ev.eng.slots) {
		return false
	}
	s := &ev.eng.slots[ev.idx]
	return s.gen == ev.gen && s.live()
}

// Engine owns the virtual clock and the pending-event queue.
type Engine struct {
	now   Time
	seq   uint64
	epoch uint32 // bumped by Drain so pre-Drain handles stay inert
	rng   *rand.Rand
	slots []eventSlot // event arena
	free  []int32     // recycled arena slots
	heap  []int32     // 4-ary min-heap of arena indices, keyed by (at, seq)

	// bound is the inclusive time limit of the Run or RunUntil executing on
	// this engine; running is false outside one.
	bound   Time
	running bool

	closers []func() // OnClose registrations, run by Close
}

// NewEngine returns an engine at time zero with a deterministic RNG.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source. All stochastic
// substrate behaviour (disk seek spread, web request jitter) must draw from
// it so runs stay reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn at absolute time t. Scheduling in the past panics: it
// always indicates a modelling bug.
func (e *Engine) At(t Time, fn func()) Event {
	ev, s := e.schedule(t)
	s.fn = fn
	return ev
}

// After schedules fn d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) Event { return e.At(e.now+d, fn) }

// AtArg schedules fn(arg) at absolute time t, under At's rules.
func (e *Engine) AtArg(t Time, fn func(any), arg any) Event {
	ev, s := e.schedule(t)
	s.fa, s.arg = fn, arg
	return ev
}

// AfterArg schedules fn(arg) d nanoseconds from now. Negative d panics.
func (e *Engine) AfterArg(d Time, fn func(any), arg any) Event {
	return e.AtArg(e.now+d, fn, arg)
}

// schedule takes an arena slot for an event at t, queues it, and returns
// its handle and the slot for the caller to store the callback in.
func (e *Engine) schedule(t Time) (Event, *eventSlot) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, eventSlot{})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.at = t
	s.seq = e.seq
	e.heap = append(e.heap, idx)
	e.siftUp(len(e.heap) - 1)
	return Event{eng: e, idx: idx, gen: s.gen, epoch: e.epoch}, s
}

// less orders heap entries by (time, insertion sequence).
func (e *Engine) less(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

const heapArity = 4

func (e *Engine) siftUp(i int) {
	h := e.heap
	idx := h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !e.less(idx, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = idx
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	idx := h[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		end := min(first+heapArity, n)
		for c := first + 1; c < end; c++ {
			if e.less(h[c], h[best]) {
				best = c
			}
		}
		if !e.less(h[best], idx) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = idx
}

// Every schedules fn at now+period, then every period thereafter, until the
// returned stop function is called. fn observes the tick time via Now.
func (e *Engine) Every(period Time, fn func()) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		if !stopped {
			fn()
		}
		if !stopped {
			e.After(period, tick)
		}
	}
	e.After(period, tick)
	return func() { stopped = true }
}

// popHead removes the earliest slot from the heap and recycles it. A live
// event moves the clock to its time and runs; a cancelled one is reaped
// without advancing the clock. It reports whether an event ran.
func (e *Engine) popHead() bool {
	idx := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		e.siftDown(0)
	}
	s := &e.slots[idx]
	fn, fa, arg, at := s.fn, s.fa, s.arg, s.at
	s.fn, s.fa, s.arg = nil, nil, nil
	s.gen++ // stale handles to this slot become inert
	e.free = append(e.free, idx)
	switch {
	case fn != nil:
		e.now = at
		fn()
	case fa != nil:
		e.now = at
		fa(arg)
	default:
		return false
	}
	return true
}

// Step fires the earliest pending event. It returns false when no events
// remain. Cancelled events are skipped without advancing the clock.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		if e.popHead() {
			return true
		}
	}
	return false
}

// Run fires events until none remain.
func (e *Engine) Run() {
	bound, running := e.bound, e.running
	e.bound, e.running = math.MaxInt64, true
	defer func() { e.bound, e.running = bound, running }()
	for e.Step() {
	}
}

// TryAdvance moves the clock to t and reports true when nothing can happen
// before t: a Run or RunUntil is executing, t is within its bound, and no
// pending event — cancelled ones included — is due at or before t. Otherwise
// it leaves the clock alone and reports false; the caller then schedules its
// continuation at t as usual. Outside a run (under a bare Step, say) it
// always refuses. t before now panics, like scheduling in the past.
func (e *Engine) TryAdvance(t Time) bool {
	if t < e.now {
		panic(fmt.Sprintf("sim: advancing to %v before now %v", t, e.now))
	}
	if !e.running || t > e.bound {
		return false
	}
	if len(e.heap) > 0 && e.slots[e.heap[0]].at <= t {
		return false
	}
	e.now = t
	return true
}

// RunUntil fires events with time ≤ t, then sets the clock to t. Events
// scheduled beyond t remain pending.
//
// Cancelled events at or before t are reaped here rather than through
// Step: Step's skip-ahead would fire the next live event even when it
// lies beyond t, silently running past the bound. Under the partitioned
// topology that bound is the conservative safe horizon, so overshooting
// it is a causality violation (a partition executing state another
// partition may still send messages into). t is also the bound TryAdvance
// grants within while RunUntil executes.
func (e *Engine) RunUntil(t Time) {
	bound, running := e.bound, e.running
	e.bound, e.running = t, true
	defer func() { e.bound, e.running = bound, running }()
	for len(e.heap) > 0 && e.slots[e.heap[0]].at <= t {
		e.popHead()
	}
	if e.now < t {
		e.now = t
	}
}

// NextAt returns the time of the earliest pending event (including
// cancelled ones not yet reaped) and whether any event is pending.
func (e *Engine) NextAt() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.slots[e.heap[0]].at, true
}

// Pending reports how many events (including cancelled ones not yet
// reaped) are queued. Intended for tests.
func (e *Engine) Pending() int { return len(e.heap) }

// Drain discards every pending event and releases the arena, heap, and
// free-list storage. A long sweep that reuses one engine (or parks a
// finished scenario while building the next) would otherwise hold its peak
// arena capacity for the whole run; Drain returns that memory to the
// allocator. The clock, sequence counter, and RNG are untouched, so a
// drained engine schedules and replays exactly as before. Handles minted
// before the Drain become permanently inert — they can never cancel an
// event scheduled afterwards, even one reusing the same arena slot.
func (e *Engine) Drain() {
	e.epoch++
	e.slots = nil
	e.free = nil
	e.heap = nil
}

// OnClose registers fn to run when the engine is closed. Components that
// hold a resource the garbage collector cannot reclaim on its own (an rtos
// kernel's parked task coroutines) register their release here.
func (e *Engine) OnClose(fn func()) { e.closers = append(e.closers, fn) }

// Close releases what the engine's components registered with OnClose, in
// registration order. Call it when the run is over and its results are
// collected, from outside any event callback; the engine must not be run
// again. Closing twice is harmless.
func (e *Engine) Close() {
	closers := e.closers
	e.closers = nil
	for _, fn := range closers {
		fn()
	}
}

// ArenaCap reports the event arena's current capacity in slots — the
// high-water mark of simultaneously pending events since the last Drain.
// Diagnostic, used by capacity-regression tests.
func (e *Engine) ArenaCap() int { return cap(e.slots) }

// Resource is a single server with a FIFO queue — the building block for
// bus arbitration, disk heads, and CPU cores. A holder acquires it, keeps it
// for some simulated time, and releases it; waiters are granted in arrival
// order.
//
// Requests wait in one line, by value: a Use holds the resource for a
// duration and then calls its done; an Acquire's granted callback holds it
// until the holder calls Release, so the hold can be decided at grant time.
// A Use completes through a callback built once, so a request allocates
// nothing once the line has grown to its working depth.
type Resource struct {
	eng   *Engine
	name  string
	busy  bool
	queue FIFO[request]

	done     func() // the Use in service's done; nil for an Acquire
	finishFn func() // r.finish, built once

	// BusyTime accumulates total held time, for utilization reporting.
	BusyTime  Time
	lastStart Time
}

// request is one entry of a Resource's wait line: an Acquire (granted set)
// or a Use (hold d, then done).
type request struct {
	d       Time
	done    func()
	granted func()
}

// NewResource returns an idle resource attached to eng.
func NewResource(eng *Engine, name string) *Resource {
	r := &Resource{eng: eng, name: name}
	r.finishFn = r.finish
	return r
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.busy }

// QueueLen reports how many acquirers are waiting.
func (r *Resource) QueueLen() int { return r.queue.Len() }

// Acquire requests the resource; granted runs (possibly immediately, within
// this call) once the resource is free and it is this requester's turn. The
// holder must call Release exactly once.
func (r *Resource) Acquire(granted func()) { r.request(request{granted: granted}) }

// Use acquires the resource, holds it for d, then releases it and calls
// done (done may be nil). It models a simple service demand.
func (r *Resource) Use(d Time, done func()) { r.request(request{d: d, done: done}) }

// request grants q now if the resource is free, else queues it.
func (r *Resource) request(q request) {
	if r.busy {
		r.queue.Push(q)
		return
	}
	r.busy = true
	r.grant(q)
}

// grant starts q's hold at the current time.
func (r *Resource) grant(q request) {
	r.lastStart = r.eng.Now()
	if q.granted != nil {
		q.granted()
		return
	}
	r.done = q.done
	r.eng.After(q.d, r.finishFn)
}

// Release frees the resource and hands it to the next waiter, if any. The
// next grant runs immediately within this call at the current time.
func (r *Resource) Release() {
	if !r.busy {
		panic("sim: Release of idle resource " + r.name)
	}
	r.BusyTime += r.eng.Now() - r.lastStart
	if r.queue.Len() == 0 {
		r.busy = false
		return
	}
	r.grant(r.queue.Pop())
}

// finish ends the Use in service: the next waiter is granted first, then
// the finished request's done runs.
func (r *Resource) finish() {
	done := r.done
	r.done = nil
	r.Release()
	if done != nil {
		done()
	}
}

// Utilization returns the fraction of [0, now] the resource was held.
func (r *Resource) Utilization() float64 {
	total := r.eng.Now()
	if total == 0 {
		return 0
	}
	busy := r.BusyTime
	if r.busy {
		busy += r.eng.Now() - r.lastStart
	}
	return float64(busy) / float64(total)
}
