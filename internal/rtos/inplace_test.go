package rtos

import (
	"testing"

	"repro/internal/sim"
)

// A lone task's burst completes in place: the clock moves on, the CPU
// accounting is the burst's, and nothing is scheduled on the engine.
func TestLoneBurstCompletesInPlace(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Close()
	k := NewKernel(eng, "cpu", sim.Microsecond)
	var parked int
	var pendingBefore, pendingAfter int
	var start, end sim.Time
	task := k.Spawn("lone", 1, func(tc *TaskCtx) {
		pendingBefore, start = eng.Pending(), tc.Now()
		tc.Run(7 * sim.Microsecond)
		pendingAfter, end = eng.Pending(), tc.Now()
	})
	countParks(task, &parked)
	eng.RunUntil(sim.Millisecond)
	if parked != 0 || end-start != 7*sim.Microsecond {
		t.Errorf("%d parked, burst took %v; want 0 and 7µs", parked, end-start)
	}
	if pendingAfter != pendingBefore {
		t.Errorf("Pending() %d before the burst, %d after", pendingBefore, pendingAfter)
	}
	if task.CPUTime != 7*sim.Microsecond || k.BusyTime != 7*sim.Microsecond {
		t.Errorf("CPUTime %v, BusyTime %v; want 7µs each", task.CPUTime, k.BusyTime)
	}
}

// Each reason burstDone could act on refuses the in-place completion, and
// the burst parks on its engine event: a higher-priority ready task, an
// equal-priority ready task once the slice is spent, a halted kernel, and an
// engine event due inside the burst or as it ends.
func TestInterruptibleBurstParks(t *testing.T) {
	const d = 4 * sim.Microsecond
	cases := []struct {
		name string
		// before runs in the task body just ahead of the burst under test.
		before     func(k *Kernel, tc *TaskCtx)
		wantParked int
	}{
		{"nothing", func(*Kernel, *TaskCtx) {}, 0},
		{"higher-priority ready task", func(k *Kernel, _ *TaskCtx) {
			k.Spawn("hi", 1, func(*TaskCtx) {})
		}, 1},
		{"lower-priority ready task", func(k *Kernel, _ *TaskCtx) {
			k.Spawn("lo", 9, func(*TaskCtx) {})
		}, 0},
		{"equal-priority ready task, slice not spent", func(k *Kernel, _ *TaskCtx) {
			k.Spawn("peer", 5, func(*TaskCtx) {})
		}, 0},
		{"equal-priority ready task, slice spent", func(k *Kernel, tc *TaskCtx) {
			k.Spawn("peer", 5, func(*TaskCtx) {})
			tc.Run(k.TimeSlice - d) // in place: the slice ends with the next burst
		}, 1},
		{"halted kernel", func(k *Kernel, _ *TaskCtx) {
			k.Halt()
			k.Engine().After(sim.Millisecond, k.Resume)
		}, 1},
		{"event inside the burst", func(k *Kernel, _ *TaskCtx) {
			k.Engine().After(d/2, func() {})
		}, 1},
		{"event as the burst ends", func(k *Kernel, _ *TaskCtx) {
			k.Engine().After(d, func() {})
		}, 1},
		{"event after the burst", func(k *Kernel, _ *TaskCtx) {
			k.Engine().After(d+1, func() {})
		}, 0},
	}
	for _, c := range cases {
		eng := sim.NewEngine(1)
		k := NewKernel(eng, "cpu", 0)
		k.TimeSlice = 10 * sim.Microsecond
		var parked int
		var start, end sim.Time
		task := k.Spawn("t", 5, func(tc *TaskCtx) {
			c.before(k, tc)
			start = tc.Now()
			tc.Run(d)
			end = tc.Now()
		})
		countParks(task, &parked)
		eng.RunUntil(10 * sim.Millisecond)
		if parked != c.wantParked {
			t.Errorf("%s: %d bursts parked, want %d", c.name, parked, c.wantParked)
		}
		if c.wantParked == 0 && end-start != d {
			t.Errorf("%s: the in-place burst took %v, want %v", c.name, end-start, d)
		}
		eng.Close()
	}
}

// A context switch completes in place unless an event is due before it
// ends; either way the task starts its body at the same instant.
func TestContextSwitchInPlaceUnlessInterruptible(t *testing.T) {
	const ctx = 2 * sim.Microsecond
	for _, c := range []struct {
		name       string
		competitor sim.Time // a no-op event this long after the switch starts; 0 for none
		wantParked int
	}{
		{"nothing pending", 0, 0},
		{"event inside the switch", ctx / 2, 1},
		{"event as the switch ends", ctx, 1},
		{"event after the switch", ctx + 1, 0},
	} {
		eng := sim.NewEngine(1)
		k := NewKernel(eng, "cpu", ctx)
		var parked int
		var started sim.Time
		k.Spawn("first", 1, func(tc *TaskCtx) {
			if c.competitor != 0 {
				eng.After(c.competitor, func() {})
			}
		})
		second := k.Spawn("second", 1, func(tc *TaskCtx) { started = tc.Now() })
		countParks(second, &parked)
		eng.RunUntil(sim.Millisecond)
		// The first dispatch counts as a switch too, at no cost.
		if parked != c.wantParked || started != ctx || k.Switches != 2 {
			t.Errorf("%s: %d switches parked, second started at %v after %d switches; want %d, %v, 2",
				c.name, parked, started, k.Switches, c.wantParked, ctx)
		}
		eng.Close()
	}
}
