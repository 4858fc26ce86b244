package rtos

import (
	"testing"

	"repro/internal/sim"
)

// TestWatchdogQuietWhilePetted: a healthy petter task keeps the watchdog
// from ever biting.
func TestWatchdogQuietWhilePetted(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni", 10*sim.Microsecond)
	w := NewWatchdog(eng, 100*sim.Millisecond, nil)
	w.SpawnPetter(k, "pet", 60, 25*sim.Millisecond)
	eng.RunUntil(5 * sim.Second)
	if w.Bites != 0 {
		t.Fatalf("bites = %d on a healthy kernel", w.Bites)
	}
	if w.Starving() > 25*sim.Millisecond {
		t.Fatalf("starving %v with a 25 ms petter", w.Starving())
	}
}

// TestWatchdogBitesHaltedKernel: halting the kernel starves the petter and
// the watchdog fires its reset callback, repeatedly, until Resume.
func TestWatchdogBitesHaltedKernel(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni", 10*sim.Microsecond)
	var bites []sim.Time
	w := NewWatchdog(eng, 100*sim.Millisecond, func() { bites = append(bites, eng.Now()) })
	w.SpawnPetter(k, "pet", 60, 25*sim.Millisecond)

	eng.At(sim.Second, k.Halt)
	eng.RunUntil(1500 * sim.Millisecond)
	if len(bites) < 3 {
		t.Fatalf("bites = %d in a 500 ms halt with a 100 ms timeout", len(bites))
	}
	if bites[0] > 1100*sim.Millisecond+sim.Millisecond {
		t.Fatalf("first bite at %v, want ≈1.1s", bites[0])
	}

	eng.At(1500*sim.Millisecond+sim.Microsecond, k.Resume)
	prior := len(bites)
	eng.RunUntil(3 * sim.Second)
	// Allow one race-window bite right at resume, then silence.
	if len(bites) > prior+1 {
		t.Fatalf("watchdog kept biting after resume: %d new", len(bites)-prior)
	}
}

// TestWatchdogBitesRunawayTask: a runaway highest-priority task starves the
// lower-priority petter; the watchdog detects the hang and goes quiet when
// the hog exits.
func TestWatchdogBitesRunawayTask(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni", 10*sim.Microsecond)
	w := NewWatchdog(eng, 100*sim.Millisecond, nil)
	w.SpawnPetter(k, "pet", 60, 25*sim.Millisecond)
	eng.At(sim.Second, func() {
		k.SpawnStep("hog", 0, seq(run(400*sim.Millisecond)))
	})
	eng.RunUntil(5 * sim.Second)
	if w.Bites < 2 || w.Bites > 5 {
		t.Fatalf("bites = %d across a 400 ms hang, want 3-ish", w.Bites)
	}
	if w.Starving() > 25*sim.Millisecond {
		t.Fatal("petter did not recover after the hog exited")
	}
}

// TestWatchdogStop disarms for good.
func TestWatchdogStop(t *testing.T) {
	eng := sim.NewEngine(1)
	w := NewWatchdog(eng, 10*sim.Millisecond, nil)
	w.Stop()
	eng.Run() // must terminate: no re-arming events left
	if w.Bites != 0 {
		t.Fatalf("stopped watchdog bit %d times", w.Bites)
	}
}

// TestHaltParksMidBurstTask: a task whose CPU burst is in flight when the
// kernel halts is parked, then finishes after Resume.
func TestHaltParksMidBurstTask(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni", 0)
	var doneAt sim.Time
	k.SpawnStep("worker", 50, seq(run(10*sim.Millisecond), func(tc *TaskCtx) { doneAt = tc.Now() }))
	eng.At(5*sim.Millisecond, k.Halt)
	eng.RunUntil(sim.Second)
	if doneAt != 0 {
		t.Fatalf("task completed at %v during a halt", doneAt)
	}
	if k.Running() != nil {
		t.Fatal("halted kernel still shows a running task")
	}
	eng.At(sim.Second, k.Resume)
	eng.RunUntil(2 * sim.Second)
	if doneAt < sim.Second {
		t.Fatalf("task completed at %v, want after resume", doneAt)
	}
}

// TestHaltBlocksNewSpawns: tasks spawned while halted run only after resume.
func TestHaltBlocksNewSpawns(t *testing.T) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "ni", 0)
	k.Halt()
	ran := sim.Time(-1)
	k.SpawnStep("late", 50, seq(func(tc *TaskCtx) { ran = tc.Now() }))
	eng.RunUntil(sim.Second)
	if ran != -1 {
		t.Fatalf("task ran at %v on a halted kernel", ran)
	}
	k.Resume()
	eng.RunUntil(2 * sim.Second)
	if ran < sim.Second {
		t.Fatalf("task ran at %v, want ≥1s", ran)
	}
}
