// Watchdog: the i960 RD carries a free-running hardware timer that the
// paper's VxWorks configuration can program as a deadman. A Watchdog lives
// on the simulation engine — *outside* the kernel it guards — so a halted
// or starved kernel cannot silence it. Software must Pet it at least once
// per timeout; otherwise it bites, firing the reset callback, and keeps
// biting once per timeout until pets resume (retry on failed resets).
package rtos

import "repro/internal/sim"

// Watchdog is a hardware deadman timer.
type Watchdog struct {
	eng     *sim.Engine
	timeout sim.Time
	onBite  func()
	ev      sim.Event
	stopped bool

	// Bites counts expirations; LastPet is the most recent feed.
	Bites   int64
	LastPet sim.Time
}

// NewWatchdog arms a watchdog that bites after timeout without a Pet.
func NewWatchdog(eng *sim.Engine, timeout sim.Time, onBite func()) *Watchdog {
	if timeout <= 0 {
		panic("rtos: watchdog timeout must be positive")
	}
	w := &Watchdog{eng: eng, timeout: timeout, onBite: onBite, LastPet: eng.Now()}
	w.arm()
	return w
}

func (w *Watchdog) arm() {
	w.ev = w.eng.After(w.timeout, w.bite)
}

func (w *Watchdog) bite() {
	if w.stopped {
		return
	}
	w.Bites++
	w.arm() // keep biting while starved: failed resets get retried
	if w.onBite != nil {
		w.onBite()
	}
}

// Observe chains fn to run after the existing reset callback on every
// bite — the flight recorder's tap on the deadman, attached without
// disturbing whatever recovery action the watchdog was armed with.
func (w *Watchdog) Observe(fn func()) {
	prev := w.onBite
	w.onBite = func() {
		if prev != nil {
			prev()
		}
		fn()
	}
}

// Pet feeds the watchdog, pushing the next bite a full timeout out.
func (w *Watchdog) Pet() {
	if w.stopped {
		return
	}
	w.LastPet = w.eng.Now()
	w.ev.Cancel()
	w.arm()
}

// Stop disarms the watchdog permanently.
func (w *Watchdog) Stop() {
	w.stopped = true
	w.ev.Cancel()
}

// Starving reports how long since the last pet.
func (w *Watchdog) Starving() sim.Time { return w.eng.Now() - w.LastPet }

// SpawnPetter starts a kernel task that pets the watchdog every `every`;
// it only sleeps, so it is a step task.
// Run it below the tasks whose liveness it vouches for: if a runaway
// higher-priority task hogs the CPU — or the kernel halts outright — the
// petter starves with it and the watchdog bites.
func (w *Watchdog) SpawnPetter(k *Kernel, name string, prio int, every sim.Time) *Task {
	if every <= 0 || every >= w.timeout {
		panic("rtos: pet period must be positive and below the watchdog timeout")
	}
	return k.SpawnStep(name, prio, func(tc *TaskCtx) bool {
		w.Pet()
		tc.Sleep(every)
		return true
	})
}
