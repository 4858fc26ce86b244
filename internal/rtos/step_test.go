package rtos

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// blockOp is one blocking call of a scripted task.
type blockOp struct {
	kind byte // 's' Sleep, 'u' SleepUntil, 'a' Await, 'i' Await completing at once, 't' Take, 'g' Give
	d    sim.Time
	sem  *Semaphore
}

func (op blockOp) do(eng *sim.Engine, tc *TaskCtx) {
	switch op.kind {
	case 's':
		tc.Sleep(op.d)
	case 'u':
		tc.SleepUntil(op.d)
	case 'a':
		tc.Await(func(done func()) { eng.After(op.d, done) })
	case 'i':
		tc.Await(func(done func()) { done() })
	case 't':
		op.sem.Take(tc)
	case 'g':
		op.sem.Give()
	}
}

// blockScript runs one kernel with two CPU-bound tasks and three tasks
// that only block, under priorities, time slicing, a halt in the middle of
// a burst and one in the middle of a context switch; once the halts are
// done, bursts that nothing can interrupt complete in place. It returns the
// log of every (time, task, event) and the kernel's accounting, and how many
// of the CPU-bound tasks' 24 bursts parked.
func blockScript() (_ string, parked int) {
	eng := sim.NewEngine(1)
	k := NewKernel(eng, "cpu", 2*sim.Microsecond)
	k.TimeSlice = 10 * sim.Microsecond
	var log strings.Builder
	mark := func(tc *TaskCtx, what string) {
		fmt.Fprintf(&log, "%6d %-5s %s\n", tc.Now(), k.Running().Name(), what)
	}
	x, y := NewSemaphore(k, "x", 0), NewSemaphore(k, "y", 1)

	for _, name := range []string{"hogA", "hogB"} {
		n := 0 // call n runs burst n/2 (even n) or marks its end (odd n)
		task := k.SpawnStep(name, 5, func(tc *TaskCtx) bool {
			i := n / 2
			n++
			if n%2 == 1 {
				if i == 12 {
					x.Give()
					return false
				}
				tc.Run(6 * sim.Microsecond)
				return true
			}
			mark(tc, fmt.Sprintf("burst %d", i))
			if i%4 == 3 {
				tc.Sleep(11 * sim.Microsecond)
			}
			return true
		})
		burstDone := task.burstDoneFn
		task.burstDoneFn = func() { parked++; burstDone() }
	}
	blockers := []struct {
		name string
		prio int
		ops  []blockOp
	}{
		{"hi", 1, []blockOp{{kind: 's', d: 9 * sim.Microsecond}, {kind: 'i'}, {kind: 't', sem: y},
			{kind: 'a', d: 25 * sim.Microsecond}, {kind: 'g', sem: y}, {kind: 's', d: 0},
			{kind: 'u', d: 70 * sim.Microsecond}, {kind: 't', sem: x}, {kind: 'a', d: 3 * sim.Microsecond}}},
		{"eq", 5, []blockOp{{kind: 't', sem: y}, {kind: 's', d: 4 * sim.Microsecond}, {kind: 'g', sem: y},
			{kind: 'a', d: 13 * sim.Microsecond}, {kind: 'u', d: 20 * sim.Microsecond}, {kind: 's', d: 40 * sim.Microsecond},
			{kind: 'i'}, {kind: 't', sem: x}}},
		{"lo", 9, []blockOp{{kind: 'i'}, {kind: 's', d: 17 * sim.Microsecond}, {kind: 't', sem: y},
			{kind: 'g', sem: x}, {kind: 'g', sem: x}, {kind: 'a', d: sim.Microsecond}}},
	}
	for _, b := range blockers {
		i := 0
		k.SpawnStep(b.name, b.prio, func(tc *TaskCtx) bool {
			if i > 0 {
				mark(tc, fmt.Sprintf("op %d %c", i-1, b.ops[i-1].kind))
			}
			if i == len(b.ops) {
				return false
			}
			i++
			b.ops[i-1].do(eng, tc)
			return true
		})
	}

	halts := 0
	var stopSampler func()
	stopSampler = eng.Every(sim.Microsecond, func() {
		r := k.Running()
		if halts >= 3 {
			stopSampler() // from here on, lone bursts complete in place
			return
		}
		if r == nil {
			return
		}
		what := ""
		switch {
		case r.State() == Ready && halts%2 == 0:
			what = "mid-switch to " + r.Name()
		case r.State() == Running && halts%2 == 1 && eng.Now() > 30*sim.Microsecond:
			what = "mid-burst of " + r.Name()
		default:
			return
		}
		halts++
		k.Halt()
		fmt.Fprintf(&log, "%6d ----- halt %s\n", eng.Now(), what)
		eng.After(15*sim.Microsecond, func() {
			fmt.Fprintf(&log, "%6d ----- resume\n", eng.Now())
			k.Resume()
		})
	})
	eng.RunUntil(600 * sim.Microsecond)
	fmt.Fprintf(&log, "switches=%d busy=%d parked=%d\n", k.Switches, k.BusyTime, parked)
	return log.String(), parked
}

// A step task logs what the coroutine task it replaced logged, whether it
// holds the CPU or only blocks: blockScript's (time, task, event) log,
// switches, CPU accounting and parked bursts equal blockScriptGolden under
// priorities, time slicing, halts and bursts that complete in place.
func TestStepTaskMatchesCoroutineTask(t *testing.T) {
	got, parked := blockScript()
	for _, want := range []string{"halt mid-switch", "halt mid-burst", "hi    op 8 a", "eq    op 7 t", "lo    op 5 a", "hogB  burst 11"} {
		if !strings.Contains(got, want) {
			t.Fatalf("the script no longer reaches %q:\n%s", want, got)
		}
	}
	if parked == 0 || parked == 24 {
		t.Fatalf("%d of 24 bursts parked; the script must park some and complete some in place", parked)
	}
	if got != blockScriptGolden {
		t.Errorf("step tasks left the coroutine log.\n--- got\n%s--- want\n%s", got, blockScriptGolden)
	}
}

// Two blocking calls in one step panic with a message naming the mistake,
// and so does a blocking call after a Run burst that parked, or a Run
// after a block.
func TestStepTaskMisusePanics(t *testing.T) {
	for _, c := range []struct {
		name, want string
		step       func(eng *sim.Engine, tc *TaskCtx) bool
	}{
		{"Run, then Sleep", "two blocking calls in one step", func(eng *sim.Engine, tc *TaskCtx) bool {
			eng.After(sim.Microsecond, func() {}) // refuses the in-place completion
			tc.Run(2 * sim.Microsecond)
			tc.Sleep(sim.Microsecond)
			return true
		}},
		{"Sleep, then Run", "two blocking calls in one step", func(_ *sim.Engine, tc *TaskCtx) bool {
			tc.Sleep(sim.Microsecond)
			tc.Run(sim.Microsecond)
			return true
		}},
		{"two blocks", "two blocking calls in one step", func(_ *sim.Engine, tc *TaskCtx) bool {
			tc.Sleep(sim.Microsecond)
			tc.Sleep(sim.Microsecond)
			return true
		}},
	} {
		func() {
			eng := sim.NewEngine(1)
			k := NewKernel(eng, "cpu", 0)
			k.SpawnStep("bad", 1, func(tc *TaskCtx) bool { return c.step(eng, tc) })
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), c.want) {
					t.Errorf("%s: recovered %v, want a panic saying %q", c.name, r, c.want)
				}
			}()
			eng.Run()
		}()
	}
}

// blockScriptGolden is blockScript's log with every task spawned as an
// iter.Pull coroutine, recorded at the parent of the commit that deleted
// coroutine tasks.
const blockScriptGolden = `  1000 ----- halt mid-switch to hogA
 16000 ----- resume
 16000 hi    op 0 s
 16000 hi    op 1 i
 16000 hi    op 2 t
 24000 hogB  burst 0
 34000 ----- halt mid-burst of hogA
 49000 ----- resume
 50000 ----- halt mid-switch to hi
 65000 ----- resume
 67000 hi    op 3 a
 67000 hi    op 4 g
 67000 hi    op 5 s
 69000 hogB  burst 1
 77000 hi    op 6 u
 79000 hogA  burst 0
 85000 hogA  burst 1
 93000 eq    op 0 t
 95000 hogB  burst 2
101000 hogB  burst 3
103000 hogA  burst 2
109000 hogA  burst 3
111000 eq    op 1 s
111000 eq    op 2 g
113000 lo    op 0 i
121000 hogB  burst 4
135000 hogA  burst 4
143000 eq    op 3 a
143000 eq    op 4 u
145000 hogB  burst 5
151000 hogB  burst 6
159000 hogA  burst 5
165000 hogA  burst 6
173000 hogB  burst 7
175000 hogA  burst 7
177000 lo    op 1 s
177000 lo    op 2 t
177000 lo    op 3 g
177000 lo    op 4 g
179000 hi    op 7 t
181000 lo    op 5 a
184000 hi    op 8 a
186000 eq    op 5 s
186000 eq    op 6 i
186000 eq    op 7 t
194000 hogB  burst 8
208000 hogA  burst 8
216000 hogB  burst 9
222000 hogB  burst 10
230000 hogA  burst 9
236000 hogA  burst 10
244000 hogB  burst 11
246000 hogA  burst 11
switches=35 busy=144000 parked=16
`
