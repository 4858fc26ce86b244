// Package hostos models the Solaris x86 host of the quad Pentium Pro
// server: multiple CPUs, a time-sharing run queue per CPU, processor
// binding (the paper binds the DWCS process with Solaris `pbind`), and a
// Perfmeter-style utilization sampler (Figure 6).
//
// The model is deliberately coarser than the NI's RTOS model: host work is
// submitted as CPU demands that are sliced into scheduling quanta and
// round-robined per CPU. What matters for the reproduction is the
// *queueing* a small, latency-sensitive job (a DWCS scheduling decision
// plus a protocol-stack traversal, a few hundred µs) experiences behind
// web-request service bursts — that queueing is what degrades the
// host-based scheduler in Figures 7 and 8 while the NI-based scheduler of
// Figure 9/10 never sees it.
//
// A CPU's run queue holds jobs by value in a sim.FIFO, and each CPU ends its
// quantum slices through one callback built once, keeping the running job
// and its slice in fields: submitting and slicing work allocates nothing
// once the queue has grown to its working depth. A job's completion is a
// func(), or a func(any) with its one argument (SubmitArg), so a caller can
// build its completion once and pass per-job state as the argument.
package hostos

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// AnyCPU submits work to the currently least-loaded CPU.
const AnyCPU = -1

// job is one schedulable CPU demand; its completion is done, or doneArg
// called with arg.
type job struct {
	remaining sim.Time
	done      func()
	doneArg   func(any)
	arg       any
}

// complete runs the job's completion, if it has one.
func (j *job) complete() {
	switch {
	case j.done != nil:
		j.done()
	case j.doneArg != nil:
		j.doneArg(j.arg)
	}
}

// CPU is one processor's run queue.
type CPU struct {
	eng     *sim.Engine
	id      int
	quantum sim.Time
	queue   sim.FIFO[job]
	queued  sim.Time // demand remaining across queue

	busy       bool     // running holds a job in its slice
	running    job      // the job in its slice
	slice      sim.Time // the slice's length
	sliceEndFn func()   // c.sliceEnd, built once

	// BusyTime accumulates executed demand.
	BusyTime sim.Time
}

func (c *CPU) load() sim.Time {
	l := c.queued
	if c.busy {
		l += c.running.remaining
	}
	return l
}

func (c *CPU) submit(j job) {
	c.push(j)
	c.kick()
}

func (c *CPU) push(j job) {
	c.queue.Push(j)
	c.queued += j.remaining
}

// kick starts the next queued job's slice if the CPU is idle.
func (c *CPU) kick() {
	if c.busy || c.queue.Len() == 0 {
		return
	}
	j := c.queue.Pop()
	c.queued -= j.remaining
	c.busy, c.running = true, j
	c.slice = min(j.remaining, c.quantum)
	c.eng.After(c.slice, c.sliceEndFn)
}

// sliceEnd charges the finished slice: an unfinished job goes to the back
// of the queue (round-robin), a finished one completes. Then the next
// slice starts.
func (c *CPU) sliceEnd() {
	c.BusyTime += c.slice
	j := c.running
	j.remaining -= c.slice
	c.busy, c.running = false, job{}
	if j.remaining > 0 {
		c.push(j)
	} else {
		j.complete()
	}
	c.kick()
}

// Utilization returns the fraction of elapsed time this CPU was busy.
func (c *CPU) Utilization() float64 {
	if c.eng.Now() == 0 {
		return 0
	}
	return float64(c.BusyTime) / float64(c.eng.Now())
}

// System is the host: a set of CPUs sharing nothing but the sampler.
type System struct {
	eng  *sim.Engine
	cpus []*CPU

	lastBusy   sim.Time
	lastSample sim.Time
}

// New returns a host with n CPUs and the given scheduling quantum.
func New(eng *sim.Engine, n int, quantum sim.Time) *System {
	if n <= 0 {
		panic("hostos: need at least one CPU")
	}
	s := &System{eng: eng}
	for i := 0; i < n; i++ {
		c := &CPU{eng: eng, id: i, quantum: quantum}
		c.sliceEndFn = c.sliceEnd
		s.cpus = append(s.cpus, c)
	}
	return s
}

// NumCPU returns the number of online CPUs.
func (s *System) NumCPU() int { return len(s.cpus) }

// CPU returns processor i.
func (s *System) CPU(i int) *CPU { return s.cpus[i] }

// Submit queues d of CPU demand on processor cpu (AnyCPU picks the least
// loaded), invoking done when it has fully executed.
func (s *System) Submit(cpu int, d sim.Time, done func()) {
	s.submit(cpu, job{remaining: d, done: done})
}

// SubmitArg is Submit with a completion that takes one argument: fn(arg)
// runs when the demand has fully executed.
func (s *System) SubmitArg(cpu int, d sim.Time, fn func(any), arg any) {
	s.submit(cpu, job{remaining: d, doneArg: fn, arg: arg})
}

func (s *System) submit(cpu int, j job) {
	if j.remaining < 0 {
		panic(fmt.Sprintf("hostos: negative demand %v", j.remaining))
	}
	if j.remaining == 0 {
		j.complete()
		return
	}
	target := cpu
	if cpu == AnyCPU {
		target = 0
		best := s.cpus[0].load()
		for i := 1; i < len(s.cpus); i++ {
			if l := s.cpus[i].load(); l < best {
				best = l
				target = i
			}
		}
	} else if cpu < 0 || cpu >= len(s.cpus) {
		panic(fmt.Sprintf("hostos: no CPU %d", cpu))
	}
	s.cpus[target].submit(j)
}

// QueueLen returns how many jobs are waiting (not running) on cpu i.
func (s *System) QueueLen(i int) int { return s.cpus[i].queue.Len() }

// TotalUtilization returns the average utilization across CPUs since t=0.
func (s *System) TotalUtilization() float64 {
	if s.eng.Now() == 0 {
		return 0
	}
	var busy sim.Time
	for _, c := range s.cpus {
		busy += c.BusyTime
	}
	return float64(busy) / float64(s.eng.Now()) / float64(len(s.cpus))
}

// SampleUtilization appends a Perfmeter-style sample (percent CPU used over
// the interval since the previous sample) to series every period, until the
// returned stop function is called.
func (s *System) SampleUtilization(period sim.Time, series *stats.Series) (stop func()) {
	s.lastBusy = 0
	s.lastSample = s.eng.Now()
	return s.eng.Every(period, func() {
		var busy sim.Time
		for _, c := range s.cpus {
			busy += c.BusyTime
		}
		interval := s.eng.Now() - s.lastSample
		if interval <= 0 {
			return
		}
		pct := 100 * float64(busy-s.lastBusy) / float64(interval) / float64(len(s.cpus))
		series.Add(s.eng.Now(), pct)
		s.lastBusy = busy
		s.lastSample = s.eng.Now()
	})
}
