// Package host implements the host-CPU-based DWCS configuration the paper
// compares against (§4.2.3): the same dwcs.Scheduler code, but running as a
// Solaris process bound to one CPU with `pbind`, paying system-call and
// context-switch costs, competing with web-server load in the hostos run
// queues, and transmitting through a dumb Intel 82557 NI.
//
// The host scheduler's CPU demand per decision is tiny (tens of µs on a
// 200–300 MHz processor), but every decision must *wait its turn* on the
// time-shared CPU. Under web load that queueing delays decisions past frame
// deadlines; DWCS then drops late packets of lossy streams — which is
// exactly the bandwidth collapse of Figure 7 and the queuing-delay blow-up
// of Figure 8. The NI-based scheduler of internal/nic never competes for
// the host CPU, which is Figures 9 and 10.
package host

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/dwcs"
	"repro/internal/hostos"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// perDecisionSyscalls models the gettimeofday/poll traffic around each
// host-scheduler decision.
const perDecisionSyscalls = 3

// SchedulerConfig parameterizes the host-based scheduler process.
type SchedulerConfig struct {
	CPU            int // processor the process is bound to (pbind)
	Model          *cpu.Model
	Precedence     dwcs.Precedence
	WorkConserving bool
	EligibleEarly  sim.Time
	// DecisionOverheadCycles covers shared-memory synchronization and
	// library overhead per decision; 0 uses the value calibrated to the
	// ≈50 µs UltraSPARC figure the paper quotes.
	DecisionOverheadCycles int64
}

// DefaultHostDecisionOverhead reproduces the ≈50 µs quiescent scheduling
// overhead reported for the host-based DWCS on a 300 MHz UltraSPARC.
const DefaultHostDecisionOverhead = 14600

// Scheduler is the host-resident DWCS process.
type Scheduler struct {
	Sched *dwcs.Scheduler
	Meter *cpu.Meter

	// QDelay tracks queuing delay per stream (Figure 8).
	QDelay map[int]*stats.DelayTracker
	// Sent/Dropped count outcomes.
	Sent    int64
	Dropped int64

	eng   *sim.Engine
	sys   *hostos.System
	cfg   SchedulerConfig
	stack netsim.StackProfile
	link  *netsim.Link
	lap   *cpu.Lap

	running bool      // a decision's CPU demand is queued or executing
	waitEv  sim.Event // pending paced wakeup
	dst     map[int]string

	// The decision state machine's steps are built once (NewScheduler), and
	// the decided packet waits in tx while its protocol work is queued: the
	// process makes its next decision only after sending it.
	tx       dwcs.Packet
	decideFn func()
	sendFn   func()
	pumpFn   func()

	tel       *telemetry.Registry
	telQDelay *telemetry.Histogram
}

// Instrument attaches a telemetry registry: the host scheduler's counters
// and queue-delay histogram join under the host component, and dispatches
// record the frame's queue span.
func (h *Scheduler) Instrument(reg *telemetry.Registry) {
	if reg == nil || h.tel != nil {
		return
	}
	h.tel = reg
	h.telQDelay = reg.HistogramMetric("host", "queue_delay_ms",
		"enqueue-to-dispatch delay per frame on the host scheduler (milliseconds)", nil)
	reg.CounterFunc("host", "frames_sent_total",
		"frames the host scheduler dispatched", func() int64 { return h.Sent })
	reg.CounterFunc("host", "frames_dropped_total",
		"frames the host scheduler dropped for missed deadlines", func() int64 { return h.Dropped })
	reg.CounterFunc("host", "decisions_total",
		"host scheduling decisions made", func() int64 { return h.Sched.TotalDecisions })
}

// NewScheduler creates the process. link is the 82557 NI the host transmits
// through (frames flow host memory → I/O bus → NI → wire; the I/O-bus DMA
// is folded into the stack cost, as it is pipelined by the NI).
func NewScheduler(eng *sim.Engine, sys *hostos.System, link *netsim.Link, cfg SchedulerConfig) *Scheduler {
	if cfg.Model == nil {
		cfg.Model = cpu.UltraSparc300()
	}
	if cfg.DecisionOverheadCycles == 0 {
		cfg.DecisionOverheadCycles = DefaultHostDecisionOverhead
	}
	meter := cpu.NewMeter(cfg.Model)
	meter.Arith = cpu.NativeFP // host builds use the FPU
	h := &Scheduler{
		Meter:  meter,
		QDelay: make(map[int]*stats.DelayTracker),
		eng:    eng,
		sys:    sys,
		cfg:    cfg,
		stack:  netsim.HostStack(),
		link:   link,
		dst:    make(map[int]string),
	}
	h.Sched = dwcs.New(dwcs.Config{
		Precedence:          cfg.Precedence,
		WorkConserving:      cfg.WorkConserving,
		EligibleEarly:       cfg.EligibleEarly,
		Meter:               meter,
		Now:                 eng.Now,
		DecisionOverhead:    cfg.DecisionOverheadCycles,
		MaxDropsPerDecision: 1, // one head packet per scheduling pass
	})
	h.lap = cpu.StartLap(meter)
	h.decideFn, h.sendFn, h.pumpFn = h.decide, h.send, h.pump
	return h
}

// AddStream registers a stream delivered to client address dst.
func (h *Scheduler) AddStream(spec dwcs.StreamSpec, dst string) error {
	if err := h.Sched.AddStream(spec); err != nil {
		return err
	}
	h.QDelay[spec.ID] = &stats.DelayTracker{Name: spec.Name}
	h.dst[spec.ID] = dst
	return nil
}

// Enqueue queues a packet (producer side) and pokes the process.
func (h *Scheduler) Enqueue(id int, p dwcs.Packet) error {
	if err := h.Sched.Enqueue(id, p); err != nil {
		return err
	}
	h.pump()
	return nil
}

// QueuedBytes reports the payload bytes resident in the host scheduler's
// rings. The host has no 4 MB card constraint — this is the number that grows
// without bound under overload, the contrast claim 4 draws against the NI.
func (h *Scheduler) QueuedBytes() int64 { return h.Sched.QueuedBytes() }

// wakeupSlice is the CPU demand of getting the woken scheduler process back
// onto the processor and through its decision code — what the process must
// *queue for* before the scheduling decision executes. This queueing is the
// degradation mechanism of §4.2.3: under load the decision runs late, the
// head frame has missed its deadline by then, and DWCS drops it.
const wakeupSlice = 120 * sim.Microsecond

// pump advances the process state machine: at most one decision's CPU
// demand is outstanding at a time, mirroring the single scheduler process.
// Every decision first queues for the bound CPU; Schedule() executes only
// once the process actually runs.
func (h *Scheduler) pump() {
	if h.running {
		return
	}
	h.waitEv.Cancel()
	h.running = true
	h.sys.Submit(h.cfg.CPU, wakeupSlice, h.decideFn)
}

// decide makes one scheduling decision once the process holds the CPU.
func (h *Scheduler) decide() {
	d := h.Sched.Schedule()
	h.Meter.Syscall(perDecisionSyscalls)
	demand := h.lap.Take()
	h.Dropped += int64(len(d.Dropped))
	switch {
	case d.Packet != nil:
		// Per-frame protocol work also competes for the bound CPU.
		h.tx = *d.Packet
		h.sys.Submit(h.cfg.CPU, demand+h.stack.Tx, h.sendFn)
	case d.WaitUntil > 0:
		h.running = false
		if h.eng.Now() >= d.WaitUntil {
			h.pump()
			return
		}
		h.waitEv = h.eng.At(d.WaitUntil, h.pumpFn)
	case len(d.Dropped) > 0:
		h.running = false
		h.pump()
	default:
		h.running = false
		// Idle: the next Enqueue pumps again.
	}
}

// send transmits the decided packet once its protocol work has run, then
// pumps the next decision.
func (h *Scheduler) send() {
	h.running = false
	p := &h.tx
	if t := h.QDelay[p.StreamID]; t != nil {
		t.Record(h.eng.Now() - p.Enqueued)
	}
	if h.tel != nil {
		h.tel.Span(p.StreamID, p.Seq, telemetry.StageQueue, "host/dwcs", p.Enqueued, h.eng.Now())
		h.telQDelay.Observe((h.eng.Now() - p.Enqueued).Milliseconds())
	}
	h.Sent++
	if h.link != nil {
		h.link.Send(&netsim.Packet{
			Src:        "host",
			Dst:        h.dst[p.StreamID],
			StreamID:   p.StreamID,
			Seq:        p.Seq,
			Bytes:      p.Bytes,
			Enqueued:   p.Enqueued,
			Deadline:   p.Deadline,
			Dispatched: h.eng.Now(),
		}, nil)
	}
	h.pump()
}

// Producer injects segmented MPEG frames into a host or NI scheduler at a
// fixed rate, modelling the paper's MPEG segmentation program running as an
// application thread. Each injection costs a little CPU on the host (read
// from the filesystem cache plus segmentation work).
type Producer struct {
	Injected int64
	Stalled  int64

	stop func()
}

// EnqueueTarget abstracts where producers inject (host scheduler or a
// DVCM/NI extension).
type EnqueueTarget interface {
	Enqueue(id int, p dwcs.Packet) error
}

// ProducerConfig drives one producer.
type ProducerConfig struct {
	Clip        *mpeg.Clip
	StreamID    int
	Every       sim.Time // injection period
	PerFrameCPU sim.Time // host CPU per *mean-size* frame; scaled by frame size
	CPU         int      // hostos CPU for that work, or hostos.AnyCPU
	Loop        bool     // cycle through the clip forever
}

// StartProducer begins injecting into target until Stop.
func StartProducer(eng *sim.Engine, sys *hostos.System, target EnqueueTarget, cfg ProducerConfig) *Producer {
	if cfg.Every <= 0 {
		panic("host: producer period must be positive")
	}
	p := &Producer{}
	// enqueue injects one frame, passed as its argument, once its CPU work
	// has run; built once, so a frame costs no closure.
	enqueue := func(arg any) {
		f := arg.(*mpeg.Frame)
		if err := target.Enqueue(cfg.StreamID, dwcs.Packet{Bytes: f.Size, Offset: f.Offset}); err != nil {
			p.Stalled++ // ring full: frame dropped at the producer
			return
		}
		p.Injected++
	}
	i := 0
	p.stop = eng.Every(cfg.Every, func() {
		if i >= len(cfg.Clip.Frames) {
			if !cfg.Loop {
				p.stop()
				return
			}
			i = 0
		}
		f := &cfg.Clip.Frames[i]
		if cfg.PerFrameCPU > 0 && sys != nil {
			// Segmentation + copy cost scales with frame size (I frames
			// cost several times what B frames do).
			mean := cfg.Clip.MeanFrameSize()
			d := cfg.PerFrameCPU
			if mean > 0 {
				d = sim.Time(int64(d) * f.Size / mean)
			}
			sys.SubmitArg(cfg.CPU, d, enqueue, f)
		} else {
			enqueue(f)
		}
		i++
	})
	return p
}

// Stop halts the producer.
func (p *Producer) Stop() {
	if p.stop != nil {
		p.stop()
		p.stop = nil
	}
}

// String summarizes the producer.
func (p *Producer) String() string {
	return fmt.Sprintf("injected=%d stalled=%d", p.Injected, p.Stalled)
}
