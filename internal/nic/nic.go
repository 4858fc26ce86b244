// Package nic models the Intel i960 RD I2O network interface card: a 66 MHz
// co-processor running a VxWorks-style kernel, 4 MB of local pinned memory,
// the 1004-register hardware-queue file, two 100 Mbps Ethernet ports, two
// SCSI ports with optionally attached disks, and a PCI interface to the
// host (§1, §3.1.2).
//
// A Card hosts a core.VCM; LoadScheduler registers the paper's media-
// scheduler extension (SchedulerExt), which runs the real dwcs.Scheduler as
// a kernel task whose CPU consumption comes from the cpu.Meter charges the
// scheduler code performs. Producer tasks stream MPEG frames into the
// scheduler from NI-attached disks (path C of Figure 3) or across the PCI
// bus from a peer card (path B).
package nic

import (
	"errors"
	"fmt"

	"repro/internal/blackbox"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/disk"
	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/mem"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Task priorities on the NI kernel (VxWorks style: lower = higher).
const (
	PrioScheduler = 50  // the DWCS scheduler task
	PrioWatchdog  = 60  // watchdog petter: starves when anything above hangs
	PrioRelay     = 80  // store-and-forward relay tasks
	PrioProducer  = 100 // frame producer tasks
)

// Dispatch-path cost constants, calibrated against the Table 1–3
// "w/o Scheduler" columns: handing one frame descriptor to the Ethernet
// transmit machinery costs a fixed driver block plus descriptor/buffer
// administration memory traffic plus one fraction operation (a per-stream
// rate-statistics update that the paper's software-FP build pays library
// cost for).
const (
	txDriverCycles = 1715
	txMemReads     = 13
	txMemWrites    = 8
)

// Config describes one card.
type Config struct {
	Name    string
	PCI     *bus.Bus       // segment the card sits on
	CacheOn bool           // data-cache state (the disk driver forces it off, §4.2)
	Arith   cpu.Arithmetic // softFP or fixed-point build of the scheduler
	Memory  int64          // installed local memory; 0 = 4 MB
	Model   *cpu.Model     // nil = i960 RD 66 MHz
}

// Card is one I2O NI.
type Card struct {
	Eng    *sim.Engine
	Name   string
	Kernel *rtos.Kernel
	Meter  *cpu.Meter
	Mem    *mem.Memory
	Regs   *mem.RegisterFile
	PCI    *bus.Bus
	Link   *netsim.Link // Ethernet port 0, nil until connected
	Disk   *disk.Disk   // SCSI port 0, nil unless attached
	FS     disk.FS
	Stack  netsim.StackProfile
	VCM    *core.VCM

	// FramesSent counts frames handed to the wire by any path on this card.
	FramesSent int64

	// Tel is the attached telemetry registry; nil (the default) disables
	// spans, metrics, and cycle attribution on this card.
	Tel *telemetry.Registry

	// Watchdog is the card's hardware deadman, if StartWatchdog armed one.
	Watchdog *rtos.Watchdog
	// Blackbox is the card's flight recorder once AttachBlackbox put one on
	// it; nil (the default) records nothing (blackbox.Recorder is nil-safe).
	Blackbox *blackbox.Recorder
	// Crashes and Resets count fault-injection lifecycle transitions.
	Crashes int64
	Resets  int64

	crashed bool

	// Frames on the wire whose card memory is released when the link's
	// transmitter is done with them, in send order: the link completes
	// transmissions in the order they were sent, so each wireDoneFn call
	// releases the oldest.
	onWire     sim.FIFO[releaser]
	wireDoneFn func() // c.wireDone, built once

	spare []*netsim.Packet // given back by Recycle, for the next dispatches
}

// Crash wedges the card (firmware fault, injected by internal/faults): the
// kernel halts, so no task — scheduler, producer, relay — makes progress
// until Reset. Frames already handed to the wire still deliver; everything
// queued on the card is frozen in place.
func (c *Card) Crash() {
	if c.crashed {
		return
	}
	c.crashed = true
	c.Crashes++
	c.Kernel.Halt()
}

// Reset brings a crashed card back: the kernel resumes and parked tasks run
// again. Callers that failed the card's streams over elsewhere should wipe
// and re-register them before resuming traffic.
func (c *Card) Reset() {
	if !c.crashed {
		return
	}
	c.crashed = false
	c.Resets++
	c.Kernel.Resume()
}

// Crashed reports whether the card is wedged.
func (c *Card) Crashed() bool { return c.crashed }

// HangHog injects an RTOS task hang: a runaway highest-priority task that
// holds the CPU for d, starving every other task (the watchdog petter
// included, which is how the hang gets detected).
func (c *Card) HangHog(d sim.Time) {
	c.Kernel.SpawnStep(c.Name+"/hog", 0, func(tc *rtos.TaskCtx) bool { tc.Run(d); return false })
}

// StartWatchdog arms the card's hardware watchdog with the given timeout
// and spawns the petter task that feeds it while the kernel is alive.
// onBite fires on expiry — typically scheduling a Reset after the card's
// reset latency — and then the bite is recorded and triggers an incident.
// The watchdog keeps biting once per timeout while the card stays wedged,
// so a lost reset is retried.
func (c *Card) StartWatchdog(timeout sim.Time, onBite func()) *rtos.Watchdog {
	if c.Watchdog != nil {
		return c.Watchdog
	}
	c.Watchdog = rtos.NewWatchdog(c.Eng, timeout, func() {
		if onBite != nil {
			onBite()
		}
		c.Blackbox.Record(blackbox.Event{At: c.Eng.Now(), Kind: blackbox.KindWatchdog, Note: "deadman bite"})
		c.Blackbox.Trigger(c.Eng.Now(), "watchdog")
	})
	c.Watchdog.SpawnPetter(c.Kernel, c.Name+"/wdpet", PrioWatchdog, timeout/4)
	return c.Watchdog
}

// New boots a card.
func New(eng *sim.Engine, cfg Config) *Card {
	model := cfg.Model
	if model == nil {
		model = cpu.I960RD()
	}
	size := cfg.Memory
	if size == 0 {
		size = mem.DefaultCardMemory
	}
	meter := cpu.NewMeter(model)
	meter.CacheOn = cfg.CacheOn
	meter.Arith = cfg.Arith
	c := &Card{
		Eng:    eng,
		Name:   cfg.Name,
		Kernel: rtos.NewKernel(eng, cfg.Name, model.Duration(model.CtxSwitch)),
		Meter:  meter,
		Mem:    mem.NewMemory(size),
		Regs:   mem.NewRegisterFile(meter),
		PCI:    cfg.PCI,
		Stack:  netsim.I960Stack(),
		VCM:    core.NewVCM(cfg.Name),
	}
	c.wireDoneFn = c.wireDone
	if cfg.PCI != nil {
		c.VCM.Crossing = core.CrossingFunc(func(words int64, deliver func()) {
			cfg.PCI.PIOWrite(words, deliver)
		})
	}
	return c
}

// ConnectEthernet attaches the card's Ethernet port 0 to a link, before
// frames flow.
func (c *Card) ConnectEthernet(l *netsim.Link) { c.Link = l }

// AttachDisk attaches a disk and its filesystem to a SCSI port. Attaching a
// disk disables the data cache, as the paper's VxWorks driver does (§4.2).
func (c *Card) AttachDisk(d *disk.Disk, fs disk.FS) {
	c.Disk = d
	c.FS = fs
	c.Meter.CacheOn = false
}

// Instrument attaches a telemetry registry: the card's frame counter is
// exported under the nic component. Idempotent; safe once per card.
func (c *Card) Instrument(reg *telemetry.Registry) {
	if reg == nil || c.Tel != nil {
		return
	}
	c.Tel = reg
	reg.CounterFunc("nic", "frames_sent_total",
		"frames handed to the wire by NI cards", func() int64 { return c.FramesSent })
}

// ChargeDispatch charges the cost of handing one frame to the transmitter.
func (c *Card) ChargeDispatch() {
	prevC, prevO := c.Meter.SetContext("nic", "dispatch")
	defer c.Meter.SetContext(prevC, prevO)
	c.Meter.ChargeCycles(txDriverCycles)
	c.Meter.MemRead(txMemReads)
	c.Meter.MemWrite(txMemWrites)
	c.Meter.Frac(1)
}

// FrameBuf marks a packet payload as occupying card memory; the dispatch
// path frees it once the frame is on the wire (single-copy design, §3.1.2).
type FrameBuf struct {
	Mem  *mem.Memory
	Addr mem.Addr
}

// Release frees the frame's card memory.
func (f FrameBuf) Release() { f.Mem.Free(f.Addr) }

// releaser is any payload owning card memory (FrameBuf or wrappers
// embedding it).
type releaser interface{ Release() }

func releasePayload(p any) {
	if r, ok := p.(releaser); ok {
		r.Release()
	}
}

// Transmit puts a frame on the wire. A kernel task on the card pays the
// frame's protocol encapsulation first, with a Run(c.Stack.Tx) burst that
// ends its step; the next step transmits. A payload owning card memory
// (nil for none) is released once the frame is on the wire.
func (c *Card) Transmit(pkt *netsim.Packet, payload any) {
	c.FramesSent++
	buf, owned := payload.(releaser)
	switch {
	case c.Link == nil:
		if owned {
			buf.Release()
		}
	case owned:
		c.onWire.Push(buf)
		c.Link.Send(pkt, c.wireDoneFn)
	default:
		c.Link.Send(pkt, nil)
	}
}

// wireDone releases the card memory of the oldest frame on the wire.
func (c *Card) wireDone() { c.onWire.Pop().Release() }

// Recycle gives the card a packet that nothing references any more — its
// client has played it out — so a later dispatch reuses it instead of
// allocating one. The packet may have been dispatched by any card, but the
// call must run on this card's engine.
func (c *Card) Recycle(p *netsim.Packet) { c.spare = append(c.spare, p) }

// packet returns a packet for a dispatch: a recycled one if there is one.
func (c *Card) packet() *netsim.Packet {
	n := len(c.spare)
	if n == 0 {
		return new(netsim.Packet)
	}
	p := c.spare[n-1]
	c.spare = c.spare[:n-1]
	return p
}

// StoreKind selects where the scheduler's descriptor rings live.
type StoreKind int

// Descriptor stores.
const (
	// StoreDRAM keeps rings in pinned card memory (Table 2).
	StoreDRAM StoreKind = iota
	// StoreHardwareQueue keeps rings in the 1004-register memory-mapped
	// file (Table 3).
	StoreHardwareQueue
)

// String names the store kind.
func (k StoreKind) String() string {
	if k == StoreHardwareQueue {
		return "hw-queue"
	}
	return "dram"
}

// SchedulerConfig configures the media-scheduler extension.
type SchedulerConfig struct {
	Store          StoreKind
	Precedence     dwcs.Precedence
	Selector       dwcs.SelectorKind
	WorkConserving bool
	EligibleEarly  sim.Time
	// DecisionOverheadCycles models the per-decision fixed costs the
	// operation-level charges don't capture: two timestamp-counter reads,
	// wind-kernel loop overhead, and heap bookkeeping. 0 uses the value
	// calibrated against Table 2.
	DecisionOverheadCycles int64
}

// DefaultDecisionOverhead is calibrated so the fixed-point, cache-enabled
// configuration reproduces the ≈66.8 µs scheduling overhead of Table 2.
const DefaultDecisionOverhead = 4020

// SchedulerExt is the DVCM media-scheduler extension of §3.1: a
// dwcs.Scheduler plus the kernel task that runs it.
type SchedulerExt struct {
	Card  *Card
	Sched *dwcs.Scheduler

	// QDelay tracks queuing delay per stream (Figures 8 and 10).
	QDelay map[int]*stats.DelayTracker
	// OnDispatch observes every dispatched packet (before the wire). p is
	// valid only during the call; copy *p to keep it.
	OnDispatch func(p *dwcs.Packet)

	// Sent and Dropped count scheduler outcomes.
	Sent    int64
	Dropped int64

	// Overload is the card's overload controller once AttachOverload wired
	// one; nil (the default) leaves every admission and pressure path
	// exactly as before.
	Overload *overload.Controller
	// OnReinstate fires when a revoked stream is readmitted, so the harness
	// can restart its producer.
	OnReinstate func(spec dwcs.StreamSpec)

	ovCost  map[int]overload.StreamCost // admission charge per stream
	revoked []dwcs.StreamSpec           // revocation order, for FIFO reinstatement

	telQDelay *telemetry.Histogram

	// The scheduler task's name and the queue span's site, built once
	// (LoadScheduler) so no span concatenates a name.
	srcDWCS string

	work *rtos.Semaphore
	kick func() // wakes a paced sleep early; nil when not sleeping
	regB int    // next free register-file word for ring allocation

	// The paced sleep's state lives here and its two callbacks are built
	// once (LoadScheduler), so a wait between decisions allocates nothing.
	sleepAt      sim.Time  // when the sleep in progress times out
	sleepEv      sim.Event // its timer
	sleepWake    func()    // its completion, from Await
	startSleepFn func(wake func())
	endSleepFn   func()
}

// buildScheduler constructs the DWCS instance for cfg, allocating ring
// stores from the register file when requested. next tracks register-file
// allocation across streams.
func (c *Card) buildScheduler(cfg SchedulerConfig, next *int) *dwcs.Scheduler {
	if cfg.DecisionOverheadCycles == 0 {
		cfg.DecisionOverheadCycles = DefaultDecisionOverhead
	}
	newStore := func(words int) mem.WordStore {
		if cfg.Store == StoreHardwareQueue {
			if *next+words > mem.HardwareQueueRegisters {
				panic(fmt.Sprintf("nic %s: hardware queue exhausted (%d + %d words)", c.Name, *next, words))
			}
			r := mem.NewRegion(c.Regs, *next, words)
			*next += words
			return r
		}
		return mem.NewDRAMStore(c.Meter, words)
	}
	return dwcs.New(dwcs.Config{
		Precedence:       cfg.Precedence,
		Selector:         cfg.Selector,
		WorkConserving:   cfg.WorkConserving,
		EligibleEarly:    cfg.EligibleEarly,
		Meter:            c.Meter,
		Now:              c.Eng.Now,
		DecisionOverhead: cfg.DecisionOverheadCycles,
		NewStore:         newStore,
	})
}

// NewBenchScheduler builds the scheduler exactly as LoadScheduler does but
// without registering the extension or starting its task — the meter-driven
// Table 1–3 microbenchmarks step it by hand.
func (c *Card) NewBenchScheduler(cfg SchedulerConfig) *dwcs.Scheduler {
	var next int
	return c.buildScheduler(cfg, &next)
}

// LoadScheduler creates the extension, registers it on the card's VCM under
// the name "dwcs", and starts the scheduler task.
func (c *Card) LoadScheduler(cfg SchedulerConfig) (*SchedulerExt, error) {
	ext := &SchedulerExt{
		Card:    c,
		QDelay:  make(map[int]*stats.DelayTracker),
		srcDWCS: c.Name + "/dwcs",
	}
	ext.Sched = c.buildScheduler(cfg, &ext.regB)
	ext.work = rtos.NewSemaphore(c.Kernel, c.Name+"/work", 0)
	ext.startSleepFn, ext.endSleepFn = ext.startSleep, ext.endSleep
	if err := c.VCM.Register(ext); err != nil {
		return nil, err
	}
	sched := &schedTask{ext: ext}
	c.Kernel.SpawnStep(ext.srcDWCS, PrioScheduler, sched.step)
	return ext, nil
}

// Instrument attaches a telemetry registry to the extension and its card:
// dwcs counters and the queue-delay histogram join the registry, dispatches
// record the frame's queue span, and every meter charge is cycle-attributed.
func (ext *SchedulerExt) Instrument(reg *telemetry.Registry) {
	if reg == nil || ext.telQDelay != nil {
		return
	}
	ext.Card.Instrument(reg)
	ext.telQDelay = reg.HistogramMetric("dwcs", "queue_delay_ms",
		"enqueue-to-dispatch delay per frame (milliseconds)", nil)
	reg.CounterFunc("dwcs", "frames_dispatched_total",
		"frames the scheduler dispatched to the transmit path", func() int64 { return ext.Sent })
	reg.CounterFunc("dwcs", "frames_dropped_total",
		"frames dropped for missed deadlines", func() int64 { return ext.Dropped })
	reg.CounterFunc("dwcs", "decisions_total",
		"scheduling decisions made", func() int64 { return ext.Sched.TotalDecisions })
}

// Name implements core.Extension.
func (ext *SchedulerExt) Name() string { return "dwcs" }

// Attach implements core.Extension.
func (ext *SchedulerExt) Attach(*core.VCM) error { return nil }

// EnqueueArgs is the argument of the "enqueue" instruction.
type EnqueueArgs struct {
	StreamID int
	Packet   dwcs.Packet
}

// ReconfigureArgs is the argument of the "reconfigure" instruction — the
// network-near rate/loss adaptation of §3.1.
type ReconfigureArgs struct {
	StreamID int
	Period   sim.Time
	Loss     fixed.Frac
}

// Invoke implements core.Extension: the DVCM instruction set of the media
// scheduler.
func (ext *SchedulerExt) Invoke(op string, arg any) (any, error) {
	id, isID := arg.(int)
	switch op {
	case "removeStream", "exportStream", "stats", "pause", "resume":
		if !isID {
			return nil, fmt.Errorf("dwcs ext: %s wants int, got %T", op, arg)
		}
	}
	switch op {
	case "addStream":
		spec, ok := arg.(dwcs.StreamSpec)
		if !ok {
			return nil, fmt.Errorf("dwcs ext: addStream wants StreamSpec, got %T", arg)
		}
		return nil, ext.admit(spec, func() error { return ext.Sched.AddStream(spec) })
	case "removeStream":
		return nil, ext.removeStream(id)
	case "importStream":
		img, ok := arg.(dwcs.StreamSnapshot)
		if !ok {
			return nil, fmt.Errorf("dwcs ext: importStream wants dwcs.StreamSnapshot, got %T", arg)
		}
		return nil, ext.importStream(img)
	case "exportStream":
		return ext.Sched.ExportStream(id)
	case "enqueue":
		ea, ok := arg.(EnqueueArgs)
		if !ok {
			return nil, fmt.Errorf("dwcs ext: enqueue wants EnqueueArgs, got %T", arg)
		}
		return nil, ext.Enqueue(ea.StreamID, ea.Packet)
	case "stats":
		return ext.Sched.Stats(id)
	case "snapshot":
		return ext.Sched.Snapshot(), nil
	case "pause":
		return nil, ext.Sched.Pause(id)
	case "resume":
		if err := ext.Sched.Resume(id); err != nil {
			return nil, err
		}
		ext.wake() // freshly-eligible packets may need the task's attention
		return nil, nil
	case "reconfigure":
		ra, ok := arg.(ReconfigureArgs)
		if !ok {
			return nil, fmt.Errorf("dwcs ext: reconfigure wants ReconfigureArgs, got %T", arg)
		}
		return nil, ext.Sched.Reconfigure(ra.StreamID, ra.Period, ra.Loss)
	default:
		return nil, core.ErrBadOp
	}
}

// AddStream registers a stream directly (card-local callers).
func (ext *SchedulerExt) AddStream(spec dwcs.StreamSpec) error {
	_, err := ext.Invoke("addStream", spec)
	return err
}

// importStream admits a migrated stream from its image, going through the
// same overload-budget gate as a fresh setup: a card past its high-water
// mark refuses the migration exactly as it would refuse a new viewer, so
// the migration protocol's candidate retry / AwaitSpace machinery applies.
func (ext *SchedulerExt) importStream(img dwcs.StreamSnapshot) error {
	if err := ext.admit(img.Spec, func() error { return ext.Sched.ImportStream(img) }); err != nil {
		return err
	}
	ext.Card.Blackbox.Record(blackbox.Event{At: ext.Card.Eng.Now(), Kind: blackbox.KindMigrate,
		Stream: img.Spec.ID, Seq: img.Seq, A: img.WindowX, B: img.WindowY, Note: "import"})
	return nil
}

// admit registers spec's stream with add, charging its card-memory cost to
// the overload budget first, when there is one, and giving it back if add
// fails.
func (ext *SchedulerExt) admit(spec dwcs.StreamSpec, add func() error) error {
	cost, ov := StreamMemCost(spec), ext.Overload
	if ov != nil {
		if err := ov.Budget.AdmitStream(cost); err != nil {
			return err
		}
	}
	if err := add(); err != nil {
		if ov != nil {
			ov.Budget.ReleaseStream(cost)
		}
		return err
	}
	if ov != nil {
		ext.ovCost[spec.ID] = cost
	}
	ext.QDelay[spec.ID] = &stats.DelayTracker{Name: spec.Name}
	return nil
}

// ImportStream registers a migrated stream directly (card-local callers).
func (ext *SchedulerExt) ImportStream(img dwcs.StreamSnapshot) error {
	_, err := ext.Invoke("importStream", img)
	return err
}

// ExportStream snapshots a stream's migration image (card-local callers).
func (ext *SchedulerExt) ExportStream(id int) (dwcs.StreamSnapshot, error) {
	img, err := ext.Sched.ExportStream(id)
	if err == nil {
		ext.Card.Blackbox.Record(blackbox.Event{At: ext.Card.Eng.Now(), Kind: blackbox.KindMigrate,
			Stream: id, Seq: img.Seq, A: img.WindowX, B: img.WindowY, Note: "export"})
	}
	return img, err
}

// RemoveStream deregisters a stream directly (card-local callers), flushing
// queued frame payloads and releasing its admission charge.
func (ext *SchedulerExt) RemoveStream(id int) error {
	_, err := ext.Invoke("removeStream", id)
	return err
}

// DetachStream is the source half of a live migration: export the stream's
// image, flush the queued-but-undelivered frames (their card-memory payloads
// are released here — the bytes travel from the producer again, not over the
// migration channel), remove the stream, and rewind the image's frame cursor
// and deadline phase past the flushed frames. When the target re-enqueues
// the returned descriptors they reclaim their original sequence numbers, so
// the client sees one continuous stream across the hop. The payload fields
// of the returned packets are nil; replay re-addresses them.
func (ext *SchedulerExt) DetachStream(id int) (dwcs.StreamSnapshot, []dwcs.Packet, error) {
	img, err := ext.ExportStream(id)
	if err != nil {
		return dwcs.StreamSnapshot{}, nil, err
	}
	queued, err := ext.Sched.FlushStream(id)
	if err != nil {
		return dwcs.StreamSnapshot{}, nil, err
	}
	for i := range queued {
		releasePayload(queued[i].Payload)
		queued[i].Payload = nil
	}
	if err := ext.RemoveStream(id); err != nil {
		return dwcs.StreamSnapshot{}, nil, err
	}
	if n := int64(len(queued)); n > 0 {
		img.Seq -= n
		img.Phase -= sim.Time(n) * img.Spec.Period
		if img.Phase < 0 {
			img.Phase = 0
		}
		img.Queued = 0
	}
	return img, queued, nil
}

// Per-stream card-memory footprint constants for overload admission. One
// ring slot is eight descriptor words; stream state is the spec, window
// counters, and stats the scheduler keeps resident.
const (
	streamStateBytes = 256
	descriptorBytes  = 32
)

// streamCost projects a stream's card-memory footprint: admission charges
// State and Slots up front, while Ring — a full buffer of nominal frames,
// the worst case the stream can pin — is only tested against the high-water
// mark (live frame bytes are accounted by the allocator observer as they
// arrive).
func StreamMemCost(spec dwcs.StreamSpec) overload.StreamCost {
	return overload.StreamCost{
		State: streamStateBytes,
		Slots: int64(spec.BufCap) * descriptorBytes,
		Ring:  int64(spec.BufCap) * spec.NominalBytes,
	}
}

// removeStream flushes the stream's queued payloads back to card memory,
// deregisters it, and releases its admission charge. Flushing before removal
// also fixes frame buffers leaking when a populated stream is torn down.
func (ext *SchedulerExt) removeStream(id int) error {
	if pkts, err := ext.Sched.FlushStream(id); err == nil {
		for i := range pkts {
			releasePayload(pkts[i].Payload)
		}
	}
	if err := ext.Sched.RemoveStream(id); err != nil {
		return err
	}
	if ov := ext.Overload; ov != nil {
		if sc, ok := ext.ovCost[id]; ok {
			ov.Budget.ReleaseStream(sc)
			delete(ext.ovCost, id)
		}
	}
	return nil
}

// AttachOverload wires an overload controller to this extension: the card's
// allocator reports frame-buffer traffic to the budget, the controller's
// hooks drive shed/revoke/reinstate against the scheduler, and periodic
// evaluation starts on the card's engine. A flight recorder already on the
// card is charged to the budget, and a refused charge fails the attach (see
// AttachBlackbox). Idempotent; call once per card.
func (ext *SchedulerExt) AttachOverload(ctl *overload.Controller) error {
	if ext.Overload != nil {
		return nil
	}
	ext.Overload = ctl
	ext.ovCost = make(map[int]overload.StreamCost)
	ext.Card.Mem.Observe(ctl.Budget)
	ctl.Hooks = overload.Hooks{
		QueueDepth:   func() int { return ext.Sched.Len() },
		ShedTolerant: ext.shedTolerant,
		Revoke:       ext.revokeLowestValue,
		Reinstate:    ext.reinstateOne,
	}
	ctl.Start(ext.Card.Eng)
	return ext.recordOverload()
}

// shedTolerant is the ladder's rung-1 action: walk streams in insertion
// order shedding at most one head frame each — only where the DWCS window
// still tolerates a loss — until max frames are shed. Returns how many.
func (ext *SchedulerExt) shedTolerant(max int) int {
	shed := 0
	for _, id := range ext.Sched.StreamIDs() {
		if shed >= max {
			break
		}
		pkt, ok := ext.Sched.ShedTolerant(id)
		if !ok {
			continue
		}
		releasePayload(pkt.Payload)
		ext.Dropped++
		ext.Card.Blackbox.Record(blackbox.Event{At: ext.Card.Eng.Now(), Kind: blackbox.KindDrop,
			Stream: pkt.StreamID, Seq: pkt.Seq, A: pkt.Bytes, Note: "shed"})
		shed++
	}
	return shed
}

// revokeLowestValue is the ladder's last rung: revoke admission of the one
// lowest-value stream — lossy before lossless, then the largest declared
// loss tolerance, then the highest id — flushing its queue and releasing its
// charge. The stream's producer orphan-aborts on its next enqueue; the spec
// is kept so reinstateOne can reverse the revocation in FIFO order.
func (ext *SchedulerExt) revokeLowestValue() bool {
	best := -1
	var bestSpec dwcs.StreamSpec
	for _, sn := range ext.Sched.Snapshot() {
		sp := sn.Spec
		if best < 0 {
			best, bestSpec = sp.ID, sp
			continue
		}
		if c := cmpStreamValue(sp, bestSpec); c < 0 || (c == 0 && sp.ID > best) {
			best, bestSpec = sp.ID, sp
		}
	}
	if best < 0 {
		return false
	}
	if err := ext.removeStream(best); err != nil {
		return false
	}
	ext.revoked = append(ext.revoked, bestSpec)
	return true
}

// cmpStreamValue orders specs by value: negative when a should be revoked
// before b.
func cmpStreamValue(a, b dwcs.StreamSpec) int {
	if a.Lossy != b.Lossy {
		if a.Lossy {
			return -1
		}
		return 1
	}
	return b.Loss.Cmp(a.Loss) // larger tolerated loss revokes first
}

// reinstateOne readmits the oldest revoked stream, going back through the
// normal admission path (a still-tight budget refuses and the revocation
// stays on the queue for the next evaluation).
func (ext *SchedulerExt) reinstateOne() bool {
	if len(ext.revoked) == 0 {
		return false
	}
	spec := ext.revoked[0]
	if err := ext.AddStream(spec); err != nil {
		return false
	}
	ext.revoked = ext.revoked[1:]
	if ext.OnReinstate != nil {
		ext.OnReinstate(spec)
	}
	return true
}

// RevokedCount returns how many revocations are awaiting reinstatement.
func (ext *SchedulerExt) RevokedCount() int { return len(ext.revoked) }

// Enqueue queues a packet and wakes the scheduler task.
func (ext *SchedulerExt) Enqueue(id int, p dwcs.Packet) error {
	if err := ext.Sched.Enqueue(id, p); err != nil {
		return err
	}
	ext.wake()
	return nil
}

// wake ends the scheduler task's paced sleep early, or gives it work.
func (ext *SchedulerExt) wake() {
	if ext.kick != nil {
		ext.kick()
	} else {
		ext.work.Give()
	}
}

// The scheduler task's states; each ends in at most one blocking call or
// burst. Scheduling and dispatch are coupled (§3.1.1): the task sends each
// decision's packet before it makes the next decision.
const (
	taskStart   = iota // first dispatch: the task's CPU lap starts
	schedDecide        // decide and charge the decision
	schedAct           // account the drops, then act on the decision
	dispCharge         // charge the dispatch path for the decision's packet
	dispCharged        // account for it, build its frame, pay protocol encapsulation
	dispOnWire         // put the frame on the wire
)

// schedTask is the state of the scheduler task, a step task on the card.
// The decision's packet stays valid across the dispatch's bursts: the
// scheduler replaces it only at this task's next Schedule.
type schedTask struct {
	ext   *SchedulerExt
	lap   *cpu.Lap
	state int
	d     dwcs.Decision // the scheduler's decision
	pkt   *netsim.Packet
}

// step runs the task up to its next blocking call or burst.
func (s *schedTask) step(tc *rtos.TaskCtx) bool {
	ext, c := s.ext, s.ext.Card
	for {
		switch s.state {
		case taskStart:
			s.lap, s.state = cpu.StartLap(c.Meter), schedDecide
		case schedDecide:
			s.d = ext.Sched.Schedule()
			s.state = schedAct
			tc.Charge(s.lap) // decision CPU time at i960 speed
			return true
		case schedAct:
			d := &s.d
			ext.Dropped += int64(len(d.Dropped))
			for _, p := range d.Dropped {
				ext.Card.Blackbox.Record(blackbox.Event{At: tc.Now(), Kind: blackbox.KindDrop,
					Stream: p.StreamID, Seq: p.Seq, A: p.Bytes, Note: "deadline"})
				releasePayload(p.Payload)
			}
			s.state = schedDecide
			switch {
			case d.Packet != nil:
				s.state = dispCharge
			case d.WaitUntil > 0:
				// Paced: sleep until the best packet is eligible or an enqueue
				// kicks the task (charging the decision may have passed it).
				if ext.sleepAt = d.WaitUntil; ext.sleepAt > tc.Now() {
					tc.Await(ext.startSleepFn)
				}
				return true
			case len(d.Dropped) > 0:
				// progress was made; go on to the next decision
			default:
				ext.work.Take(tc) // idle until a producer enqueues
				return true
			}
		case dispCharge:
			c.ChargeDispatch()
			s.state = dispCharged
			tc.Charge(s.lap)
			return true
		case dispCharged:
			p := s.d.Packet
			if t := ext.QDelay[p.StreamID]; t != nil {
				t.Record(tc.Now() - p.Enqueued)
			}
			if c.Tel != nil {
				c.Tel.Span(p.StreamID, p.Seq, telemetry.StageQueue, ext.srcDWCS, p.Enqueued, tc.Now())
				ext.telQDelay.Observe((tc.Now() - p.Enqueued).Milliseconds())
			}
			ext.Sent++
			ext.Card.Blackbox.Record(blackbox.Event{At: tc.Now(), Kind: blackbox.KindDecision,
				Stream: p.StreamID, Seq: p.Seq, A: p.Bytes, B: int64(tc.Now() - p.Enqueued)})
			if ext.OnDispatch != nil {
				ext.OnDispatch(p)
			}
			s.pkt = c.packet()
			*s.pkt = netsim.Packet{Src: c.Name, Dst: streamDst(p), StreamID: p.StreamID, Seq: p.Seq,
				Bytes: p.Bytes, Enqueued: p.Enqueued, Deadline: p.Deadline, Dispatched: tc.Now()}
			s.state = dispOnWire
			tc.Run(c.Stack.Tx)
			return true
		case dispOnWire:
			c.Transmit(s.pkt, s.d.Packet.Payload)
			s.pkt, s.state = nil, schedDecide
		}
	}
}

// streamDst extracts the client address from the packet payload when the
// producer tagged one.
func streamDst(p *dwcs.Packet) string {
	if a, ok := p.Payload.(Addressed); ok {
		return a.ClientAddr()
	}
	return fmt.Sprintf("client-%d", p.StreamID)
}

// Addressed lets payloads carry an explicit client address.
type Addressed interface{ ClientAddr() string }

// AddrPayload is a payload carrying only a destination address.
type AddrPayload string

// ClientAddr implements Addressed.
func (a AddrPayload) ClientAddr() string { return string(a) }

// startSleep arms the paced sleep's timer; until it ends, an enqueue kicks
// the task awake instead of giving the work semaphore.
func (ext *SchedulerExt) startSleep(wake func()) {
	ext.sleepWake = wake
	ext.sleepEv = ext.Card.Eng.At(ext.sleepAt, ext.endSleepFn)
	ext.kick = ext.endSleepFn
}

// endSleep wakes the task: the timer fired, or a kick came first (the timer
// is then cancelled, so the sleep ends exactly once).
func (ext *SchedulerExt) endSleep() {
	ext.kick = nil
	ext.sleepEv.Cancel()
	ext.sleepWake()
}

// Producer is a frame source feeding a scheduler extension.
type Producer struct {
	Injected  int64
	Stalled   int64 // injection attempts deferred because the ring was full
	Orphaned  int64 // frames abandoned because the stream disappeared
	Throttled int64 // fetches deferred by overload backpressure
	Shed      int64 // frames skipped at the source by the degradation ladder
}

// SpawnLocalProducer streams clip from the card's own attached disk into
// the local scheduler — path C of Figure 3 (disk → NI CPU → network, no
// I/O bus, no host). Frames are injected every injectEvery (0 = flat out),
// looping over the clip `loops` times (≤0 = once). dst is the client
// address frames are delivered to.
func (ext *SchedulerExt) SpawnLocalProducer(clip *mpeg.Clip, streamID int, dst string, injectEvery sim.Time, loops int) *Producer {
	c := ext.Card
	if c.FS == nil {
		panic("nic: SpawnLocalProducer needs an attached disk")
	}
	return ext.spawnProducer(c, nil, fmt.Sprintf("%s/prod%d", c.Name, streamID), clip, streamID, dst, injectEvery, loops, 0)
}

// SpawnPeerProducer streams clip from src's attached disk, DMAs each frame
// across the PCI bus into this scheduler card, and enqueues it — path B of
// Figure 3 (disk → I/O bus → scheduler NI → network; no host CPU or
// memory).
func (ext *SchedulerExt) SpawnPeerProducer(src *Card, clip *mpeg.Clip, streamID int, dst string, injectEvery sim.Time, loops int) *Producer {
	return ext.SpawnPeerProducerFrom(src, clip, streamID, dst, injectEvery, loops, 0)
}

// SpawnPeerProducerFrom is SpawnPeerProducer with a frame cursor: the first
// pass over the clip starts at frame startFrame (mod clip length) instead of
// 0, so a producer respawned after a live migration resumes the title where
// the moved stream left off rather than replaying from the top.
func (ext *SchedulerExt) SpawnPeerProducerFrom(src *Card, clip *mpeg.Clip, streamID int, dst string, injectEvery sim.Time, loops int, startFrame int) *Producer {
	if src.FS == nil {
		panic("nic: SpawnPeerProducer needs a disk on the source card")
	}
	if src.PCI == nil || ext.Card.PCI == nil {
		panic("nic: SpawnPeerProducer needs both cards on a PCI segment")
	}
	return ext.spawnProducer(src, src.PCI, fmt.Sprintf("%s/peer%d", src.Name, streamID), clip, streamID, dst, injectEvery, loops, startFrame)
}

// The producer's states; each ends in at most one blocking call.
const (
	prodStart   = iota // first dispatch: the pacing clock starts
	prodFrame          // take the next frame; the ladder may shed it
	prodGate           // hold at the source while overload backpressure is on
	prodRead           // the disk read is done
	prodAlloc          // card memory for the frame
	prodArrived        // the frame is on the scheduler card (after the DMA, on path B)
	prodEnqueue        // hand it to the scheduler
)

// producer reads each frame from src's disk into the scheduler card's
// memory (across the PCI segment when xfer has one) and enqueues it, one
// frame every `every`. It never holds the CPU: a step task on src's kernel.
type producer struct {
	Producer
	ext      *SchedulerExt
	src      *Card
	xfer     *frameIO
	bufs     addressedBufs
	clip     *mpeg.Clip
	frames   []mpeg.Frame // the rest of the current pass
	loops    int          // passes left after this one
	streamID int
	every    sim.Time

	state              int
	next               sim.Time // the pacing deadline
	seq                int64    // tracks the dwcs-assigned in-order sequence numbers
	f                  mpeg.Frame
	addr               mem.Addr
	pkt                dwcs.Packet
	readStart, readEnd sim.Time // the frame's disk and bus spans
	busStart, busEnd   sim.Time
}

func (ext *SchedulerExt) spawnProducer(src *Card, pci *bus.Bus, name string, clip *mpeg.Clip, streamID int, dst string, every sim.Time, loops, startFrame int) *Producer {
	p := &producer{
		ext: ext, src: src, xfer: newFrameIO(src.FS, pci), bufs: addressedBufs{dst: dst},
		clip: clip, frames: clip.Frames, loops: max(loops, 1) - 1, streamID: streamID, every: every,
	}
	if startFrame > 0 && len(clip.Frames) > 0 {
		p.frames = clip.Frames[startFrame%len(clip.Frames):]
	}
	src.Kernel.SpawnStep(name, PrioProducer, p.step)
	return &p.Producer
}

// step runs the frame loop up to its next blocking call.
func (p *producer) step(tc *rtos.TaskCtx) bool {
	ov, sched := p.ext.Overload, p.ext.Card
	for {
		switch p.state {
		case prodStart:
			p.next, p.state = tc.Now(), prodFrame
		case prodFrame:
			for len(p.frames) == 0 {
				if p.loops == 0 || len(p.clip.Frames) == 0 {
					return false
				}
				p.frames, p.loops = p.clip.Frames, p.loops-1
			}
			p.f, p.frames = p.frames[0], p.frames[1:]
			if ov != nil && !ov.AdmitFrame(p.f.Type) {
				// The ladder sheds the frame at the source; the cadence holds.
				p.Shed++
				p.pace(tc)
				return true
			}
			p.state = prodGate
		case prodGate:
			// Backpressure, or a budget short of the frame's bytes, holds the
			// producer before the disk read (path C) and the DMA (path B).
			if ov != nil && !ov.AllowSource(p.f.Size) {
				p.Throttled++
				tc.Sleep(ov.PollEvery)
				return true
			}
			p.state, p.readStart = prodRead, tc.Now()
			p.xfer.read(tc, p.f.Offset, p.f.Size)
			return true
		case prodRead:
			p.state, p.readEnd = prodAlloc, tc.Now()
		case prodAlloc:
			// Memory pressure stalls the producer; it never loses a frame. The
			// overload budget's total (stream state, slots, leaks too) must have
			// headroom in the same instant, so the zero-breach invariant holds.
			err := mem.ErrOutOfMemory
			if ov == nil || ov.Budget.HeadroomFor(p.f.Size) {
				p.addr, err = sched.Mem.Alloc(p.f.Size)
			}
			if err != nil {
				p.Stalled++
				tc.Sleep(10 * sim.Millisecond)
				return true
			}
			p.state = prodArrived
			if p.xfer.pci != nil {
				p.busStart = tc.Now()
				p.xfer.dma(tc, p.f.Size)
				return true
			}
		case prodArrived:
			p.busEnd = tc.Now()
			p.pkt = dwcs.Packet{Bytes: p.f.Size, Offset: p.f.Offset, Payload: p.bufs.get(sched.Mem, p.addr)}
			p.state = prodEnqueue
		case prodEnqueue:
			// A full ring is retried; a stream that is gone (removed or failed
			// over) ends the producer and releases the orphaned frame's memory.
			if err := p.ext.Enqueue(p.streamID, p.pkt); err != nil {
				if errors.Is(err, dwcs.ErrUnknownStream) {
					releasePayload(p.pkt.Payload)
					p.Orphaned++
					return false
				}
				p.Stalled++
				if p.every > 0 {
					tc.Sleep(p.every)
				} else {
					tc.Sleep(5 * sim.Millisecond)
				}
				return true
			}
			if sched.Tel != nil {
				sched.Tel.Span(p.streamID, p.seq, telemetry.StageDisk, p.src.Name, p.readStart, p.readEnd)
				if p.xfer.pci != nil {
					sched.Tel.Span(p.streamID, p.seq, telemetry.StageBus, p.xfer.pci.Name(), p.busStart, p.busEnd)
				}
			}
			p.seq++
			p.Injected++
			p.state = prodFrame
			p.pace(tc)
			return true
		}
	}
}

// pace sleeps to the next frame's injection time (flat out: not at all).
func (p *producer) pace(tc *rtos.TaskCtx) {
	if p.every > 0 {
		p.next += p.every
		tc.SleepUntil(p.next)
	}
}

// frameIO is one task's per-frame disk read and bus DMA. The Await
// starters are built once, and each operation's arguments wait in fields:
// a starter runs within Await, before the task can start another.
type frameIO struct {
	fs     disk.FS
	pci    *bus.Bus
	off, n int64
	readFn func(done func())
	dmaFn  func(done func())
}

func newFrameIO(fs disk.FS, pci *bus.Bus) *frameIO {
	x := &frameIO{fs: fs, pci: pci}
	x.readFn = func(done func()) { x.fs.Read(x.off, x.n, done) }
	x.dmaFn = func(done func()) { x.pci.DMA(x.n, done) }
	return x
}

// read blocks tc until n bytes at off are read from the filesystem.
func (x *frameIO) read(tc *rtos.TaskCtx, off, n int64) {
	x.off, x.n = off, n
	tc.Await(x.readFn)
}

// dma blocks tc until n bytes have crossed the PCI segment.
func (x *frameIO) dma(tc *rtos.TaskCtx, n int64) {
	x.n = n
	tc.Await(x.dmaFn)
}

// addressedBuf is a FrameBuf plus its client's address. Each producer
// keeps a free list of them: releasing a frame's card memory puts its
// buffer back on the list, so a steady stream boxes no payload per frame.
// A producer and the scheduler card it feeds share an engine, so the list
// needs no lock.
type addressedBuf struct {
	FrameBuf
	bufs *addressedBufs
}

// addressedBufs is one producer's free list; dst is its client's address.
type addressedBufs struct {
	dst  string
	free []*addressedBuf
}

// get returns a buffer for the frame at addr in m.
func (bs *addressedBufs) get(m *mem.Memory, addr mem.Addr) *addressedBuf {
	var b *addressedBuf
	if n := len(bs.free); n > 0 {
		b, bs.free = bs.free[n-1], bs.free[:n-1]
	} else {
		b = &addressedBuf{bufs: bs}
	}
	b.FrameBuf = FrameBuf{m, addr}
	return b
}

// ClientAddr implements Addressed.
func (b *addressedBuf) ClientAddr() string { return b.bufs.dst }

// Release frees the frame's card memory and returns the buffer to its
// producer's list.
func (b *addressedBuf) Release() {
	b.FrameBuf.Release()
	b.bufs.free = append(b.bufs.free, b)
}

// relayFrame is the offset and size of a relay's i-th frame: clip frame i
// (mod its length), frameBytes long unless that is 0.
func relayFrame(clip *mpeg.Clip, i int, frameBytes int64) (off, n int64) {
	f := clip.Frames[i%len(clip.Frames)]
	if frameBytes == 0 {
		frameBytes = f.Size
	}
	return f.Offset, frameBytes
}

// SpawnPeerRelay implements Experiment III of Table 4: src reads each frame
// from its disk, DMAs it across the PCI bus to this card, and this card
// transmits it (disk → I/O bus → NI CPU → network).
func (c *Card) SpawnPeerRelay(src *Card, clip *mpeg.Clip, dst string, frameBytes int64, frames int, done func()) {
	if src.FS == nil {
		panic("nic: SpawnPeerRelay needs a disk on the source card")
	}
	var queue sim.FIFO[int64] // sequence numbers of frames DMAed to this card
	ready := rtos.NewSemaphore(c.Kernel, c.Name+"/relayq", 0)
	// The relay waits for a DMAed frame, pays its encapsulation, and
	// transmits it at the start of its next wait.
	var pkt *netsim.Packet
	sent, taken := 0, false
	c.Kernel.SpawnStep(c.Name+"/peer-relay", PrioRelay, func(tc *rtos.TaskCtx) bool {
		switch {
		case taken:
			seq := queue.Pop()
			_, sz := relayFrame(clip, int(seq), frameBytes)
			pkt, taken = &netsim.Packet{Src: c.Name, Dst: dst, Bytes: sz, Seq: seq}, false
			tc.Run(c.Stack.Tx)
			return true
		case pkt != nil:
			c.Transmit(pkt, nil)
			pkt, sent = nil, sent+1
		}
		if sent == frames {
			if done != nil {
				done()
			}
			return false
		}
		taken = true
		ready.Take(tc)
		return true
	})
	// The reader's n-th call reads frame n/2 (even n) or DMAs it (odd n),
	// first queueing the frame DMAed before.
	xfer := newFrameIO(src.FS, src.PCI)
	n := 0
	src.Kernel.SpawnStep(src.Name+"/peer-reader", PrioProducer, func(tc *rtos.TaskCtx) bool {
		i := n / 2
		if n%2 == 0 && i > 0 {
			queue.Push(int64(i - 1))
			ready.Give()
		}
		if i == frames {
			return false
		}
		off, sz := relayFrame(clip, i, frameBytes)
		if n%2 == 0 {
			xfer.read(tc, off, sz)
		} else {
			xfer.dma(tc, sz)
		}
		n++
		return true
	})
}
