package experiments

import (
	"repro/internal/cpu"
	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/host"
	"repro/internal/mpeg"
	"repro/internal/nic"
	"repro/internal/sim"
)

// MicrobenchStreams is how many concurrent streams the Table 1–3 workload
// is split across.
const MicrobenchStreams = 4

// Microbench holds one microbenchmark configuration's measurements
// (§4.2: 151 frames pre-loaded into the circular buffers, then scheduled
// flat-out; the "w/o Scheduler" pass re-routes execution straight to the
// dispatch point).
type Microbench struct {
	Arith   cpu.Arithmetic
	CacheOn bool
	Store   nic.StoreKind

	Frames       int
	TotalSched   sim.Time
	AvgSched     sim.Time
	TotalNoSched sim.Time
	AvgNoSched   sim.Time
}

// Overhead returns the per-frame scheduling overhead — the difference
// between the scheduled and dispatch-only per-frame times, the number the
// paper headlines as ≈65 µs.
func (m Microbench) Overhead() sim.Time { return m.AvgSched - m.AvgNoSched }

// drainPass is §4.2's measurement method, the one pass behind Tables 1–3,
// the headline, the scaling study and the telemetry row's cycle profile:
// add the streams, enqueue packet i on stream i mod len(specs), reset the
// meter, then drain the rings flat-out.
type drainPass struct {
	meter   *cpu.Meter
	sched   *dwcs.Scheduler
	specs   []dwcs.StreamSpec
	packets []dwcs.Packet
	// fcfs drains in arrival order with no DWCS decision: the "w/o
	// Scheduler" pass, execution re-routed straight to the dispatch point.
	fcfs bool
	// dispatch, if set, is charged after each frame's dequeue.
	dispatch func()
	// observer, if set, is attached to the meter after the reset.
	observer cpu.CycleObserver
}

// run performs the pass and returns how many frames it drained.
func (p drainPass) run() int {
	for _, spec := range p.specs {
		if err := p.sched.AddStream(spec); err != nil {
			panic(err)
		}
	}
	for i, pkt := range p.packets {
		if err := p.sched.Enqueue(p.specs[i%len(p.specs)].ID, pkt); err != nil {
			panic(err)
		}
	}
	p.meter.Reset()
	if p.observer != nil {
		p.meter.Observe(p.observer)
	}
	frames := 0
	for {
		if p.fcfs {
			if p.sched.DequeueFCFS() == nil {
				break
			}
		} else if p.sched.Schedule().Packet == nil {
			break
		}
		if p.dispatch != nil {
			p.dispatch()
		}
		frames++
	}
	return frames
}

// microPackets is the Table 1–3 workload: the default clip, one packet per
// frame.
func microPackets() []dwcs.Packet {
	clip := mpeg.GenerateDefault()
	pkts := make([]dwcs.Packet, len(clip.Frames))
	for i, f := range clip.Frames {
		pkts[i] = dwcs.Packet{Bytes: f.Size, Offset: f.Offset}
	}
	return pkts
}

// microStreamSpecs returns the stream set the workload's packets are split
// across.
func microStreamSpecs(packets int) []dwcs.StreamSpec {
	perStream := (packets + MicrobenchStreams - 1) / MicrobenchStreams
	losses := []fixed.Frac{fixed.New(1, 2), fixed.New(1, 4), fixed.New(2, 8), fixed.New(3, 10)}
	specs := make([]dwcs.StreamSpec, MicrobenchStreams)
	for i := range specs {
		specs[i] = dwcs.StreamSpec{
			ID:     i,
			Name:   "micro",
			Period: sim.Second, // far future: no misses during the benchmark
			Loss:   losses[i%len(losses)],
			Lossy:  true,
			BufCap: perStream,
		}
	}
	return specs
}

// microPass runs the workload once on a fresh card, charging the NI
// dispatch after each frame, and returns the card's meter and the frame
// count.
func microPass(pkts []dwcs.Packet, arith cpu.Arithmetic, cacheOn bool, store nic.StoreKind, fcfs bool, observer cpu.CycleObserver) (*cpu.Meter, int) {
	card := nic.New(sim.NewEngine(1), nic.Config{Name: "bench", CacheOn: cacheOn, Arith: arith})
	frames := drainPass{
		meter:    card.Meter,
		sched:    card.NewBenchScheduler(nic.SchedulerConfig{Store: store, WorkConserving: true}),
		specs:    microStreamSpecs(len(pkts)),
		packets:  pkts,
		fcfs:     fcfs,
		dispatch: card.ChargeDispatch,
		observer: observer,
	}.run()
	return card.Meter, frames
}

// RunMicrobench measures one configuration of the Table 1–3 benchmark.
func RunMicrobench(arith cpu.Arithmetic, cacheOn bool, store nic.StoreKind) Microbench {
	pkts := microPackets()
	m := Microbench{Arith: arith, CacheOn: cacheOn, Store: store}
	sched, n := microPass(pkts, arith, cacheOn, store, false, nil)
	noSched, _ := microPass(pkts, arith, cacheOn, store, true, nil)
	m.Frames = n
	m.TotalSched = sched.Elapsed()
	m.AvgSched = m.TotalSched / sim.Time(n)
	m.TotalNoSched = noSched.Elapsed()
	m.AvgNoSched = m.TotalNoSched / sim.Time(n)
	return m
}

// paper values for Tables 1–3 (µs).
type microPaper struct {
	total, avg, totalNo, avgNo float64
}

var (
	t1SoftFP = microPaper{19580.88, 129.67, 5210.88, 34.6}
	t1Fixed  = microPaper{16425.36, 108.48, 4583.28, 30.35}
	t2SoftFP = microPaper{17398.56, 115.20, 4776.48, 31.40}
	t2Fixed  = microPaper{14295.60, 94.60, 4195.68, 27.78}
	t3Fixed  = microPaper{14569.68, 96.48, 4199.04, 27.80}
)

func microResult(id, title string, cfgs []Microbench, papers []microPaper, labels []string) *Result {
	res := &Result{ID: id, Title: title}
	for i, m := range cfgs {
		p := papers[i]
		l := labels[i]
		res.Add("Total Sched time ("+l+")", "µs", p.total, m.TotalSched.Microseconds())
		res.Add("Avg frame Sched time ("+l+")", "µs", p.avg, m.AvgSched.Microseconds())
		res.Add("Total time w/o Scheduler ("+l+")", "µs", p.totalNo, m.TotalNoSched.Microseconds())
		res.Add("Avg frame time w/o Sched ("+l+")", "µs", p.avgNo, m.AvgNoSched.Microseconds())
	}
	return res
}

// RunTable1 regenerates Table 1: scheduler microbenchmarks with the data
// cache disabled, software-FP vs fixed-point builds.
func RunTable1() *Result {
	soft := RunMicrobench(cpu.SoftFP, false, nic.StoreDRAM)
	fix := RunMicrobench(cpu.FixedPoint, false, nic.StoreDRAM)
	res := microResult("Table 1", "Scheduler microbenchmarks (data cache disabled)",
		[]Microbench{soft, fix}, []microPaper{t1SoftFP, t1Fixed}, []string{"software FP", "fixed point"})
	res.Note("fixed-point saves %.1f µs per decision (paper ≈21 µs)",
		(soft.AvgSched - fix.AvgSched).Microseconds())
	return res
}

// RunTable2 regenerates Table 2: the same with the data cache enabled.
func RunTable2() *Result {
	soft := RunMicrobench(cpu.SoftFP, true, nic.StoreDRAM)
	fix := RunMicrobench(cpu.FixedPoint, true, nic.StoreDRAM)
	res := microResult("Table 2", "Scheduler microbenchmarks (data cache enabled)",
		[]Microbench{soft, fix}, []microPaper{t2SoftFP, t2Fixed}, []string{"software FP", "fixed point"})
	res.Note("scheduler overhead (avg sched − avg w/o) = %.2f µs (paper ≈66.82 µs)",
		fix.Overhead().Microseconds())
	softOff := RunMicrobench(cpu.SoftFP, false, nic.StoreDRAM)
	fixOff := RunMicrobench(cpu.FixedPoint, false, nic.StoreDRAM)
	res.Note("data cache saves %.2f µs (soft FP) and %.2f µs (fixed) per frame (paper ≈14.47/13.88 µs)",
		(softOff.AvgSched - soft.AvgSched).Microseconds(),
		(fixOff.AvgSched - fix.AvgSched).Microseconds())
	return res
}

// RunTable3 regenerates Table 3: descriptor rings in the memory-mapped
// hardware-queue register file, fixed point, cache enabled.
func RunTable3() *Result {
	hw := RunMicrobench(cpu.FixedPoint, true, nic.StoreHardwareQueue)
	res := microResult("Table 3", "Scheduler microbenchmarks (hardware queues, cache enabled)",
		[]Microbench{hw}, []microPaper{t3Fixed}, []string{"fixed point"})
	dram := RunMicrobench(cpu.FixedPoint, true, nic.StoreDRAM)
	res.Note("register-file vs pinned-DRAM avg sched: %.2f vs %.2f µs — comparable, as in the paper",
		hw.AvgSched.Microseconds(), dram.AvgSched.Microseconds())
	return res
}

// RunHeadline regenerates the paper's headline comparison: host-based DWCS
// on a quiescent 300 MHz UltraSPARC (≈50 µs) vs the NI-based scheduler on
// the 66 MHz i960 RD (≈65 µs).
func RunHeadline() *Result {
	ni := RunMicrobench(cpu.FixedPoint, true, nic.StoreDRAM)

	// Host variant: same scheduler code metered on the UltraSPARC model
	// with native FP and host-process overheads, no NI dispatch.
	pkts := microPackets()
	meter := cpu.NewMeter(cpu.UltraSparc300())
	meter.Arith = cpu.NativeFP
	frames := drainPass{
		meter: meter,
		sched: dwcs.New(dwcs.Config{
			WorkConserving:   true,
			Meter:            meter,
			DecisionOverhead: host.DefaultHostDecisionOverhead, // shared-memory sync + gettimeofday syscalls
		}),
		specs:   microStreamSpecs(len(pkts)),
		packets: pkts,
	}.run()
	hostPerFrame := meter.Elapsed() / sim.Time(frames)

	res := &Result{ID: "Headline", Title: "Scheduling overhead: host UltraSPARC vs NI i960 RD"}
	res.Add("host DWCS overhead (300 MHz UltraSPARC)", "µs", 50, hostPerFrame.Microseconds())
	res.Add("NI DWCS overhead (66 MHz i960 RD)", "µs", 65, ni.Overhead().Microseconds())
	res.Note("comparable despite the i960 running at ~1/4 the clock (paper §4)")
	return res
}
