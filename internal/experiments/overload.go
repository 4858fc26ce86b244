// Overload experiment: the robustness counterpart to claim 4 (§3.1.2, §4.2.3).
// The i960 RD carries only 4 MB of local memory, so an NI-resident scheduler
// cannot survive overload by queueing the way a host process can. This
// experiment sweeps offered load past capacity — a producer-oversubscription
// axis crossed with the paper's 45%/60% host web-load profiles — and runs each
// cell on two testbeds:
//
//   - the NI testbed, protected by an overload.Controller: budget admission
//     control at the high-water mark, tx-queue backpressure into the disk and
//     peer-DMA producers, and the graceful-degradation ladder
//     (shed-within-tolerance → drop B → drop B+P → revoke, all reversible);
//   - the host baseline of Figure 7, given effectively unbounded rings, which
//     absorbs the same overload by letting its backlog grow without limit.
//
// The claim reproduced: the NI degrades *gracefully* — zero budget breaches,
// resident bytes bounded by the card budget, admission rejects instead of
// collapse — while the host baseline's backlog and queuing delay blow up.
// Every cell runs on a private seed-42 engine, so the sweep is byte-identical
// at any worker count.
package experiments

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/bus"
	"repro/internal/disk"
	"repro/internal/dwcs"
	"repro/internal/faults"
	"repro/internal/fixed"
	"repro/internal/host"
	"repro/internal/hostos"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/overload"
	"repro/internal/sim"
	"repro/internal/webload"
)

// Overload testbed parameters.
const (
	// overloadCardMem scales the card memory down from the real 4 MB so a
	// short run with a handful of streams reaches the memory ceiling; the
	// mechanisms under test are identical, only the wall is closer.
	overloadCardMem = 1536 << 10
	// overloadHostRing is the host baseline's per-stream ring capacity —
	// large enough that the host never refuses a frame and its backlog can
	// grow "without bound" within the run, the collapse the claim contrasts.
	overloadHostRing = 4096
	// overloadSampleEvery is the peak-tracking sample period.
	overloadSampleEvery = 100 * sim.Millisecond
	// overloadBPHigh/Low tune the backpressure gate near ring-full for this
	// testbed, so the pressure signal can cross the ladder's escalation
	// threshold instead of being flattened by early source gating.
	overloadBPHigh = 240
	overloadBPLow  = 120
	// At oversubscription >= overloadLeakMult a faults.MemLeak event erodes
	// the budget mid-run (dur/2 .. 3·dur/4) at overloadLeakKBps KB/s. The
	// squeeze pins occupancy above the escalation threshold long enough to
	// drive the ladder to its revoke rung; fault recovery reclaims the leak
	// and the controller reinstates the revoked streams.
	overloadLeakMult = 8
	overloadLeakKBps = 128
)

// overloadStreams returns the four resident streams in descending value
// order for revocation: s3 (loss 3/4) is the least valuable, then s2 and s1
// (loss 1/2, higher ID first), then s4 (loss 1/4).
func overloadStreams(nominal int64) []dwcs.StreamSpec {
	loss := []fixed.Frac{fixed.New(1, 2), fixed.New(1, 2), fixed.New(3, 4), fixed.New(1, 4)}
	specs := make([]dwcs.StreamSpec, len(loss))
	for i := range specs {
		specs[i] = dwcs.StreamSpec{
			ID:           i + 1,
			Name:         fmt.Sprintf("s%d", i+1),
			Period:       streamPeriod,
			Loss:         loss[i],
			Lossy:        true,
			BufCap:       streamBufCap,
			NominalBytes: nominal,
		}
	}
	return specs
}

// overloadLateStreams returns the mid-run setup attempts that exercise the
// admission path under live pressure.
func overloadLateStreams(nominal int64) []dwcs.StreamSpec {
	specs := make([]dwcs.StreamSpec, 4)
	for i := range specs {
		specs[i] = dwcs.StreamSpec{
			ID:           11 + i,
			Name:         fmt.Sprintf("o%d", i+1),
			Period:       streamPeriod,
			Loss:         fixed.New(1, 2),
			Lossy:        true,
			BufCap:       streamBufCap,
			NominalBytes: nominal,
		}
	}
	return specs
}

// OverloadPoint is one (web-load, oversubscription) cell of the sweep, run on
// both testbeds.
type OverloadPoint struct {
	Load float64 // host web-load percent (0, 45, 60)
	Mult int     // producer oversubscription multiple (1 = at service rate)

	// NI testbed (overload controller attached).
	NISent            int64
	NIDropped         int64 // deadline drops + tolerant sheds (scheduler side)
	NIShedTolerant    int64 // ladder rung 1: shed within DWCS loss windows
	NIShedB           int64 // ladder rung 2: B frames skipped at the source
	NIShedP           int64 // ladder rung 3: P frames skipped at the source
	NIRevoked         int64 // ladder rung 4: streams revoked
	NIReinstated      int64 // revocations reversed after pressure cleared
	NIRejects         int64 // stream setups refused at the high-water mark
	NILateAdmits      int64 // mid-run setups admitted on first try
	NIRetryAdmits     int64 // rejected setups admitted later from the FIFO retry queue
	NIWaiting         int   // setups still queued for readmission at end of run
	NIBreaches        int64 // accounted bytes over the absolute budget (claim: 0)
	NIBudgetPeak      int64 // peak accounted bytes
	NIBudgetSize      int64 // absolute budget
	NIQueuedPeakBytes int64 // peak payload bytes resident in scheduler rings
	NIViolations      int64 // DWCS window violations on live streams
	NIThrottled       int64 // producer fetches held by backpressure/headroom
	NIBPEngages       int64 // backpressure gate closures
	NILeakReclaimed   int64 // bytes a MemLeak fault pinned, reclaimed at recovery
	NIMaxRung         overload.Rung
	NITransitions     int64
	NIEvals           [5]int64 // controller evaluations spent at each rung
	NIGoodputKbps     float64

	// Host baseline (same streams, effectively unbounded rings).
	HostSent            int64
	HostDropped         int64
	HostViolations      int64
	HostQueuedPeakBytes int64
	HostMaxQDelayMs     int64
	HostGoodputKbps     float64
}

// OverloadConfig parameterizes RunOverload.
type OverloadConfig struct {
	Dur     sim.Time  // observation length per cell; 0 = 30 s
	Loads   []float64 // web-load percents; nil = {0, 45, 60}
	Mults   []int     // oversubscription multiples; nil = {1, 4, 8}
	Workers int       // worker pool for the sweep; 0 = GOMAXPROCS
}

// OverloadArtifacts is everything RunOverload produces. All four renderings
// are deterministic functions of the points, in grid order.
type OverloadArtifacts struct {
	Dur    sim.Time
	Points []*OverloadPoint // row-major (load, mult)

	Table   *Result
	Ladder  string // per-cell ladder/admission summary (pinned by OVERLOAD_BASELINE.txt)
	CSV     string
	Summary string
}

// RunOverload executes the overload sweep: every cell is two independent
// simulations (NI protected, host baseline) fanned across the worker pool and
// reassembled in grid order.
func RunOverload(cfg OverloadConfig) *OverloadArtifacts {
	if cfg.Dur == 0 {
		cfg.Dur = 30 * sim.Second
	}
	if cfg.Loads == nil {
		cfg.Loads = []float64{0, 45, 60}
	}
	if cfg.Mults == nil {
		cfg.Mults = []int{1, 4, 8}
	}
	type cell struct {
		load float64
		mult int
	}
	var cells []cell
	for _, l := range cfg.Loads {
		for _, m := range cfg.Mults {
			cells = append(cells, cell{l, m})
		}
	}
	jobs := make([]func() *OverloadPoint, len(cells))
	for i, c := range cells {
		c := c
		jobs[i] = func() *OverloadPoint {
			pt := runOverloadNI(c.load, c.mult, cfg.Dur)
			runOverloadHost(pt, c.load, c.mult, cfg.Dur)
			return pt
		}
	}
	points := CollectWith(Runner{Workers: cfg.Workers}, jobs)
	a := &OverloadArtifacts{Dur: cfg.Dur, Points: points}
	a.Table = overloadTable(points)
	a.Ladder = overloadLadder(points)
	a.CSV = overloadCSV(points)
	a.Summary = overloadSummary(points)
	return a
}

// runOverloadNI runs one cell on the protected NI testbed: the RunNILoad
// topology (disk card feeding a dedicated scheduler card over PCI, web load
// on the host CPU and the other bus segment) with an overload controller
// attached and four mid-run setup attempts probing admission.
func runOverloadNI(loadPct float64, mult int, dur sim.Time) *OverloadPoint {
	pt := &OverloadPoint{Load: loadPct, Mult: mult}
	eng := sim.NewEngine(42)
	defer eng.Close()
	sys := hostos.New(eng, 1, 10*sim.Millisecond)
	webload.Daemons(eng, sys)

	seg0 := bus.New(eng, bus.PCI("pci0")) // web NI segment
	seg1 := bus.New(eng, bus.PCI("pci1")) // scheduler segment
	sw := netsim.NewSwitch(eng, "sw0", 90*sim.Microsecond)

	diskCard := nic.New(eng, nic.Config{Name: "ni-disk", PCI: seg1})
	d := disk.New(eng, disk.DefaultSCSI("ni-disk0"))
	diskCard.AttachDisk(d, disk.NewDOSFS(d))
	schedCard := nic.New(eng, nic.Config{
		Name: "ni-sched", PCI: seg1, CacheOn: true, Memory: overloadCardMem,
	})
	schedCard.ConnectEthernet(netsim.Fast100(eng, "ni-sched-eth", sw))

	ext, err := schedCard.LoadScheduler(nic.SchedulerConfig{EligibleEarly: eligibleEarly})
	if err != nil {
		panic(err)
	}
	ctl := overload.NewController(schedCard.Name, schedCard.Mem.Size())
	ctl.BP.High, ctl.BP.Low = overloadBPHigh, overloadBPLow
	ctl.Ladder.OnChange = func(_, to overload.Rung) {
		if to > pt.NIMaxRung {
			pt.NIMaxRung = to
		}
	}
	ext.AttachOverload(ctl)

	clip := mpeg.GenerateDefault()
	nominal := clip.MeanFrameSize()
	base := overloadStreams(nominal)
	late := overloadLateStreams(nominal)

	clients := make(map[int]*netsim.Client)
	for _, spec := range append(append([]dwcs.StreamSpec{}, base...), late...) {
		cl := netsim.NewClient(eng, "client-"+spec.Name)
		sw.Attach(cl.Name, netsim.Fast100(eng, "sw-"+cl.Name, cl))
		clients[spec.ID] = cl
	}

	every := streamPeriod / sim.Time(mult)
	producers := make(map[int]*nic.Producer)
	spawn := func(spec dwcs.StreamSpec) {
		producers[spec.ID] = ext.SpawnPeerProducer(diskCard, clip, spec.ID,
			"client-"+spec.Name, every, 1<<30)
	}
	// A reinstated stream gets its producer back — the revocation rung is
	// fully reversible end to end.
	ext.OnReinstate = spawn
	for _, spec := range base {
		if err := ext.AddStream(spec); err != nil {
			panic(err)
		}
		spawn(spec)
	}

	// Mid-run setup attempts: under pressure they are refused at the
	// high-water mark and queue for FIFO readmission; at service-rate load
	// they are admitted outright.
	for i, spec := range late {
		spec := spec
		eng.At(dur/4+sim.Time(i)*200*sim.Millisecond, func() {
			err := ext.AddStream(spec)
			if err == nil {
				pt.NILateAdmits++
				spawn(spec)
				return
			}
			if !errors.Is(err, overload.ErrAdmission) {
				panic(err)
			}
			// Refused at the high-water mark: queue for FIFO readmission. The
			// retry probes CanAdmit first — a waiter woken while the budget is
			// still too tight for this footprint re-enrolls at the back
			// without burning another reject.
			cost := nic.StreamMemCost(spec)
			var retry func()
			retry = func() {
				if !ctl.Budget.CanAdmit(cost.Projected()) {
					ctl.Budget.AwaitSpace(retry)
					return
				}
				if err := ext.AddStream(spec); err == nil {
					pt.NIRetryAdmits++
					spawn(spec)
					return
				}
				ctl.Budget.AwaitSpace(retry)
			}
			ctl.Budget.AwaitSpace(retry)
		})
	}

	// Heaviest cells also take a mem-leak fault: a card task stops freeing,
	// its allocations accounted as ClassLeak. The leak allocates through the
	// card allocator, so it consumes free memory but can never breach the
	// absolute budget — producers are squeezed out instead, the ladder climbs
	// to revoke, and recovery reclaims the leak so revocations reverse.
	if mult >= overloadLeakMult {
		plan := &faults.Plan{Events: []faults.Event{{
			At: dur / 2, Duration: dur / 4, Kind: faults.MemLeak,
			Target: schedCard.Name, Factor: overloadLeakKBps,
		}}}
		var stopLeak func()
		inj := faults.InjectorFuncs{
			OnInject: func(e faults.Event) {
				stopLeak = ctl.Budget.Drip(eng, overloadSampleEvery, e.Factor)
			},
			OnRecover: func(e faults.Event) {
				stopLeak()
				pt.NILeakReclaimed = ctl.Budget.ReclaimLeak()
			},
		}
		if err := plan.Arm(eng, inj, nil); err != nil {
			panic(err)
		}
	}

	if loadPct > 0 {
		g := webload.NewGenerator(eng, sys, webload.TargetUtilization(loadName(loadPct), loadPct, 1))
		g.Start()
		eng.Every(250*sim.Millisecond, func() {
			seg0.DMA(64<<10, nil)
		})
	}

	eng.Every(overloadSampleEvery, func() {
		if q := ext.Sched.QueuedBytes(); q > pt.NIQueuedPeakBytes {
			pt.NIQueuedPeakBytes = q
		}
	})

	eng.RunUntil(dur)

	pt.NISent = ext.Sent
	pt.NIDropped = ext.Dropped
	pt.NIShedTolerant = ctl.ShedTolerantFrames
	pt.NIShedB = ctl.ShedBFrames
	pt.NIShedP = ctl.ShedPFrames
	pt.NIRevoked = ctl.Revoked
	pt.NIReinstated = ctl.Reinstated
	pt.NIRejects = ctl.Budget.Rejects
	pt.NIWaiting = ctl.Budget.Waiting()
	pt.NIBreaches = ctl.Budget.Breaches
	pt.NIBudgetPeak = ctl.Budget.Peak()
	pt.NIBudgetSize = ctl.Budget.Size()
	pt.NIBPEngages = ctl.BP.Engages
	pt.NITransitions = ctl.Ladder.Transitions
	for r := overload.RungNone; r <= overload.RungRevoke; r++ {
		pt.NIEvals[r] = ctl.Ladder.Evals[r]
	}
	for _, id := range ext.Sched.StreamIDs() {
		if st, err := ext.Sched.Stats(id); err == nil {
			pt.NIViolations += st.Violations
		}
	}
	for _, p := range producers {
		pt.NIThrottled += p.Throttled
	}
	var recv int64
	for _, cl := range clients {
		recv += cl.RecvBytes
	}
	pt.NIGoodputKbps = float64(recv*8) / dur.Seconds() / 1000
	return pt
}

// runOverloadHost runs the same cell on the Figure 7 host baseline, with
// per-stream rings deep enough that nothing is ever refused: the backlog
// simply grows, which is the collapse the NI's budget forbids.
func runOverloadHost(pt *OverloadPoint, loadPct float64, mult int, dur sim.Time) {
	eng := sim.NewEngine(42)
	sys := hostos.New(eng, 2, 15*sim.Millisecond)
	webload.Daemons(eng, sys)

	sw := netsim.NewSwitch(eng, "sw0", 90*sim.Microsecond)
	clip := mpeg.GenerateDefault()
	specs := overloadStreams(clip.MeanFrameSize())
	for i := range specs {
		specs[i].BufCap = overloadHostRing
	}
	clients := make([]*netsim.Client, len(specs))
	for i, spec := range specs {
		cl := netsim.NewClient(eng, "client-"+spec.Name)
		sw.Attach(cl.Name, netsim.Fast100(eng, "sw-"+cl.Name, cl))
		clients[i] = cl
	}
	link := netsim.Fast100(eng, "host-eth", sw)

	sched := host.NewScheduler(eng, sys, link, host.SchedulerConfig{
		CPU: 0, EligibleEarly: eligibleEarly,
	})
	every := streamPeriod / sim.Time(mult)
	for _, spec := range specs {
		if err := sched.AddStream(spec, "client-"+spec.Name); err != nil {
			panic(err)
		}
		host.StartProducer(eng, sys, sched, host.ProducerConfig{
			Clip: clip, StreamID: spec.ID, Every: every,
			PerFrameCPU: producerFrameCPU, CPU: hostos.AnyCPU, Loop: true,
		})
	}
	if loadPct > 0 {
		webPct := loadPct - baselineUtilPct
		if webPct < 0 {
			webPct = 0
		}
		webload.NewGenerator(eng, sys, webload.TargetUtilization(loadName(loadPct), webPct, 2)).Start()
	}

	eng.Every(overloadSampleEvery, func() {
		if q := sched.QueuedBytes(); q > pt.HostQueuedPeakBytes {
			pt.HostQueuedPeakBytes = q
		}
	})

	eng.RunUntil(dur)

	pt.HostSent = sched.Sent
	pt.HostDropped = sched.Dropped
	for _, spec := range specs {
		if st, err := sched.Sched.Stats(spec.ID); err == nil {
			pt.HostViolations += st.Violations
		}
		if t := sched.QDelay[spec.ID]; t != nil {
			if ms := int64(t.Max().Milliseconds()); ms > pt.HostMaxQDelayMs {
				pt.HostMaxQDelayMs = ms
			}
		}
	}
	var recv int64
	for _, cl := range clients {
		recv += cl.RecvBytes
	}
	pt.HostGoodputKbps = float64(recv*8) / dur.Seconds() / 1000
}

// worst returns the highest-pressure cell (last grid point: max load × max
// oversubscription).
func worst(points []*OverloadPoint) *OverloadPoint {
	return points[len(points)-1]
}

// overloadTable renders the claim-4 comparison.
func overloadTable(points []*OverloadPoint) *Result {
	res := &Result{ID: "Overload", Title: "Overload protection: NI budget vs host collapse"}
	var breaches, rejects, revoked, reinstated int64
	var maxNIQueued int64
	for _, pt := range points {
		breaches += pt.NIBreaches
		rejects += pt.NIRejects
		revoked += pt.NIRevoked
		reinstated += pt.NIReinstated
		if pt.NIBudgetPeak > maxNIQueued {
			maxNIQueued = pt.NIBudgetPeak
		}
	}
	w := worst(points)
	res.Add("NI budget breaches, all cells", "", 0, float64(breaches))
	res.Add("NI peak accounted bytes, all cells", "bytes", 0, float64(maxNIQueued))
	res.Add("NI memory budget", "bytes", 0, float64(w.NIBudgetSize))
	res.Add("admission rejects, all cells", "", 0, float64(rejects))
	res.Add("streams revoked / reinstated", "", 0, float64(revoked))
	res.Add(fmt.Sprintf("NI ring bytes, %.0f%%/%dx", w.Load, w.Mult), "bytes", 0, float64(w.NIQueuedPeakBytes))
	res.Add(fmt.Sprintf("host ring bytes, %.0f%%/%dx", w.Load, w.Mult), "bytes", 0, float64(w.HostQueuedPeakBytes))
	res.Add(fmt.Sprintf("NI violations, %.0f%%/%dx", w.Load, w.Mult), "frames", 0, float64(w.NIViolations))
	res.Add(fmt.Sprintf("host violations, %.0f%%/%dx", w.Load, w.Mult), "frames", 0, float64(w.HostViolations))
	res.Add(fmt.Sprintf("host max queuing delay, %.0f%%/%dx", w.Load, w.Mult), "ms", 0, float64(w.HostMaxQDelayMs))
	res.Note("reinstated %d of %d revocations; %d setups still queued for readmission",
		reinstated, revoked, w.NIWaiting)
	if w.NIBudgetSize > 0 {
		res.Note("worst-cell host backlog = %.1f× the whole NI memory budget",
			float64(w.HostQueuedPeakBytes)/float64(w.NIBudgetSize))
	}
	return res
}

// overloadLadder renders the per-cell control summary pinned by
// OVERLOAD_BASELINE.txt: which rungs each cell reached, what each mechanism
// did, and the zero-breach invariant.
func overloadLadder(points []*OverloadPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "overload ladder/admission summary (%d cells)\n", len(points))
	fmt.Fprintf(&b, "%-10s %-5s %-8s %6s %6s %6s %6s %6s %6s %7s %7s %8s %9s\n",
		"load", "mult", "max_rung", "trans", "shed", "dropB", "dropP", "revok", "reins",
		"rejects", "admits", "breaches", "bp_engag")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-10s %-5d %-8s %6d %6d %6d %6d %6d %6d %7d %7d %8d %9d\n",
			loadName(pt.Load), pt.Mult, pt.NIMaxRung, pt.NITransitions,
			pt.NIShedTolerant, pt.NIShedB, pt.NIShedP, pt.NIRevoked, pt.NIReinstated,
			pt.NIRejects, pt.NILateAdmits+pt.NIRetryAdmits, pt.NIBreaches, pt.NIBPEngages)
	}
	return b.String()
}

// overloadCSV renders the full grid, one row per cell.
func overloadCSV(points []*OverloadPoint) string {
	var b strings.Builder
	b.WriteString("load_pct,oversub,ni_sent,ni_dropped,ni_shed_tol,ni_shed_b,ni_shed_p," +
		"ni_revoked,ni_reinstated,ni_rejects,ni_late_admits,ni_retry_admits,ni_waiting," +
		"ni_breaches,ni_budget_peak,ni_budget_size,ni_ring_peak_bytes,ni_violations," +
		"ni_throttled,ni_bp_engages,ni_leak_reclaimed,ni_max_rung,ni_goodput_kbps," +
		"host_sent,host_dropped,host_violations,host_ring_peak_bytes,host_max_qdelay_ms,host_goodput_kbps\n")
	for _, pt := range points {
		fmt.Fprintf(&b, "%.0f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.1f,%d,%d,%d,%d,%d,%.1f\n",
			pt.Load, pt.Mult, pt.NISent, pt.NIDropped, pt.NIShedTolerant, pt.NIShedB,
			pt.NIShedP, pt.NIRevoked, pt.NIReinstated, pt.NIRejects, pt.NILateAdmits,
			pt.NIRetryAdmits, pt.NIWaiting, pt.NIBreaches, pt.NIBudgetPeak, pt.NIBudgetSize,
			pt.NIQueuedPeakBytes, pt.NIViolations, pt.NIThrottled, pt.NIBPEngages,
			pt.NILeakReclaimed, int(pt.NIMaxRung), pt.NIGoodputKbps,
			pt.HostSent, pt.HostDropped, pt.HostViolations, pt.HostQueuedPeakBytes,
			pt.HostMaxQDelayMs, pt.HostGoodputKbps)
	}
	return b.String()
}

// overloadSummary renders the claim verdicts as prose.
func overloadSummary(points []*OverloadPoint) string {
	var b strings.Builder
	var breaches int64
	bounded := true
	for _, pt := range points {
		breaches += pt.NIBreaches
		if pt.NIBudgetPeak > pt.NIBudgetSize {
			bounded = false
		}
	}
	w := worst(points)
	fmt.Fprintf(&b, "Overload sweep: %d cells (web load × producer oversubscription)\n", len(points))
	fmt.Fprintf(&b, "  budget breaches across all cells: %d (claim: 0)\n", breaches)
	fmt.Fprintf(&b, "  NI resident bytes bounded by the card budget in every cell: %v\n", bounded)
	fmt.Fprintf(&b, "  worst cell (%s, %dx): NI peak %d B of %d B budget; host backlog peak %d B\n",
		loadName(w.Load), w.Mult, w.NIBudgetPeak, w.NIBudgetSize, w.HostQueuedPeakBytes)
	fmt.Fprintf(&b, "  worst cell violations: NI %d vs host %d; host max queuing delay %d ms\n",
		w.NIViolations, w.HostViolations, w.HostMaxQDelayMs)
	var revoked, reinstated, leaked int64
	for _, pt := range points {
		revoked += pt.NIRevoked
		reinstated += pt.NIReinstated
		leaked += pt.NILeakReclaimed
	}
	if leaked > 0 {
		fmt.Fprintf(&b, "  mem-leak fault pinned %d B at %dx oversubscription; ladder revoked %d stream(s), reinstated %d after reclaim\n",
			leaked, overloadLeakMult, revoked, reinstated)
	}
	return b.String()
}
