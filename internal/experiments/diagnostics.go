// Diagnostics experiment: the observability tentpole's proving ground. One
// protected scheduler card is driven through a chaos schedule — producer
// oversubscription, a mid-run memory leak, a task hang that starves the
// watchdog petter, and late setup attempts that hit the admission ceiling —
// with the full diagnostic stack attached: a flight recorder charged against
// the card's own memory budget, an SLO monitor reading burn rates off the
// DWCS loss windows, and the telemetry registry snapshotting throughout.
// Every artifact (incident dumps, SLO table, metrics CSV) is byte-identical
// across runs; `reprogen -slo` writes them and CI diffs them.
package experiments

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/blackbox"
	"repro/internal/bus"
	"repro/internal/disk"
	"repro/internal/dwcs"
	"repro/internal/faults"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/overload"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// Diagnostics testbed parameters.
const (
	// diagWatchdog is the scheduler card's deadman timeout; the injected
	// task hang lasts several timeouts, so the bite fires repeatedly while
	// the card is wedged — each bite is a recorded trigger.
	diagWatchdog = 50 * sim.Millisecond
	diagHang     = 160 * sim.Millisecond
	// diagRingBytes sizes the flight-recorder ring (256 events); it is
	// charged to the card budget under ClassBlackbox.
	diagRingBytes = 16 << 10
	// diagIncidents caps retained dumps; triggers beyond it are counted as
	// suppressed, proving incident storage is bounded.
	diagIncidents = 10
	// diagLeakKBps leaks fast enough to pin the budget at its absolute size
	// (each drip is capped at the free bytes), so the late setups that land
	// inside the leak window are refused at the high-water mark.
	diagLeakKBps = 1024
	// diagLatencyPeriods sets each stream's latency SLO to this many stream
	// periods of queue-stage wait.
	diagLatencyPeriods = 2
)

// DiagnosticsConfig parameterizes RunDiagnostics.
type DiagnosticsConfig struct {
	Dur  sim.Time // observation length; 0 = 30 s
	Mult int      // producer oversubscription; 0 = 8 (past the leak threshold)
}

// DiagnosticsArtifacts is everything one diagnostics run exports.
type DiagnosticsArtifacts struct {
	Dur sim.Time

	Incidents  string // flight-recorder dump (incidents + trailer)
	SLO        string // per-stream SLO health table
	MetricsCSV string // registry snapshots
	Stages     string // per-stage latency table
	Plan       string // the chaos plan that ran
	Summary    string

	// Ledger numbers the acceptance tests pin.
	Triggers      int64
	Suppressed    int64
	RingBytes     int64 // bytes charged for the ring
	RingCharge    int64 // ClassBlackbox bytes still charged at end of run
	BudgetPeak    int64
	BudgetSize    int64
	Breaches      int64
	Rejects       int64
	WatchdogBites int64
	Health        slo.State
	SLOViolations int64
}

// RunDiagnostics executes the chaos-diagnostics run on a single seed-42
// engine. Everything — scheduler decisions, ladder motion, fault arming,
// watchdog bites, SLO transitions — flows through the one event loop, so the
// incident dumps are a pure function of the configuration.
func RunDiagnostics(cfg DiagnosticsConfig) *DiagnosticsArtifacts {
	if cfg.Dur <= 0 {
		cfg.Dur = 30 * sim.Second
	}
	if cfg.Mult <= 0 {
		cfg.Mult = 8
	}
	a := &DiagnosticsArtifacts{Dur: cfg.Dur}

	eng := sim.NewEngine(42)
	defer eng.Close()
	reg := telemetry.New()

	seg := bus.New(eng, bus.PCI("pci0"))
	sw := netsim.NewSwitch(eng, "sw0", 90*sim.Microsecond)

	diskCard := nic.New(eng, nic.Config{Name: "ni-disk", PCI: seg})
	d := disk.New(eng, disk.DefaultSCSI("ni-disk0"))
	diskCard.AttachDisk(d, disk.NewDOSFS(d))
	schedCard := nic.New(eng, nic.Config{
		Name: "ni-sched", PCI: seg, CacheOn: true, Memory: overloadCardMem,
	})
	schedCard.ConnectEthernet(netsim.Fast100(eng, "ni-sched-eth", sw))

	ext, err := schedCard.LoadScheduler(nic.SchedulerConfig{EligibleEarly: eligibleEarly})
	if err != nil {
		panic(err)
	}
	ext.Instrument(reg)

	ctl := overload.NewController(schedCard.Name, schedCard.Mem.Size())
	ctl.BP.High, ctl.BP.Low = overloadBPHigh, overloadBPLow
	ext.AttachOverload(ctl)
	ctl.Instrument(reg)

	// Deadman: the injected hang starves the petter; the bite itself is the
	// diagnostic event, so recovery is just the hog draining.
	schedCard.StartWatchdog(diagWatchdog, func() { a.WatchdogBites++ })

	// Flight recorder, charged against the card budget. Attached after the
	// watchdog so the bite tap lands.
	rec, err := blackbox.New(blackbox.Config{
		Name: schedCard.Name, Bytes: diagRingBytes,
		MaxIncidents: diagIncidents, Budget: ctl.Budget,
	})
	if err != nil {
		panic(err)
	}
	ext.AttachBlackbox(rec)
	rec.Instrument(reg)

	// Streams, producers, clients — the overload experiment's population.
	clip := mpeg.GenerateDefault()
	nominal := clip.MeanFrameSize()
	base := overloadStreams(nominal)
	late := overloadLateStreams(nominal)
	for _, spec := range append(append([]dwcs.StreamSpec{}, base...), late...) {
		cl := netsim.NewClient(eng, "client-"+spec.Name)
		sw.Attach(cl.Name, netsim.Fast100(eng, "sw-"+cl.Name, cl))
	}
	every := streamPeriod / sim.Time(cfg.Mult)
	spawn := func(spec dwcs.StreamSpec) {
		ext.SpawnPeerProducer(diskCard, clip, spec.ID, "client-"+spec.Name, every, 1<<30)
	}
	ext.OnReinstate = spawn

	// SLO monitor: loss budgets read off the DWCS windows, latency bounds a
	// small multiple of the period. The reading freezes while a stream is
	// revoked; a reinstated stream's counters restart at zero and are read as
	// they are, which Eval takes as a counter restart: the first bucket after
	// it is the new reading, never a negative delta. (slo.Monitor.TrackStream
	// would hold the pre-revocation total until the new counters pass it — in
	// a run this short, never — and the burn columns would end at 0.00, so
	// this site keeps its own source.)
	mon := slo.NewMonitor(schedCard.Name, slo.Config{})
	for _, spec := range base {
		spec := spec
		var lastA, lastL int64
		mon.Track(slo.FromSpec(spec, diagLatencyPeriods*streamPeriod),
			func() (int64, int64) {
				if st, err := ext.Sched.Stats(spec.ID); err == nil {
					lastA, lastL = st.Attempts(), st.Losses()
				}
				return lastA, lastL
			})
	}
	// Every stream transition lands in the ring, but the incident trigger is
	// card-level: the first stream to harden to violated flips the card's
	// health, and that is the moment worth a dump — not each sibling stream
	// confirming the same overload a tick later.
	sloBurned := false
	mon.OnChange = func(stream int, from, to slo.State) {
		rec.Record(blackbox.Event{At: eng.Now(), Kind: blackbox.KindSLO,
			Stream: stream, A: int64(from), B: int64(to),
			Note: from.String() + " -> " + to.String()})
		if to == slo.StateViolated && !sloBurned {
			sloBurned = true
			rec.Trigger(eng.Now(), "slo-burn")
		}
	}
	mon.Instrument(reg)
	mon.Start(eng)

	// Fan-out taps: pipeline spans feed the SLO latency windows and (queue
	// stage aside, which dispatch already records as decisions) the ring;
	// registry snapshots leave a marker event in the ring.
	reg.Spans.Observer = func(seg telemetry.Segment) {
		mon.ObserveSegment(seg)
		if seg.Stage != telemetry.StageQueue {
			rec.Record(blackbox.Event{At: seg.End, Kind: blackbox.KindSpan,
				Stream: seg.Stream, Seq: seg.Seq,
				A: int64(seg.Stage), B: int64(seg.End - seg.Start)})
		}
	}
	reg.OnSnapshot = func(at sim.Time, values int) {
		rec.Record(blackbox.Event{At: at, Kind: blackbox.KindSnapshot,
			A: int64(values)})
	}

	for _, spec := range base {
		if err := ext.AddStream(spec); err != nil {
			panic(err)
		}
		spawn(spec)
	}

	// Late setups under pressure: refusals at the high-water mark feed the
	// budget-refusal trigger. No retry queue here — the refusal is the event
	// this experiment is about.
	for i, spec := range late {
		spec := spec
		eng.At(cfg.Dur/2+sim.Time(i)*200*sim.Millisecond, func() {
			if err := ext.AddStream(spec); err != nil &&
				!errors.Is(err, overload.ErrAdmission) {
				panic(err)
			}
		})
	}

	// Chaos plan: a memory leak squeezing the budget through the back half,
	// and a task hang starving the watchdog petter. The injector tee mirrors
	// every arm/recovery into the flight recorder and triggers on arming.
	plan := &faults.Plan{Events: []faults.Event{
		{At: cfg.Dur / 4, Duration: diagHang, Kind: faults.TaskHang,
			Target: schedCard.Name},
		{At: cfg.Dur / 2, Duration: cfg.Dur / 4, Kind: faults.MemLeak,
			Target: schedCard.Name, Factor: diagLeakKBps},
	}}
	var stopLeak func()
	inj := faults.InjectorFuncs{
		OnInject: func(e faults.Event) {
			switch e.Kind {
			case faults.TaskHang:
				schedCard.HangHog(e.Duration)
			case faults.MemLeak:
				stopLeak = ctl.Budget.Drip(eng, overloadSampleEvery, e.Factor)
			}
		},
		OnRecover: func(e faults.Event) {
			if e.Kind == faults.MemLeak {
				stopLeak()
				ctl.Budget.ReclaimLeak()
			}
		},
	}
	tapped := faults.Tee(inj, func(e faults.Event, recover bool) {
		ext.RecordFault(eng.Now(), e.Kind.String(), e.Target, recover)
	})
	if err := plan.Arm(eng, tapped, nil); err != nil {
		panic(err)
	}

	reg.SnapshotEvery(eng, sim.Second)
	eng.RunUntil(cfg.Dur)
	mon.Stop()

	a.Incidents = rec.DumpAll()
	a.SLO = mon.Table()
	a.MetricsCSV = reg.SnapshotsCSV()
	a.Stages = reg.Spans.StageTable()
	a.Plan = plan.String()
	a.Triggers = rec.Triggers
	a.Suppressed = rec.Suppressed
	a.RingBytes = rec.RingBytes()
	a.RingCharge = ctl.Budget.UsedClass(overload.ClassBlackbox)
	a.BudgetPeak = ctl.Budget.Peak()
	a.BudgetSize = ctl.Budget.Size()
	a.Breaches = ctl.Budget.Breaches
	a.Rejects = ctl.Budget.Rejects
	a.Health = mon.Health()
	a.SLOViolations = mon.Violations
	a.Summary = a.summarize(cfg, rec)
	return a
}

func (a *DiagnosticsArtifacts) summarize(cfg DiagnosticsConfig, rec *blackbox.Recorder) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Diagnostics chaos run: %v at %dx oversubscription\n", a.Dur, cfg.Mult)
	fmt.Fprintf(&b, "  incidents: %d trigger(s), %d retained, %d suppressed\n",
		a.Triggers, len(rec.Incidents()), a.Suppressed)
	fmt.Fprintf(&b, "  flight-recorder ring: %d B charged to the card budget (class blackbox: %d B at end)\n",
		a.RingBytes, a.RingCharge)
	fmt.Fprintf(&b, "  card budget: peak %d of %d B, %d refusal(s), %d breach(es)\n",
		a.BudgetPeak, a.BudgetSize, a.Rejects, a.Breaches)
	fmt.Fprintf(&b, "  watchdog bites: %d\n", a.WatchdogBites)
	fmt.Fprintf(&b, "  SLO health at end: %s (%d violation transition(s))\n",
		a.Health, a.SLOViolations)
	return b.String()
}
