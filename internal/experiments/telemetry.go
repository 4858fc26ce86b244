package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/disk"
	"repro/internal/dvcmnet"
	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/host"
	"repro/internal/hostos"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/webload"
)

// TelemetryConfig sizes the instrumented demonstration run.
type TelemetryConfig struct {
	// Dur is the simulated observation length (default 20 s).
	Dur sim.Time
}

// telemetryStreams is how many VOD streams the scheduler NI serves.
const telemetryStreams = 2

// TelemetryArtifacts is everything one instrumented run exports: the
// standard-format dumps (Chrome trace JSON, Prometheus text, snapshot CSV)
// plus the human-readable stage, folded-stack, and cycle-attribution tables.
// All fields are deterministic: byte-identical across runs and worker
// counts.
type TelemetryArtifacts struct {
	TraceJSON  []byte // Chrome trace-event JSON (Perfetto-loadable)
	Prom       string // Prometheus text exposition of the final state
	CSV        string // per-snapshot time series (time_ms,component,metric,value)
	StageTable string // per-stage frame latency table
	Folded     string // folded-stack lines for flamegraph tools
	CycleTable string // cycle-cost attribution from the profiled microbenchmark
	Summary    string // one-screen overview of the run

	Components []string // distinct instrumented components, sorted
	SpanCount  int      // causal span segments recorded
	Snapshots  int      // metric snapshots taken

	// Cycle reconciliation: the profiled microbenchmark pass against the
	// plain Table 2 measurement of the same configuration.
	ProfiledCycles int64    // profiler's attributed total
	MeteredCycles  int64    // the meter's own total for the same pass
	ProfiledTime   sim.Time // profiled total as simulated time
	BenchTotal     sim.Time // the same pass unprofiled: Table 2's TotalSched
}

// RunTelemetry executes the full-stack observability demonstration: a
// one-node server streaming VOD (disk → bus → DWCS queue → wire →
// client), a host-based scheduler stream under web load, a DVCM management
// endpoint polling scheduler stats over the SAN, and a reliable transport
// pair on a lossy link — every substrate instrumented into one registry,
// snapshotted each simulated second — plus a cycle-profiled rerun of the
// Table 2 microbenchmark whose attribution must reconcile with the plain
// measurement to within one cycle.
func RunTelemetry(cfg TelemetryConfig) *TelemetryArtifacts {
	if cfg.Dur <= 0 {
		cfg.Dur = 20 * sim.Second
	}

	eng := sim.NewEngine(42)
	reg := telemetry.New()
	clip := mpeg.GenerateDefault()

	// Server path: the paper's §6 complex at its smallest — one PCI
	// segment holding a dedicated scheduler NI (cache on, no disk) and a
	// disk-attached producer NI, joined to the clients by the SAN switch.
	// It is the one simulator run that schedules with paced Heaps.
	san := netsim.NewSwitch(eng, "san", 90*sim.Microsecond)
	seg := bus.New(eng, bus.PCI("n0/pci0"))
	schedCard := nic.New(eng, nic.Config{Name: "n0/sched0", PCI: seg, CacheOn: true})
	schedCard.ConnectEthernet(netsim.Fast100(eng, schedCard.Name+"-eth", san))
	ext, err := schedCard.LoadScheduler(nic.SchedulerConfig{
		Selector: dwcs.Heaps,
		// Dispatch a little ahead of each deadline so stack + wire time
		// lands frames at clients on time.
		EligibleEarly: 20 * sim.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	endpoint := dvcmnet.Attach(eng, san, schedCard.Name, schedCard.VCM)
	prodCard := nic.New(eng, nic.Config{Name: "n0/prod0", PCI: seg})
	d := disk.New(eng, disk.DefaultSCSI(prodCard.Name+"-disk"))
	prodCard.AttachDisk(d, disk.NewDOSFS(d))
	seg.Instrument(reg)
	ext.Instrument(reg)
	endpoint.Instrument(reg)
	prodCard.Instrument(reg)
	d.Instrument(reg)
	for id := 1; id <= telemetryStreams; id++ {
		if err := ext.AddStream(dwcs.StreamSpec{
			ID: id, Name: fmt.Sprintf("vod%d", id), Period: streamPeriod,
			Loss: fixed.New(1, 2), Lossy: true, BufCap: streamBufCap,
			NominalBytes: clip.MeanFrameSize(),
		}); err != nil {
			panic(err)
		}
		cl := netsim.NewClient(eng, fmt.Sprintf("client-%d", id))
		cl.Instrument(reg)
		san.Attach(cl.Name, netsim.Fast100(eng, "san-"+cl.Name, cl))
		ext.SpawnPeerProducer(prodCard, clip, id, cl.Name, producerEvery, 1<<30)
	}

	// Host path: the same DWCS code as a host process competing with web
	// load, delivering to its own client on the SAN switch.
	sys := hostos.New(eng, 1, 10*sim.Millisecond)
	webload.Daemons(eng, sys)
	reg.GaugeFunc("host", "cpu_utilization",
		"host CPU utilization percent across all processors", sys.TotalUtilization)
	hostCl := netsim.NewClient(eng, "client-host")
	hostCl.Instrument(reg)
	san.Attach(hostCl.Name, netsim.Fast100(eng, "san-"+hostCl.Name, hostCl))
	sched := host.NewScheduler(eng, sys, netsim.Fast100(eng, "host-eth", san),
		host.SchedulerConfig{EligibleEarly: eligibleEarly})
	sched.Instrument(reg)
	hostSpec := dwcs.StreamSpec{
		ID: 101, Name: "h1", Period: streamPeriod,
		Loss: fixed.New(1, 2), Lossy: true, BufCap: streamBufCap,
	}
	if err := sched.AddStream(hostSpec, hostCl.Name); err != nil {
		panic(err)
	}
	host.StartProducer(eng, sys, sched, host.ProducerConfig{
		Clip: clip, StreamID: hostSpec.ID, Every: producerEvery,
		PerFrameCPU: producerFrameCPU, CPU: hostos.AnyCPU,
	})
	webload.NewGenerator(eng, sys, webload.TargetUtilization("telemetry", 30, 1)).Start()

	// Control plane: a management endpoint polls the scheduler NI's DWCS
	// stats over the SAN once per second.
	mgmt := dvcmnet.Attach(eng, san, "mgmt", nil)
	mgmt.Instrument(reg)
	eng.Every(sim.Second, func() {
		mgmt.Invoke(schedCard.Name, core.Instr{Ext: "dwcs", Op: "stats", Arg: 1},
			func(any, error) {})
	})

	// Reliable transport pair over a deterministically lossy link: every 7th
	// data packet is dropped, exercising the retransmit counters.
	var recv *transport.Receiver
	dataLink := netsim.Fast100(eng, "tp-data", netsim.PortFunc(func(p *netsim.Packet) {
		recv.Deliver(p)
	}))
	dataLink.DropEvery = 7
	sender := transport.NewSender(eng, dataLink, 8, 5*sim.Millisecond)
	ackLink := netsim.Fast100(eng, "tp-ack", netsim.PortFunc(func(p *netsim.Packet) {
		sender.Deliver(p)
	}))
	recv = transport.NewReceiver(eng, nil, ackLink, "tp-sender")
	sender.Instrument(reg)
	recv.Instrument(reg)
	eng.Every(100*sim.Millisecond, func() {
		sender.Send(&netsim.Packet{Src: "tp-a", Dst: "tp-b", Bytes: 1400, StreamID: -1})
	})

	reg.SnapshotEvery(eng, sim.Second)
	eng.RunUntil(cfg.Dur)

	// Cycle attribution: rerun the Table 2 fixed-point scheduled pass with a
	// profiler observing the card meter from its reset on, so the attributed
	// total must equal the metered one, and reconcile it against one plain
	// scheduled pass of the identical configuration.
	prof := telemetry.NewProfiler()
	pkts := microPackets()
	meter, _ := microPass(pkts, cpu.FixedPoint, true, nic.StoreDRAM, false, prof)
	plain, _ := microPass(pkts, cpu.FixedPoint, true, nic.StoreDRAM, false, nil)

	traceJSON, err := telemetry.MarshalChrome(reg.Spans.ChromeEvents())
	if err != nil {
		panic(err)
	}
	a := &TelemetryArtifacts{
		TraceJSON:      traceJSON,
		Prom:           reg.PrometheusText(),
		CSV:            reg.SnapshotsCSV(),
		StageTable:     reg.Spans.StageTable(),
		Folded:         reg.Spans.Folded(),
		CycleTable:     prof.Table(meter.Model),
		Components:     reg.Components(),
		SpanCount:      reg.Spans.Len(),
		Snapshots:      reg.Snapshots(),
		ProfiledCycles: prof.Total(),
		MeteredCycles:  meter.Cycles(),
		ProfiledTime:   meter.Model.Duration(prof.Total()),
		BenchTotal:     plain.Elapsed(),
	}
	a.Summary = a.summarize(cfg)
	return a
}

// summarize renders the one-screen run overview.
func (a *TelemetryArtifacts) summarize(cfg TelemetryConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry run: %v simulated, %d cluster streams + 1 host stream\n",
		cfg.Dur, telemetryStreams)
	fmt.Fprintf(&b, "  components instrumented: %d (%s)\n",
		len(a.Components), strings.Join(a.Components, ", "))
	fmt.Fprintf(&b, "  span segments: %d   snapshots: %d\n", a.SpanCount, a.Snapshots)
	fmt.Fprintf(&b, "  cycle reconciliation: profiled %d cycles vs metered %d (Δ %d)\n",
		a.ProfiledCycles, a.MeteredCycles, a.ProfiledCycles-a.MeteredCycles)
	fmt.Fprintf(&b, "  profiled sched pass: %v vs Table 2 total %v (Δ %v)\n",
		a.ProfiledTime, a.BenchTotal, a.ProfiledTime-a.BenchTotal)
	return b.String()
}
