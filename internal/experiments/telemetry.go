package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cpu"
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
	// Streams is how many VOD streams the cluster serves (default 2).
	Streams int
}

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
	BenchTotal     sim.Time // RunMicrobench TotalSched for the same config
}

// RunTelemetry executes the full-stack observability demonstration: a
// one-node cluster serving VOD streams (disk → bus → DWCS queue → wire →
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
	if cfg.Streams <= 0 {
		cfg.Streams = 2
	}

	eng := sim.NewEngine(42)
	defer eng.Close()
	reg := telemetry.New()
	clip := mpeg.GenerateDefault()

	// Cluster path: one node, one scheduler NI, one producer NI. Instrument
	// before admission so clients attached later inherit the registry.
	c := newTelemetryCluster(eng)
	c.Instrument(reg)
	for i := 0; i < cfg.Streams; i++ {
		p, err := c.Admit(telemetryStreamRequest(fmt.Sprintf("vod%d", i+1), clip))
		if err != nil {
			panic(err)
		}
		c.AttachClient(p)
		c.Start(p, clip, producerEvery, 1<<30)
	}

	// Host path: the same DWCS code as a host process competing with web
	// load, delivering to its own client on the SAN switch.
	sys := hostos.New(eng, 1, 10*sim.Millisecond)
	webload.Daemons(eng, sys)
	reg.GaugeFunc("host", "cpu_utilization",
		"host CPU utilization percent across all processors", sys.TotalUtilization)
	hostCl := netsim.NewClient(eng, "client-host")
	hostCl.Instrument(reg)
	c.Switch.Attach(hostCl.Name, netsim.Fast100(eng, "san-"+hostCl.Name, hostCl))
	sched := host.NewScheduler(eng, sys, netsim.Fast100(eng, "host-eth", c.Switch),
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
		PerFrameCPU: producerFrameCPU, CPU: hostos.AnyCPU, Loop: true,
	})
	webload.NewGenerator(eng, sys, webload.TargetUtilization("telemetry", 30, 1)).Start()

	// Control plane: a management endpoint polls the scheduler NI's DWCS
	// stats over the SAN once per second.
	mgmt := dvcmnet.Attach(eng, c.Switch, "mgmt", nil)
	mgmt.Instrument(reg)
	schedNI := c.Nodes[0].Schedulers[0]
	eng.Every(sim.Second, func() {
		mgmt.Invoke(schedNI.Card.Name, core.Instr{Ext: "dwcs", Op: "stats", Arg: 1},
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

	// Cycle attribution: profile the Table 2 fixed-point pass and reconcile
	// against the plain measurement of the identical configuration.
	prof, meterCycles, model := profiledMicrobench()
	mb := RunMicrobench(cpu.FixedPoint, true, nic.StoreDRAM)

	a := registryArtifacts(reg)
	a.CycleTable = prof.Table(model)
	a.ProfiledCycles = prof.Total()
	a.MeteredCycles = meterCycles
	a.ProfiledTime = model.Duration(prof.Total())
	a.BenchTotal = mb.TotalSched
	a.Summary = a.summarize(cfg)
	return a
}

// registryArtifacts renders what any instrumented run exports from its
// registry: the standard-format dumps and the registry's own counts.
func registryArtifacts(reg *telemetry.Registry) *TelemetryArtifacts {
	traceJSON, err := telemetry.MarshalChrome(reg.Spans.ChromeEvents())
	if err != nil {
		panic(err)
	}
	return &TelemetryArtifacts{
		TraceJSON:  traceJSON,
		Prom:       reg.PrometheusText(),
		CSV:        reg.SnapshotsCSV(),
		StageTable: reg.Spans.StageTable(),
		Folded:     reg.Spans.Folded(),
		Components: reg.Components(),
		SpanCount:  reg.Spans.Len(),
		Snapshots:  reg.Snapshots(),
	}
}

// newTelemetryCluster builds the single-node cluster the demonstration
// streams from.
func newTelemetryCluster(eng *sim.Engine) *cluster.Cluster {
	return cluster.New(eng, []cluster.NodeConfig{{
		Name: "n0", Segments: 1, SchedulerNIs: 1, ProducerNIs: 1,
	}})
}

// telemetryStreamRequest shapes one VOD stream like the Figure 7/9 workload.
func telemetryStreamRequest(name string, clip *mpeg.Clip) cluster.StreamRequest {
	return cluster.StreamRequest{
		Name:       name,
		Period:     streamPeriod,
		FrameBytes: clip.MeanFrameSize(),
		Loss:       fixed.New(1, 2),
		Lossy:      true,
		BufCap:     streamBufCap,
	}
}

// profiledMicrobench reruns the Table 2 scheduled pass (fixed point, cache
// on, DRAM descriptor store) with a cycle profiler observing the card meter
// from the same instant the plain benchmark resets it, so the attributed
// total must equal the metered total exactly.
func profiledMicrobench() (prof *telemetry.Profiler, meterCycles int64, model *cpu.Model) {
	clip := mpeg.GenerateDefault()
	perStream := (len(clip.Frames) + MicrobenchStreams - 1) / MicrobenchStreams

	eng := sim.NewEngine(1)
	card := nic.New(eng, nic.Config{Name: "bench", CacheOn: true, Arith: cpu.FixedPoint})
	sched := card.NewBenchScheduler(nic.SchedulerConfig{
		Store:          nic.StoreDRAM,
		WorkConserving: true,
	})
	for _, spec := range microStreamSpecs(perStream) {
		if err := sched.AddStream(spec); err != nil {
			panic(err)
		}
	}
	for i, f := range clip.Frames {
		if err := sched.Enqueue(i%MicrobenchStreams, dwcs.Packet{Bytes: f.Size, Offset: f.Offset}); err != nil {
			panic(err)
		}
	}
	card.Meter.Reset()
	prof = telemetry.NewProfiler()
	card.Meter.Observe(prof)
	for {
		d := sched.Schedule()
		if d.Packet == nil {
			break
		}
		card.ChargeDispatch()
	}
	return prof, card.Meter.Cycles(), card.Meter.Model
}

// summarize renders the one-screen run overview.
func (a *TelemetryArtifacts) summarize(cfg TelemetryConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry run: %v simulated, %d cluster streams + 1 host stream\n",
		cfg.Dur, cfg.Streams)
	fmt.Fprintf(&b, "  components instrumented: %d (%s)\n",
		len(a.Components), strings.Join(a.Components, ", "))
	fmt.Fprintf(&b, "  span segments: %d   snapshots: %d\n", a.SpanCount, a.Snapshots)
	fmt.Fprintf(&b, "  cycle reconciliation: profiled %d cycles vs metered %d (Δ %d)\n",
		a.ProfiledCycles, a.MeteredCycles, a.ProfiledCycles-a.MeteredCycles)
	fmt.Fprintf(&b, "  profiled sched pass: %v vs Table 2 total %v (Δ %v)\n",
		a.ProfiledTime, a.BenchTotal, a.ProfiledTime-a.BenchTotal)
	return b.String()
}
