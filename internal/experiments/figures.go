package experiments

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/disk"
	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/host"
	"repro/internal/hostos"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/webload"
)

// Figure workload parameters (§4.2.3, Figure 5 testbed).
const (
	// streamPeriod is the requested inter-frame service time of streams s1
	// and s2: ~6.25 frames/s of ~5.1 KB frames ≈ 256 kbps, matching the
	// ≈250–260 kbps settling bandwidths in Figures 7 and 9.
	streamPeriod = 160 * sim.Millisecond
	// eligibleEarly lets a frame go up to half a period early, giving the
	// scheduler headroom against moderate scheduling jitter.
	eligibleEarly = 80 * sim.Millisecond
	// producerEvery oversubscribes the scheduler 4×, so queues stay deep
	// (the paper's multi-second queuing delays).
	producerEvery = 40 * sim.Millisecond
	// streamBufCap bounds each stream's ring: ~64 frames × 160 ms ≈ 10 s of
	// backlog, the Figure 8 no-load plateau.
	streamBufCap = 64
	// bwWindow is the bandwidth-sample window of Figures 7 and 9.
	bwWindow = 2 * sim.Second
	// FigureDuration is the default observation length (Figures 6–8 span
	// ~100 s).
	FigureDuration = 100 * sim.Second
	// producerFrameCPU is the host CPU consumed per mean-size injected
	// frame (MPEG segmentation, filesystem read, copies on a 200 MHz
	// Pentium Pro); with 2×25 injections/s it contributes the ~15% baseline
	// utilization of the quiescent Figure 6 curve.
	producerFrameCPU = 4500 * sim.Microsecond
	// baselineUtilPct is that streaming baseline; web load levels are total
	// utilization including it.
	baselineUtilPct = 15
)

// figureStreams returns the two lossy streams s1 and s2.
func figureStreams() []dwcs.StreamSpec {
	specs := make([]dwcs.StreamSpec, 2)
	for i := range specs {
		specs[i] = dwcs.StreamSpec{
			ID:     i + 1,
			Name:   fmt.Sprintf("s%d", i+1),
			Period: streamPeriod,
			Loss:   fixed.New(1, 2),
			Lossy:  true,
			BufCap: streamBufCap,
		}
	}
	return specs
}

// StreamCurves is everything one load-level run produces.
type StreamCurves struct {
	Load    string
	Util    stats.Series                   // Figure 6: % CPU over time
	BW      map[string]*stats.Series       // Figures 7/9: bps per stream
	QDelay  map[string]*stats.DelayTracker // Figures 8/10
	Jitter  map[string]sim.Time            // §4.2.3 inter-arrival jitter per stream
	Sent    int64
	Dropped int64
}

// SettleBW returns the stream's mean bandwidth over the second half of the
// run — the "settling" value the paper quotes for unloaded runs.
func (c *StreamCurves) SettleBW(stream string, dur sim.Time) float64 {
	s, ok := c.BW[stream]
	if !ok {
		return 0
	}
	return s.MeanAfter(dur / 2)
}

// SettleBWWindow returns the stream's mean bandwidth over [from, to). The
// paper quotes loaded-run bandwidths during the high-load phase ("the
// period from 40s-80s" for the 60% run), so Figure 7's loaded rows measure
// the modulation peak of the second load cycle.
func (c *StreamCurves) SettleBWWindow(stream string, from, to sim.Time) float64 {
	s, ok := c.BW[stream]
	if !ok {
		return 0
	}
	sum, n := 0.0, 0
	for _, p := range s.Points {
		if p.At >= from && p.At < to {
			sum += p.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// PeakWindow is where the second load-modulation peak falls in a run of
// dur: the analogue of the paper's 40–80 s loaded phase.
func PeakWindow(dur sim.Time) (from, to sim.Time) {
	return dur / 2, dur * 3 / 4
}

// hostBed is the Figure 5 testbed with DWCS as a host process behind an
// Intel 82557 NI: a 2-CPU host running the web daemons, a client per stream
// on sw0, the scheduler pinned to CPU 0 sending on host-eth, and a looping
// producer per stream. RunHostLoad and the overload sweep's host baseline
// both run on it.
type hostBed struct {
	eng     *sim.Engine
	sys     *hostos.System
	clients []*netsim.Client // one per spec, in spec order
	sched   *host.Scheduler
}

// newHostBed builds the host testbed for specs, each producer injecting a
// frame of clip per period of every, and starts web load topping the host
// up to loadPct total utilization.
func newHostBed(clip *mpeg.Clip, specs []dwcs.StreamSpec, loadPct float64, every sim.Time) *hostBed {
	eng := sim.NewEngine(42)
	sys := hostos.New(eng, 2, 15*sim.Millisecond)
	webload.Daemons(eng, sys)

	sw := netsim.NewSwitch(eng, "sw0", 90*sim.Microsecond)
	b := &hostBed{eng: eng, sys: sys, clients: attachClients(eng, sw, specs)}
	b.sched = host.NewScheduler(eng, sys, netsim.Fast100(eng, "host-eth", sw), host.SchedulerConfig{
		CPU:           0, // pbind to processor 0
		EligibleEarly: eligibleEarly,
	})
	for _, spec := range specs {
		if err := b.sched.AddStream(spec, "client-"+spec.Name); err != nil {
			panic(err)
		}
		host.StartProducer(eng, sys, b.sched, host.ProducerConfig{
			Clip: clip, StreamID: spec.ID, Every: every,
			PerFrameCPU: producerFrameCPU, CPU: hostos.AnyCPU,
		})
	}
	if loadPct > 0 {
		// The paper's load levels are *total* utilization including the
		// streaming workload's own ~15%; the web generator supplies the
		// remainder.
		webPct := max(loadPct-baselineUtilPct, 0)
		webload.NewGenerator(eng, sys, webload.TargetUtilization(loadName(loadPct), webPct, 2)).Start()
	}
	return b
}

// attachClients puts a client per spec on sw, in spec order.
func attachClients(eng *sim.Engine, sw *netsim.Switch, specs []dwcs.StreamSpec) []*netsim.Client {
	clients := make([]*netsim.Client, len(specs))
	for i, spec := range specs {
		cl := netsim.NewClient(eng, "client-"+spec.Name)
		sw.Attach(cl.Name, netsim.Fast100(eng, "sw-"+cl.Name, cl))
		clients[i] = cl
	}
	return clients
}

// newNIHost builds the NI placement's host: the seed-42 engine, one CPU
// online (§4.2.3) running the web daemons, and two PCI segments, the web
// NI's and the scheduler's.
func newNIHost() (eng *sim.Engine, sys *hostos.System, webSeg, schedSeg *bus.Bus) {
	eng = sim.NewEngine(42)
	sys = hostos.New(eng, 1, 10*sim.Millisecond)
	webload.Daemons(eng, sys)
	return eng, sys, bus.New(eng, bus.PCI("pci0")), bus.New(eng, bus.PCI("pci1"))
}

// newCardPair builds the NI placement's cards on seg: a disk card sourcing
// frames and a dedicated scheduler card of memory bytes (0 = the default;
// cache enabled, no disk) that schedules and transmits onto sw — the paper's
// preferred split (§4.2).
func newCardPair(eng *sim.Engine, seg *bus.Bus, sw *netsim.Switch, memory int64) (diskCard *nic.Card, ext *nic.SchedulerExt) {
	diskCard = nic.New(eng, nic.Config{Name: "ni-disk", PCI: seg})
	d := disk.New(eng, disk.DefaultSCSI("ni-disk0"))
	diskCard.AttachDisk(d, disk.NewDOSFS(d))
	schedCard := nic.New(eng, nic.Config{Name: "ni-sched", PCI: seg, CacheOn: true, Memory: memory})
	schedCard.ConnectEthernet(netsim.Fast100(eng, "ni-sched-eth", sw))
	ext, err := schedCard.LoadScheduler(nic.SchedulerConfig{EligibleEarly: eligibleEarly})
	if err != nil {
		panic(err)
	}
	return diskCard, ext
}

// startNIWebLoad puts loadPct web load on the NI placement's host CPU, the
// web responses DMAing across seg.
func startNIWebLoad(eng *sim.Engine, sys *hostos.System, seg *bus.Bus, loadPct float64) {
	if loadPct > 0 {
		webload.NewGenerator(eng, sys, webload.TargetUtilization(loadName(loadPct), loadPct, 1)).Start()
		eng.Every(250*sim.Millisecond, func() {
			seg.DMA(64<<10, nil)
		})
	}
}

// meteredCurves returns the empty curves of one load level and puts a
// bandwidth meter on each figure stream's client.
func meteredCurves(loadPct float64, clients []*netsim.Client) *StreamCurves {
	for i, spec := range figureStreams() {
		clients[i].BW = stats.NewBandwidthMeter(spec.Name, bwWindow)
	}
	return &StreamCurves{
		Load:   loadName(loadPct),
		BW:     make(map[string]*stats.Series),
		QDelay: make(map[string]*stats.DelayTracker),
		Jitter: make(map[string]sim.Time),
	}
}

// collect reads a run that ended at dur off the figure streams' clients and
// their scheduler's queuing delays and counters.
func (c *StreamCurves) collect(dur sim.Time, clients []*netsim.Client, qdelay map[int]*stats.DelayTracker, sent, dropped int64) *StreamCurves {
	for i, spec := range figureStreams() {
		clients[i].BW.FlushUntil(dur)
		c.BW[spec.Name] = &clients[i].BW.Series
		c.QDelay[spec.Name] = qdelay[spec.ID]
		c.Jitter[spec.Name] = clients[i].Jitter()
	}
	c.Sent, c.Dropped = sent, dropped
	return c
}

// RunHostLoad runs the host-based-scheduler experiment (Figure 5 with
// component 3 as an Intel 82557 NI) at the given web-load level.
func RunHostLoad(loadPct float64, dur sim.Time) *StreamCurves {
	b := newHostBed(mpeg.GenerateDefault(), figureStreams(), loadPct, producerEvery)
	curves := meteredCurves(loadPct, b.clients)
	b.sys.SampleUtilization(sim.Second, &curves.Util)

	b.eng.RunUntil(dur)
	return curves.collect(dur, b.clients, b.sched.QDelay, b.sched.Sent, b.sched.Dropped)
}

// RunNILoad runs the NI-based-scheduler experiment (Figure 5 with component
// 3 as an i960 RD I2O NI on its own bus segment): the web load hammers the
// host CPU and the web NI's segment while DWCS runs entirely on the card.
func RunNILoad(loadPct float64, dur sim.Time) *StreamCurves {
	eng, sys, webSeg, schedSeg := newNIHost()

	sw := netsim.NewSwitch(eng, "sw0", 90*sim.Microsecond)
	clients := attachClients(eng, sw, figureStreams())
	curves := meteredCurves(loadPct, clients)

	diskCard, ext := newCardPair(eng, schedSeg, sw, 0)
	clip := mpeg.GenerateDefault()
	for _, spec := range figureStreams() {
		if err := ext.AddStream(spec); err != nil {
			panic(err)
		}
		ext.SpawnPeerProducer(diskCard, clip, spec.ID, "client-"+spec.Name, producerEvery, 1<<30)
	}
	startNIWebLoad(eng, sys, webSeg, loadPct)
	sys.SampleUtilization(sim.Second, &curves.Util)

	eng.RunUntil(dur)
	return curves.collect(dur, clients, ext.QDelay, ext.Sent, ext.Dropped)
}

func loadName(pct float64) string {
	if pct == 0 {
		return "no web load"
	}
	return fmt.Sprintf("%.0f%% util", pct)
}

// HostFigures bundles the three host-scheduler runs shared by Figures 6–8.
type HostFigures struct {
	Dur  sim.Time
	Runs map[float64]*StreamCurves // keyed by load percent
}

// RunHostFigures executes the no-load, 45% and 60% runs once. The three
// load points are independent simulations (each RunHostLoad builds its own
// engine and RNG), so they fan out across the worker pool; results are
// keyed deterministically regardless of completion order.
func RunHostFigures(dur sim.Time) *HostFigures {
	pcts := []float64{0, 45, 60}
	jobs := make([]func() *StreamCurves, len(pcts))
	for i, pct := range pcts {
		jobs[i] = func() *StreamCurves { return RunHostLoad(pct, dur) }
	}
	runs := Collect(jobs)
	h := &HostFigures{Dur: dur, Runs: map[float64]*StreamCurves{}}
	for i, pct := range pcts {
		h.Runs[pct] = runs[i]
	}
	return h
}

// Figure6 reports CPU utilization under the three load profiles.
func (h *HostFigures) Figure6() *Result {
	res := &Result{ID: "Figure 6", Title: "CPU utilization variation with server load"}
	res.Add("mean util, no web load", "%", 15, h.Runs[0].Util.Mean())
	res.Add("peak util, no web load", "%", 35, h.Runs[0].Util.Max())
	res.Add("mean util, 45% profile", "%", 45, h.Runs[45].Util.Mean())
	res.Add("mean util, 60% profile", "%", 60, h.Runs[60].Util.Mean())
	res.Add("peak util, 60% profile", "%", 85, h.Runs[60].Util.Max())
	return res
}

// Figure7 reports per-stream settling bandwidth under load. Loaded rows
// are measured during the high-load phase, as in the paper's plots.
func (h *HostFigures) Figure7() *Result {
	from, to := PeakWindow(h.Dur)
	res := &Result{ID: "Figure 7", Title: "Host-based scheduler: bandwidth variation with load"}
	res.Add("s1 settling bw, no web load", "bps", 250_000, h.Runs[0].SettleBW("s1", h.Dur))
	res.Add("s1 settling bw, 45% util", "bps", 230_000, h.Runs[45].SettleBWWindow("s1", from, to))
	res.Add("s1 settling bw, 60% util", "bps", 125_000, h.Runs[60].SettleBWWindow("s1", from, to))
	res.Add("s2 settling bw, no web load", "bps", 250_000, h.Runs[0].SettleBW("s2", h.Dur))
	res.Add("s2 settling bw, 60% util", "bps", 125_000, h.Runs[60].SettleBWWindow("s2", from, to))
	res.Note("dropped frames: %d (no load) → %d (45%%) → %d (60%%)",
		h.Runs[0].Dropped, h.Runs[45].Dropped, h.Runs[60].Dropped)
	return res
}

// Figure8 reports queuing delay growth under load.
func (h *HostFigures) Figure8() *Result {
	res := &Result{ID: "Figure 8", Title: "Host-based scheduler: queuing delay vs frames sent"}
	res.Add("s1 max queuing delay, no web load", "ms", 10_000,
		h.Runs[0].QDelay["s1"].Max().Milliseconds())
	res.Add("s1 max queuing delay, 45% util", "ms", 12_000,
		h.Runs[45].QDelay["s1"].Max().Milliseconds())
	res.Add("s1 max queuing delay, 60% util", "ms", 30_000,
		h.Runs[60].QDelay["s1"].Max().Milliseconds())
	return res
}

// NIFigures bundles the NI-scheduler runs shared by Figures 9 and 10.
type NIFigures struct {
	Dur      sim.Time
	NoLoad   *StreamCurves
	Loaded60 *StreamCurves
}

// RunNIFigures executes the unloaded and 60%-loaded NI runs, fanned across
// the worker pool.
func RunNIFigures(dur sim.Time) *NIFigures {
	runs := Collect([]func() *StreamCurves{
		func() *StreamCurves { return RunNILoad(0, dur) },
		func() *StreamCurves { return RunNILoad(60, dur) },
	})
	return &NIFigures{Dur: dur, NoLoad: runs[0], Loaded60: runs[1]}
}

// Figure9 reports the NI scheduler's bandwidth immunity to host load.
func (f *NIFigures) Figure9() *Result {
	res := &Result{ID: "Figure 9", Title: "NI bandwidth distribution: unaffected by system load"}
	res.Add("s1 settling bw, no web load", "bps", 260_000, f.NoLoad.SettleBW("s1", f.Dur))
	res.Add("s1 settling bw, 60% util", "bps", 260_000, f.Loaded60.SettleBW("s1", f.Dur))
	res.Add("s2 settling bw, 60% util", "bps", 250_000, f.Loaded60.SettleBW("s2", f.Dur))
	delta := f.Loaded60.SettleBW("s1", f.Dur) - f.NoLoad.SettleBW("s1", f.Dur)
	res.Note("load-induced change in s1 bandwidth: %+.0f bps (paper: none)", delta)
	res.Note("frames dropped under 60%% load: %d (paper: none)", f.Loaded60.Dropped)
	return res
}

// JitterComparison reproduces the §4.2.3 delay-jitter claim: the host
// scheduler's frame inter-arrival variability grows with load ("variation
// in the rate at which the scheduler receives CPU may increase delay-jitter
// already experienced by frames") while the NI scheduler's stays uniform.
func JitterComparison(h *HostFigures, n *NIFigures) *Result {
	res := &Result{ID: "Jitter", Title: "Delay-jitter at the client (§4.2.3)"}
	res.Add("host s1 jitter, no web load", "ms", 0, h.Runs[0].Jitter["s1"].Milliseconds())
	res.Add("host s1 jitter, 45% util", "ms", 0, h.Runs[45].Jitter["s1"].Milliseconds())
	res.Add("host s1 jitter, 60% util", "ms", 0, h.Runs[60].Jitter["s1"].Milliseconds())
	res.Add("NI s1 jitter, no web load", "ms", 0, n.NoLoad.Jitter["s1"].Milliseconds())
	res.Add("NI s1 jitter, 60% util", "ms", 0, n.Loaded60.Jitter["s1"].Milliseconds())
	res.Note("the paper reports this qualitatively: NI-scheduled streams see " +
		"\"more uniform jitter-delay variation\" regardless of host load")
	return res
}

// Figure10 reports the NI scheduler's queuing delay immunity.
func (f *NIFigures) Figure10() *Result {
	res := &Result{ID: "Figure 10", Title: "NI queuing delay: unaffected by system load"}
	res.Add("s1 max queuing delay, no web load", "ms", 11_000,
		f.NoLoad.QDelay["s1"].Max().Milliseconds())
	res.Add("s1 max queuing delay, 60% util", "ms", 11_000,
		f.Loaded60.QDelay["s1"].Max().Milliseconds())
	res.Add("s2 max queuing delay, 60% util", "ms", 11_000,
		f.Loaded60.QDelay["s2"].Max().Milliseconds())
	return res
}
