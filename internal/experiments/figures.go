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

// RunHostLoad runs the host-based-scheduler experiment (Figure 5 with
// component 3 as an Intel 82557 NI) at the given web-load level.
func RunHostLoad(loadPct float64, dur sim.Time) *StreamCurves {
	eng := sim.NewEngine(42)
	sys := hostos.New(eng, 2, 15*sim.Millisecond)
	webload.Daemons(eng, sys)

	sw := netsim.NewSwitch(eng, "sw0", 90*sim.Microsecond)
	curves := &StreamCurves{
		Load:   loadName(loadPct),
		BW:     make(map[string]*stats.Series),
		QDelay: make(map[string]*stats.DelayTracker),
		Jitter: make(map[string]sim.Time),
	}
	var clients []*netsim.Client
	for _, spec := range figureStreams() {
		cl := netsim.NewClient(eng, "client-"+spec.Name)
		cl.BW = stats.NewBandwidthMeter(spec.Name, bwWindow)
		sw.Attach(cl.Name, netsim.Fast100(eng, "sw-"+cl.Name, cl))
		clients = append(clients, cl)
	}
	link := netsim.Fast100(eng, "host-eth", sw)

	sched := host.NewScheduler(eng, sys, link, host.SchedulerConfig{
		CPU:           0, // pbind to processor 0
		EligibleEarly: eligibleEarly,
	})
	clip := mpeg.GenerateDefault()
	for _, spec := range figureStreams() {
		if err := sched.AddStream(spec, "client-"+spec.Name); err != nil {
			panic(err)
		}
		host.StartProducer(eng, sys, sched, host.ProducerConfig{
			Clip: clip, StreamID: spec.ID, Every: producerEvery,
			PerFrameCPU: producerFrameCPU, CPU: hostos.AnyCPU, Loop: true,
		})
	}
	if loadPct > 0 {
		// The paper's load levels are *total* utilization including the
		// streaming workload's own ~15%; the web generator supplies the
		// remainder.
		webPct := loadPct - baselineUtilPct
		if webPct < 0 {
			webPct = 0
		}
		webload.NewGenerator(eng, sys, webload.TargetUtilization(curves.Load, webPct, 2)).Start()
	}
	sys.SampleUtilization(sim.Second, &curves.Util)

	eng.RunUntil(dur)
	for i, spec := range figureStreams() {
		clients[i].BW.FlushUntil(dur)
		curves.BW[spec.Name] = &clients[i].BW.Series
		curves.QDelay[spec.Name] = sched.QDelay[spec.ID]
		curves.Jitter[spec.Name] = clients[i].Jitter()
	}
	curves.Sent = sched.Sent
	curves.Dropped = sched.Dropped
	return curves
}

// RunNILoad runs the NI-based-scheduler experiment (Figure 5 with component
// 3 as an i960 RD I2O NI on its own bus segment): the web load hammers the
// host CPU and the web NI's segment while DWCS runs entirely on the card.
// sameSegment moves the web NI onto the scheduler's bus segment — the
// configuration the paper avoids — for the ablation benchmark.
func RunNILoad(loadPct float64, dur sim.Time, sameSegment bool) *StreamCurves {
	eng := sim.NewEngine(42)
	defer eng.Close()
	sys := hostos.New(eng, 1, 10*sim.Millisecond) // one CPU online (§4.2.3)
	webload.Daemons(eng, sys)

	seg0 := bus.New(eng, bus.PCI("pci0")) // web NI segment
	seg1 := bus.New(eng, bus.PCI("pci1")) // scheduler segment
	schedSeg := seg1
	webSeg := seg0
	if sameSegment {
		webSeg = seg1
	}

	sw := netsim.NewSwitch(eng, "sw0", 90*sim.Microsecond)
	curves := &StreamCurves{
		Load:   loadName(loadPct),
		BW:     make(map[string]*stats.Series),
		QDelay: make(map[string]*stats.DelayTracker),
		Jitter: make(map[string]sim.Time),
	}
	var clients []*netsim.Client
	for _, spec := range figureStreams() {
		cl := netsim.NewClient(eng, "client-"+spec.Name)
		cl.BW = stats.NewBandwidthMeter(spec.Name, bwWindow)
		sw.Attach(cl.Name, netsim.Fast100(eng, "sw-"+cl.Name, cl))
		clients = append(clients, cl)
	}

	// Disk card sources frames; dedicated scheduler card (cache enabled, no
	// disk) schedules and transmits — the paper's preferred split (§4.2).
	diskCard := nic.New(eng, nic.Config{Name: "ni-disk", PCI: schedSeg})
	d := disk.New(eng, disk.DefaultSCSI("ni-disk0"))
	diskCard.AttachDisk(d, disk.NewDOSFS(d))
	schedCard := nic.New(eng, nic.Config{Name: "ni-sched", PCI: schedSeg, CacheOn: true})
	schedCard.ConnectEthernet(netsim.Fast100(eng, "ni-sched-eth", sw))

	ext, err := schedCard.LoadScheduler(nic.SchedulerConfig{EligibleEarly: eligibleEarly})
	if err != nil {
		panic(err)
	}
	clip := mpeg.GenerateDefault()
	for _, spec := range figureStreams() {
		if err := ext.AddStream(spec); err != nil {
			panic(err)
		}
		ext.SpawnPeerProducer(diskCard, clip, spec.ID, "client-"+spec.Name, producerEvery, 1<<30)
	}

	if loadPct > 0 {
		g := webload.NewGenerator(eng, sys, webload.TargetUtilization(curves.Load, loadPct, 1))
		g.Start()
		// Web responses DMA across the web NI's bus segment.
		eng.Every(250*sim.Millisecond, func() {
			webSeg.DMA(64<<10, nil)
		})
	}
	sys.SampleUtilization(sim.Second, &curves.Util)

	eng.RunUntil(dur)
	for i, spec := range figureStreams() {
		clients[i].BW.FlushUntil(dur)
		curves.BW[spec.Name] = &clients[i].BW.Series
		curves.QDelay[spec.Name] = ext.QDelay[spec.ID]
		curves.Jitter[spec.Name] = clients[i].Jitter()
	}
	curves.Sent = ext.Sent
	curves.Dropped = ext.Dropped
	return curves
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
		pct := pct
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
		func() *StreamCurves { return RunNILoad(0, dur, false) },
		func() *StreamCurves { return RunNILoad(60, dur, false) },
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
