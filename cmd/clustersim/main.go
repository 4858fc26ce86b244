// Command clustersim drives the scalable-server architecture of §6 and the
// paper's future-work study: bandwidth allocation for a large number of
// streams across scheduler and producer NIs.
//
// Usage:
//
//	clustersim -streams 40                     # admit, stream, report
//	clustersim -nodes 4 -schedulers 3 -streams 200
//	clustersim -sweep                          # capacity/goodput vs demand
//	clustersim -overload                       # arm per-card overload control
//	clustersim -telemetry                      # instrument the run; write
//	                                           # trace/metrics artifacts
//	clustersim -slo                            # per-card SLO monitors and a
//	                                           # health table
//	clustersim -fleet -cards 64 -workers 8     # partitioned multi-card fleet
//	                                           # on the parallel engine;
//	                                           # artifacts are byte-identical
//	                                           # at any -workers count
//	clustersim -fleet-chaos                    # correlated failure domains on
//	                                           # the fleet: host crashes, switch
//	                                           # partitions, rolling drains, and
//	                                           # live stream migration; same
//	                                           # byte-identical contract
//	clustersim -fleet-chaos -chaos-sweep       # severity × fleet-size recovery
//	                                           # table
//	clustersim -fleet-obs -cards 64            # in-band observability plane
//	                                           # over the chaos fleet: DVCM
//	                                           # metric scraping, fleet rollups,
//	                                           # merged incident timeline, and
//	                                           # cross-migration trace stitching;
//	                                           # same byte-identical contract
//	clustersim -ctrl-chaos -dur 8              # replicated DVCM control plane
//	                                           # under controller faults: the
//	                                           # primary is killed mid-migration
//	                                           # and the replica pair is split;
//	                                           # the standby fences the fleet,
//	                                           # reconciles its journal, and
//	                                           # takes over; same byte-identical
//	                                           # contract
//
// The -fleet* and -ctrl-chaos scenarios are one per run: two of them,
// -fleet-out with -chaos-sweep, -chaos-sweep without -fleet-chaos, or
// -fleet-out without a scenario is a usage error (exit 2). -cpuprofile and
// -memprofile are complete on every way out.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dwcs"
	"repro/internal/experiments"
	"repro/internal/fixed"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/profiling"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

func main() {
	nodes := flag.Int("nodes", 1, "cluster nodes")
	segments := flag.Int("segments", 2, "PCI segments per node")
	schedulers := flag.Int("schedulers", 2, "scheduler NIs per node")
	producers := flag.Int("producers", 2, "producer NIs per node")
	streams := flag.Int("streams", 16, "streams to request")
	periodMs := flag.Int("period", 160, "stream period (ms)")
	frame := flag.Int64("frame", 5000, "nominal frame bytes")
	durSec := flag.Int("dur", 30, "streaming duration (seconds)")
	sweep := flag.Bool("sweep", false, "sweep requested stream count and report capacity")
	overloadOn := flag.Bool("overload", false, "arm overload protection on every scheduler NI")
	telemetryOn := flag.Bool("telemetry", false, "instrument the run and write observability artifacts")
	telemetryOut := flag.String("telemetry-out", "telemetry-out", "directory for -telemetry artifacts")
	sloOn := flag.Bool("slo", false, "run an SLO monitor per scheduler NI")
	cards := flag.Int("cards", 8, "card complexes in the fleet (with -fleet)")
	fleetStreams := flag.Int("fleet-streams", 2, "streams sourced per card (with -fleet)")
	workers := flag.Int("workers", 0, "parallel-engine worker pool; 0 = GOMAXPROCS, 1 = sequential")
	fleetOut := flag.String("fleet-out", "", "directory for -fleet artifacts (empty = stdout only)")
	hostCrashes := flag.Int("host-crashes", 0, "host-crash faults to draw (with -fleet-chaos); 0 = default, negative = none")
	netPartitions := flag.Int("net-partitions", 0, "switch-partition faults to draw (with -fleet-chaos); 0 = default, negative = none")
	rollingDrains := flag.Int("rolling-drains", 0, "rolling-drain faults to draw (with -fleet-chaos); 0 = default, negative = none")
	faultSeed := flag.Int64("fault-seed", 0, "chaos plan seed (with -fleet-chaos); 0 = derived from the fleet seed")
	chaosSweep := flag.Bool("chaos-sweep", false, "render the severity × fleet-size recovery table (with -fleet-chaos)")
	ctrlCrashes := flag.Int("ctrl-crashes", 0, "controller-crash faults to draw (with -ctrl-chaos); 0 = default, negative = none")
	ctrlPartitions := flag.Int("ctrl-partitions", 0, "replica-pair partition faults to draw (with -ctrl-chaos); 0 = default, negative = none")
	stressPct := flag.Int("stress-pct", 0, "fill every card's budget to this %% mid-run to exercise scrape shedding (with -fleet-obs); 0 = off")
	// The fleet scenarios are rows of the experiments table, each selected
	// by the flag the row names.
	selected := map[string]*bool{}
	for _, s := range experiments.Scenarios {
		if s.Cmd == "clustersim" {
			selected[s.Name] = flag.Bool(s.Name, false, s.Help)
		}
	}
	cpuProfile, memProfile := profiling.Flags()
	flag.Parse()
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		os.Exit(1)
	}
	// Every way out goes through exit, so the profiles are complete.
	exit := profiling.Exit("clustersim", stopProfiles)
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		exit(1)
	}
	experiments.DefaultWorkers = *workers

	var picked []experiments.Scenario
	for _, s := range experiments.Scenarios {
		if on := selected[s.Name]; on != nil && *on {
			picked = append(picked, s)
		}
	}
	// Combinations that would run something other than what was asked: two
	// scenarios (the first would win), an artifact directory for the sweep,
	// which writes none, and a sweep or an artifact directory with no
	// scenario to apply to (the default mode would run and ignore it).
	var misuse string
	switch {
	case len(picked) > 1:
		misuse = fmt.Sprintf("-%s and -%s: pick one scenario", picked[0].Name, picked[1].Name)
	case *chaosSweep && *fleetOut != "":
		misuse = "-chaos-sweep prints one table and writes no artifacts; drop -fleet-out"
	case *chaosSweep && (len(picked) == 0 || picked[0].Name != "fleet-chaos"):
		misuse = "-chaos-sweep is the -fleet-chaos recovery table; add -fleet-chaos"
	case *fleetOut != "" && len(picked) == 0:
		misuse = "-fleet-out holds a scenario's artifacts; pick one of the -fleet* or -ctrl-chaos scenarios"
	}
	if misuse != "" {
		fmt.Fprintln(os.Stderr, "clustersim:", misuse)
		flag.Usage()
		exit(2)
	}
	if len(picked) == 1 {
		s := picked[0]
		if *chaosSweep {
			fmt.Print(experiments.FleetChaosSweep(*workers))
			exit(0)
		}
		// Everything on stdout and under -fleet-out is byte-identical at
		// any -workers count; engine diagnostics go to stderr.
		err := s.RunTo(cluster.FleetConfig{
			Cards: *cards, StreamsPerCard: *fleetStreams,
			Dur: sim.Time(*durSec) * sim.Second, Workers: *workers,
			HostCrashes: *hostCrashes, NetPartitions: *netPartitions,
			RollingDrains: *rollingDrains, FaultSeed: *faultSeed,
			CtrlCrashes: *ctrlCrashes, CtrlPartitions: *ctrlPartitions,
			StressPct: *stressPct,
		}, *fleetOut, os.Stdout, os.Stderr)
		if err != nil {
			fail(err)
		}
		exit(0)
	}

	cfgs := make([]cluster.NodeConfig, *nodes)
	for i := range cfgs {
		cfgs[i] = cluster.NodeConfig{
			Name:         fmt.Sprintf("node%d", i),
			Segments:     *segments,
			SchedulerNIs: *schedulers,
			ProducerNIs:  *producers,
		}
	}
	req := cluster.StreamRequest{
		Name:       "s",
		Period:     sim.Time(*periodMs) * sim.Millisecond,
		FrameBytes: *frame,
		Loss:       fixed.New(1, 2),
		Lossy:      true,
	}

	if *sweep {
		runSweep(cfgs, req)
		exit(0)
	}

	eng := sim.NewEngine(7)
	c := cluster.New(eng, cfgs)
	if *overloadOn {
		c.EnableOverload()
	}
	var reg *telemetry.Registry
	if *telemetryOn {
		reg = telemetry.New()
		c.Instrument(reg)
		reg.SnapshotEvery(eng, sim.Second)
	}
	clip, err := mpeg.Generate(mpeg.GenConfig{
		Frames: 151, FPS: 30, GOPPattern: "IBBPBBPBB",
		MeanFrame: *frame, Seed: 1960,
	})
	if err != nil {
		fail(err)
	}

	type placed struct {
		p  *cluster.Placement
		cl *netsim.Client
	}
	dur := sim.Time(*durSec) * sim.Second
	var admitted []placed
	for i := 0; i < *streams; i++ {
		r := req
		r.Name = fmt.Sprintf("s%d", i)
		p, err := c.Admit(r)
		if err != nil {
			fmt.Printf("stream %d rejected: %v\n", i, err)
			break
		}
		cl := c.AttachClient(p)
		c.Start(p, clip, req.Period/2, 1<<30)
		admitted = append(admitted, placed{p, cl})
	}

	// Per-card SLO monitors: each card's monitor reads burn rates off the
	// DWCS loss windows of the streams placed on it. Stats freeze at the last
	// observed value when a stream leaves the card (revocation), so the
	// windows stay monotone.
	var sloMons map[string]*slo.Monitor
	if *sloOn {
		sloMons = make(map[string]*slo.Monitor)
		for _, a := range admitted {
			p := a.p
			m := sloMons[p.Scheduler.Card.Name]
			if m == nil {
				m = slo.NewMonitor(p.Scheduler.Card.Name, slo.Config{})
				m.Start(eng)
				sloMons[p.Scheduler.Card.Name] = m
			}
			m.TrackStream(dwcs.StreamSpec{
				ID: p.StreamID, Name: p.Req.Name, Loss: p.Req.Loss,
			}, 2*p.Req.Period, p.Scheduler.Ext.Sched)
		}
	}

	eng.RunUntil(dur)
	for _, m := range sloMons {
		m.Stop()
	}

	fmt.Printf("admitted %d/%d streams across %d node(s)\n", len(admitted), *streams, *nodes)
	var totalBytes, totalLate int64
	for _, a := range admitted {
		totalBytes += a.cl.RecvBytes
		totalLate += a.cl.Late
	}
	fmt.Printf("aggregate goodput: %.1f kbps, late frames: %d\n",
		float64(totalBytes*8)/dur.Seconds()/1000, totalLate)
	for _, n := range c.Nodes {
		for _, s := range n.Schedulers {
			st := s.Ext
			verdict := "—"
			if rep, err := s.Feasibility(); err == nil {
				verdict = fmt.Sprintf("qos: link %.1f%% cpu %.1f%%", 100*rep.LinkUtilization, 100*rep.CPUUtilization)
			} else {
				verdict = "qos: " + err.Error()
			}
			fmt.Printf("  %-16s streams=%d cpu=%.0f%% link=%.0f%% sent=%d dropped=%d  [%s]\n",
				s.Card.Name, s.Streams(), s.CPULoad()*100, s.LinkLoad()*100, st.Sent, st.Dropped, verdict)
		}
	}

	if *overloadOn {
		fmt.Println("overload pressure per scheduler NI:")
		for _, n := range c.Nodes {
			for _, s := range n.Schedulers {
				ctl := s.Overload
				if ctl == nil {
					continue
				}
				b := ctl.Budget
				fmt.Printf("  %-16s rung=%-7s used=%d/%d peak=%d rejects=%d breaches=%d shed=%d dropB=%d dropP=%d revoked=%d reinstated=%d\n",
					s.Card.Name, ctl.Ladder.Rung(), b.Used(), b.Size(), b.Peak(),
					b.Rejects, b.Breaches, ctl.ShedTolerantFrames, ctl.ShedBFrames,
					ctl.ShedPFrames, ctl.Revoked, ctl.Reinstated)
			}
		}
	}

	if *sloOn {
		fmt.Println("SLO health per scheduler NI:")
		names := make([]string, 0, len(sloMons))
		for name := range sloMons {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Print(sloMons[name].Table())
		}
	}

	if reg != nil {
		if err := (experiments.Output{Files: experiments.RegistryFiles(reg)}).WriteDir(*telemetryOut); err != nil {
			fail(err)
		}
		fmt.Print(reg.Spans.StageTable())
		fmt.Printf("telemetry artifacts written to %s (%d components, %d spans, %d snapshots)\n",
			*telemetryOut, len(reg.Components()), reg.Spans.Len(), reg.Snapshots())
	}
	exit(0)
}

func runSweep(cfgs []cluster.NodeConfig, req cluster.StreamRequest) {
	// Each sweep cell binary-searches admission on a private cluster; fan
	// the grid across the worker pool and print rows in grid order.
	type cell struct {
		periodMs int
		frame    int64
	}
	var cells []cell
	for _, periodMs := range []int{40, 80, 160, 320} {
		for _, frame := range []int64{1500, 5000, 15000} {
			cells = append(cells, cell{periodMs, frame})
		}
	}
	jobs := make([]func() int, len(cells))
	for i, c := range cells {
		c := c
		jobs[i] = func() int {
			r := req
			r.Period = sim.Time(c.periodMs) * sim.Millisecond
			r.FrameBytes = c.frame
			return cluster.Capacity(cfgs, r)
		}
	}
	caps := experiments.Collect(jobs)
	fmt.Println("period_ms  frame_B  capacity(streams)  committed_bw_kbps")
	for i, c := range cells {
		n := caps[i]
		bw := float64(n) * float64(c.frame*8) / (float64(c.periodMs) / 1000) / 1000
		fmt.Printf("%9d  %7d  %17d  %17.0f\n", c.periodMs, c.frame, n, bw)
	}
}
