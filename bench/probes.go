package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/blackbox"
	"repro/internal/bus"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/dvcmnet"
	"repro/internal/dwcs"
	"repro/internal/experiments"
	"repro/internal/fixed"
	"repro/internal/fleetobs"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/overload"
	"repro/internal/proto"
	"repro/internal/rundiff"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// probeBudget is how long each layer probe times its loop: long enough for a
// stable mean of a sub-microsecond operation, short enough that eighty
// probes fit in a traced run.
const probeBudget = 40 * time.Millisecond

// prober times calls into each layer's exported functions from outside, at
// the shapes the workloads use. Each probe is a span of the trace and one
// per-layer metric.
type prober struct {
	m      *measured
	tr     *tracer
	env    environment
	scale  int // >1 shrinks budgets and shapes for the smoke test
	outDir string
}

// perOp repeats batch, which performs some operations of one layer and
// returns how many and how long they took, until the budget is spent, and
// returns the mean ns per operation. At full scale the first batch only
// warms up.
func (p *prober) perOp(batch func() (ops int, took time.Duration)) float64 {
	if p.scale == 1 {
		batch()
	}
	var ops int
	var took time.Duration
	for ops == 0 || took < probeBudget/time.Duration(p.scale) {
		n, d := batch()
		ops, took = ops+n, took+d
	}
	return float64(took.Nanoseconds()) / float64(ops)
}

func (p *prober) probe(name string, fn func() float64) {
	p.tr.do("probe."+name, func() { p.m.set(name, fn()) })
}

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// ms converts a per-operation figure in ns to ms.
func ms(ns float64) float64 { return ns / 1e6 }

// all fills in every per-layer metric that does not depend on which
// workload is being traced.
func (p *prober) all() error {
	p.sim()
	p.dwcs()
	p.substrates()
	p.observability()
	p.wire()
	if err := p.rundiff(); err != nil {
		return err
	}
	p.tr.do("probe.cluster", p.cluster)
	return nil
}

// ---- sim ----

func (p *prober) sim() {
	// engineLoop keeps depth events outstanding; every fired event schedules
	// its successor, as producers, meters and timers do.
	engineLoop := func(depth int) func() (int, time.Duration) {
		return func() (int, time.Duration) {
			events := 200_000 / p.scale
			e := sim.NewEngine(1)
			fired := 0
			var again func()
			again = func() {
				fired++
				e.After(sim.Time(1+fired%97)*sim.Microsecond, again)
			}
			for i := 0; i < depth; i++ {
				e.After(sim.Time(1+i%97)*sim.Microsecond, again)
			}
			return events, timed(func() {
				for fired < events {
					e.Step()
				}
			})
		}
	}
	p.probe("sim.engine_ns_per_event", func() float64 { return p.perOp(engineLoop(64)) })
	p.probe("sim.engine_ns_per_event_deep", func() float64 { return p.perOp(engineLoop(4096)) })
	p.probe("sim.engine_allocs_per_event", func() float64 {
		e := sim.NewEngine(1)
		fn := func() {}
		return testing.AllocsPerRun(10_000, func() {
			e.After(sim.Microsecond, fn)
			e.Step()
		})
	})

	// fleetTopology wires 1 controller + 64 card partitions as the fleet
	// does, with an empty 1 ms handler per partition.
	const lookahead = 5 * sim.Millisecond
	rounds := func(workers int) float64 {
		t := sim.NewTopology(1)
		t.Workers = workers
		ctrl := t.AddPartition("dvcm")
		parts := make([]*sim.Partition, fleetCards)
		for i := range parts {
			parts[i] = t.AddPartition(fmt.Sprintf("card%02d", i))
			parts[i].Eng().Every(sim.Millisecond, func() {})
		}
		for i, part := range parts {
			must(t.Connect(part, parts[(i+1)%len(parts)], lookahead))
			must(t.Connect(ctrl, part, lookahead))
			must(t.Connect(part, ctrl, lookahead))
		}
		end := sim.Time(0)
		return p.perOp(func() (int, time.Duration) {
			before := t.Rounds
			end += sim.Second
			d := timed(func() { t.RunUntil(end) })
			return int(t.Rounds - before), d
		})
	}
	p.probe("sim.topology_ns_per_round", func() float64 { return rounds(1) })
	p.probe("sim.topology_ns_per_round_par", func() float64 { return rounds(p.env.W) })
	p.probe("sim.topology_ns_per_msg", func() float64 {
		t := sim.NewTopology(1)
		t.Workers = 1
		a, b := t.AddPartition("a"), t.AddPartition("b")
		must(t.Connect(a, b, sim.Millisecond))
		must(t.Connect(b, a, sim.Millisecond))
		msgs := 0
		var ping, pong func()
		ping = func() { msgs++; a.Send(b, sim.Millisecond, pong) }
		pong = func() { msgs++; b.Send(a, sim.Millisecond, ping) }
		a.Eng().After(0, ping)
		end := sim.Time(0)
		return p.perOp(func() (int, time.Duration) {
			before := msgs
			end += 10 * sim.Second
			d := timed(func() { t.RunUntil(end) })
			return msgs - before, d
		})
	})
}

func must(err error) {
	if err != nil {
		panic(err) // a wiring mistake in the bench itself
	}
}

// ---- dwcs ----

// daemonScheduler builds a scheduler configured as dwcsd configures it, on a
// clock the probe advances by hand, with n streams.
func daemonScheduler(sel dwcs.SelectorKind, n, bufCap int, clock *sim.Time) *dwcs.Scheduler {
	period := sim.Time(daemonPeriod)
	s := dwcs.New(dwcs.Config{
		Now: func() sim.Time { return *clock }, Selector: sel, EligibleEarly: period / 4,
	})
	for i := 0; i < n; i++ {
		must(s.AddStream(dwcs.StreamSpec{ID: i, Name: fmt.Sprintf("s%d", i), Period: period,
			Loss: fixed.New(1, 2), Lossy: true, BufCap: bufCap}))
	}
	return s
}

func (p *prober) dwcs() {
	period := sim.Time(daemonPeriod)
	// decisions replays the daemon's burst: every period each of n
	// backlogged streams has one frame come eligible, and n Schedule calls
	// drain them before the clock moves on.
	decisions := func(sel dwcs.SelectorKind, n int) func() (int, time.Duration) {
		rounds := max(2048/n, 1) // a batch stays near two thousand decisions
		var clock sim.Time
		s := daemonScheduler(sel, n, rounds, &clock)
		drained := 0 // rounds served so far: every stream's last deadline is drained·period
		return func() (int, time.Duration) {
			clock = sim.Time(drained) * period
			for r := 0; r < rounds; r++ {
				for i := 0; i < n; i++ {
					must(s.Enqueue(i, dwcs.Packet{Bytes: 4000}))
				}
			}
			served := 0
			d := timed(func() {
				for r := 1; r <= rounds; r++ {
					clock = sim.Time(drained+r)*period - period/4
					for s.Schedule().Packet != nil {
						served++
					}
				}
			})
			if served != rounds*n {
				panic(fmt.Sprintf("dwcs probe served %d of %d", served, rounds*n))
			}
			drained += rounds
			return served, d
		}
	}
	p.probe("dwcs.decision_ns.scan_2", func() float64 { return p.perOp(decisions(dwcs.Scan, 2)) })
	p.probe("dwcs.decision_ns.scan_64", func() float64 { return p.perOp(decisions(dwcs.Scan, pacedStreams)) })
	p.probe("dwcs.decision_ns.scan_256", func() float64 { return p.perOp(decisions(dwcs.Scan, burstStreams)) })
	p.probe("dwcs.decision_ns.heaps_256", func() float64 { return p.perOp(decisions(dwcs.Heaps, 256)) })
	p.probe("dwcs.decision_ns.heaps_4096", func() float64 { return p.perOp(decisions(dwcs.Heaps, 4096)) })
	p.probe("dwcs.enqueue_ns", func() float64 {
		return p.perOp(func() (int, time.Duration) {
			const perStream = 64
			var clock sim.Time
			s := daemonScheduler(dwcs.Scan, pacedStreams, perStream, &clock)
			return pacedStreams * perStream, timed(func() {
				for k := 0; k < perStream; k++ {
					for i := 0; i < pacedStreams; i++ {
						must(s.Enqueue(i, dwcs.Packet{Bytes: 4000}))
					}
				}
			})
		})
	})
	p.probe("dwcs.addremove_ns", func() float64 {
		var clock sim.Time
		s := daemonScheduler(dwcs.Heaps, churnSessions, 16, &clock)
		spec := dwcs.StreamSpec{ID: 1 << 20, Name: "churn", Period: period,
			Loss: fixed.New(1, 2), Lossy: true, BufCap: 16}
		return p.perOp(func() (int, time.Duration) {
			const pairs = 1000
			return pairs, timed(func() {
				for i := 0; i < pairs; i++ {
					must(s.AddStream(spec))
					must(s.RemoveStream(spec.ID))
				}
			})
		})
	})
	p.probe("dwcs.allocs_per_decision", func() float64 {
		var clock sim.Time
		s := daemonScheduler(dwcs.Scan, burstStreams, 4, &clock)
		i := 0
		return testing.AllocsPerRun(10_000, func() {
			must(s.Enqueue(i%burstStreams, dwcs.Packet{Bytes: 4000}))
			clock += period
			s.Schedule()
			i++
		})
	})
}

// ---- nic, netsim, transport, dvcmnet, bus, disk ----

func (p *prober) substrates() {
	clip := mpeg.GenerateDefault()
	p.probe("nic.card_ns_per_frame", func() float64 {
		// One card complex as the fleet builds it: disk on the card (path
		// C), DWCS extension, two 25 fps streams to a client behind a switch.
		return p.perOp(func() (int, time.Duration) {
			eng := sim.NewEngine(1)
			sw := netsim.NewSwitch(eng, "sw", 90*sim.Microsecond)
			card := nic.New(eng, nic.Config{Name: "ni", PCI: bus.New(eng, bus.PCI("pci")), CacheOn: true})
			d := disk.New(eng, disk.DefaultSCSI("scsi"))
			card.AttachDisk(d, disk.NewDOSFS(d))
			card.ConnectEthernet(netsim.Fast100(eng, "eth", sw))
			ext, err := card.LoadScheduler(nic.SchedulerConfig{EligibleEarly: 20 * sim.Millisecond})
			must(err)
			for s := 1; s <= 2; s++ {
				addr := fmt.Sprintf("c%d", s)
				sw.Attach(addr, netsim.Fast100(eng, "rx-"+addr, netsim.NewClient(eng, addr)))
				must(ext.AddStream(dwcs.StreamSpec{ID: s, Name: addr, Period: sim.Time(daemonPeriod),
					Loss: fixed.New(1, 4), Lossy: true, BufCap: 64, NominalBytes: clip.MeanFrameSize()}))
				ext.SpawnLocalProducer(clip, s, addr, sim.Time(daemonPeriod), 1<<30)
			}
			took := timed(func() { eng.RunUntil(sim.Time(scaled(20, p.scale, 2)) * sim.Second) })
			return int(ext.Sent), took
		})
	})
	p.probe("netsim.ns_per_packet", func() float64 {
		eng := sim.NewEngine(1)
		sw := netsim.NewSwitch(eng, "sw", 90*sim.Microsecond)
		sw.Attach("c", netsim.Fast100(eng, "rx", netsim.NewClient(eng, "c")))
		up := netsim.Fast100(eng, "up", sw)
		return p.perOp(func() (int, time.Duration) {
			const packets = 2000
			return packets, timed(func() {
				for i := 0; i < packets; i++ {
					up.Send(&netsim.Packet{Dst: "c", Bytes: 4000}, nil)
				}
				eng.Run()
			})
		})
	})
	p.probe("transport.ns_per_segment", func() float64 {
		eng := sim.NewEngine(1)
		var snd *transport.Sender
		sink := netsim.PortFunc(func(*netsim.Packet) {})
		ack := netsim.Fast100(eng, "ack", netsim.PortFunc(func(p *netsim.Packet) { snd.Deliver(p) }))
		data := netsim.Fast100(eng, "data", transport.NewReceiver(eng, sink, ack, "snd"))
		snd = transport.NewSender(eng, data, 16, 50*sim.Millisecond)
		return p.perOp(func() (int, time.Duration) {
			const segments = 2000
			return segments, timed(func() {
				for i := 0; i < segments; i++ {
					snd.Send(&netsim.Packet{Bytes: 1400})
				}
				eng.Run()
			})
		})
	})
	p.probe("dvcmnet.ns_per_invoke", func() float64 {
		eng := sim.NewEngine(1)
		sw := netsim.NewSwitch(eng, "san", 90*sim.Microsecond)
		vcm := core.NewVCM("b")
		must(vcm.Register(echoExt{}))
		a := dvcmnet.Attach(eng, sw, "a", nil)
		dvcmnet.Attach(eng, sw, "b", vcm)
		return p.perOp(func() (int, time.Duration) {
			const calls = 1000
			return calls, timed(func() {
				for i := 0; i < calls; i++ {
					a.Invoke("b", core.Instr{Ext: "echo", Op: "echo", Arg: i}, func(any, error) {})
				}
				eng.Run()
			})
		})
	})
	p.probe("bus.ns_per_dma", func() float64 {
		eng := sim.NewEngine(1)
		pci := bus.New(eng, bus.PCI("pci"))
		return p.perOp(func() (int, time.Duration) {
			const dmas = 5000
			return dmas, timed(func() {
				for i := 0; i < dmas; i++ {
					pci.DMA(4000, nil)
				}
				eng.Run()
			})
		})
	})
	p.probe("disk.ns_per_frame_read", func() float64 {
		eng := sim.NewEngine(1)
		d := disk.New(eng, disk.DefaultSCSI("scsi"))
		fs := disk.NewDOSFS(d)
		return p.perOp(func() (int, time.Duration) {
			return len(clip.Frames), timed(func() {
				for _, f := range clip.Frames {
					fs.Read(f.Offset, f.Size, func() {})
				}
				eng.Run()
			})
		})
	})
}

// echoExt is the smallest remote extension a DVCM endpoint can serve.
type echoExt struct{}

func (echoExt) Name() string                          { return "echo" }
func (echoExt) Attach(*core.VCM) error                { return nil }
func (echoExt) Invoke(_ string, arg any) (any, error) { return arg, nil }

// ---- telemetry, blackbox, slo, overload, fleetobs ----

// daemonRegistry builds a registry shaped like the daemon's: three counters
// per stream plus the process-wide ones.
func daemonRegistry(streams int) (*telemetry.Registry, *telemetry.Counter) {
	reg := telemetry.New()
	for i := 0; i < streams; i++ {
		c := fmt.Sprintf("dwcsd_s%d", i)
		reg.Counter(c, "frames_sent_total", "frames paced onto the wire by DWCS")
		reg.Counter(c, "bytes_sent_total", "media bytes paced onto the wire")
		reg.Counter(c, "drops_total", "frames dropped by the scheduler (deadline passed)")
	}
	return reg, reg.Counter("dwcsd", "frames_sent_total", "frames paced onto the wire by DWCS")
}

func (p *prober) observability() {
	spans := 40_000 / p.scale // full scale: two per frame over a 12 s paced run
	fill := func(reg *telemetry.Registry, n int) {
		for i := 0; i < n; i++ {
			at := sim.Time(i) * sim.Microsecond
			reg.Span(i%pacedStreams, int64(i/pacedStreams), telemetry.StageQueue, "dwcsd", at, at+sim.Microsecond)
		}
	}
	p.probe("telemetry.span_ns", func() float64 {
		return p.perOp(func() (int, time.Duration) {
			reg, _ := daemonRegistry(pacedStreams)
			return spans, timed(func() { fill(reg, spans) })
		})
	})
	p.probe("telemetry.counter_ns", func() float64 {
		_, c := daemonRegistry(pacedStreams)
		return p.perOp(func() (int, time.Duration) {
			const incs = 100_000
			return incs, timed(func() {
				for i := 0; i < incs; i++ {
					c.Inc()
				}
			})
		})
	})
	reg, _ := daemonRegistry(pacedStreams)
	fill(reg, spans)
	at := sim.Time(0)
	p.probe("telemetry.snapshot_ms", func() float64 {
		return ms(p.perOp(func() (int, time.Duration) {
			at += sim.Second
			return 1, timed(func() { reg.Snapshot(at) })
		}))
	})
	p.probe("telemetry.prom_render_ms", func() float64 {
		return ms(p.perOp(func() (int, time.Duration) { return 1, timed(func() { reg.PrometheusText() }) }))
	})
	p.probe("telemetry.stagetable_ms", func() float64 {
		return ms(p.perOp(func() (int, time.Duration) { return 1, timed(func() { reg.Spans.StageTable() }) }))
	})

	p.probe("blackbox.record_ns", func() float64 {
		rec, err := blackbox.New(blackbox.Config{Name: "probe"})
		must(err)
		return p.perOp(func() (int, time.Duration) {
			const events = 100_000
			return events, timed(func() {
				for i := 0; i < events; i++ {
					rec.Record(blackbox.Event{At: sim.Time(i), Kind: blackbox.KindDecision, Stream: i % 64, Seq: int64(i), A: 4000})
				}
			})
		})
	})
	p.probe("blackbox.trigger_ms", func() float64 {
		return ms(p.perOp(func() (int, time.Duration) {
			// A recorder keeps few incidents and then only counts, so every
			// timed trigger gets a fresh recorder with a full ring.
			rec, err := blackbox.New(blackbox.Config{Name: "probe"})
			must(err)
			rec.StateFn = reg.ValuesText
			for i := 0; i < rec.Capacity(); i++ {
				rec.Record(blackbox.Event{At: sim.Time(i), Kind: blackbox.KindDecision, Stream: i % 64, Seq: int64(i)})
			}
			return 1, timed(func() { rec.Trigger(sim.Second, "probe") })
		}))
	})
	p.probe("slo.eval_ns_per_stream", func() float64 {
		mon := slo.NewMonitor("probe", slo.Config{})
		var attempts int64
		for i := 0; i < pacedStreams; i++ {
			mon.Track(slo.Objective{Stream: i, Name: fmt.Sprintf("s%d", i), LossTarget: 0.5,
				LatencyTarget: 4 * sim.Time(daemonPeriod)}, func() (int64, int64) { return attempts, attempts / 100 })
		}
		return p.perOp(func() (int, time.Duration) {
			attempts += 12
			return pacedStreams, timed(mon.Eval)
		})
	})
	p.probe("overload.charge_release_ns", func() float64 {
		b := overload.NewBudget("probe", 4<<20)
		return p.perOp(func() (int, time.Duration) {
			const pairs = 100_000
			return pairs, timed(func() {
				for i := 0; i < pairs; i++ {
					if b.Charge(overload.ClassFrameBuf, 4000) == nil {
						b.Release(overload.ClassFrameBuf, 4000)
					}
				}
			})
		})
	})
	p.probe("overload.evaluate_ns", func() float64 {
		ctl := overload.NewController("probe", 4<<20)
		depth := 0
		ctl.Hooks.QueueDepth = func() int { depth = (depth + 7) % 256; return depth }
		return p.perOp(func() (int, time.Duration) {
			const evals = 50_000
			return evals, timed(func() {
				for i := 0; i < evals; i++ {
					ctl.Evaluate()
				}
			})
		})
	})
	p.probe("fleetobs.render_ms", func() float64 {
		cards := make([]fleetobs.CardStat, fleetCards)
		var streams []fleetobs.StreamPressure
		tl := fleetobs.NewTimeline()
		for i := range cards {
			cards[i] = fleetobs.CardStat{Card: i, Host: fmt.Sprintf("h%d", i/4), Switch: fmt.Sprintf("sw%d", i/16),
				Streams: 2, GoodputMB: float64(i), Burn: float64(i%5) / 4, MemPct: float64(i % 90)}
			streams = append(streams, fleetobs.StreamPressure{}, fleetobs.StreamPressure{})
			tl.Add(fleetobs.TimelineEvent{})
		}
		return ms(p.perOp(func() (int, time.Duration) {
			return 1, timed(func() {
				fleetobs.RenderRollup(cards)
				fleetobs.RenderTopK(streams, 10)
				tl.Render()
			})
		}))
	})
}

// rundiff times the run-diff engine over two copies of a diagnostics run's
// artifact directory.
func (p *prober) rundiff() error {
	a := experiments.RunDiagnostics(experiments.DiagnosticsConfig{Dur: 8 * sim.Second})
	dirs := []string{filepath.Join(p.outDir, "rundiff-a"), filepath.Join(p.outDir, "rundiff-b")}
	for _, dir := range dirs {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for name, body := range map[string]string{"stages.txt": a.Stages, "metrics.csv": a.MetricsCSV, "slo.txt": a.SLO} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				return err
			}
		}
	}
	var err error
	p.probe("rundiff.diffdirs_ms", func() float64 {
		return ms(p.perOp(func() (int, time.Duration) {
			return 1, timed(func() {
				if _, derr := rundiff.DiffDirs(dirs[0], dirs[1], rundiff.Options{}); derr != nil {
					err = derr
				}
			})
		}))
	})
	return err
}

// ---- proto, mpeg, host UDP ----

func (p *prober) wire() {
	clip := mpeg.GenerateDefault()
	payload := mpeg.Encode(clip, payloadSeed)
	frame := payload[:clip.MeanFrameSize()]
	p.probe("mpeg.generate_ms", func() float64 {
		return ms(p.perOp(func() (int, time.Duration) {
			return 1, timed(func() { mpeg.Encode(mpeg.GenerateDefault(), payloadSeed) })
		}))
	})
	p.probe("proto.fragment_ns_per_frame", func() float64 {
		return p.perOp(func() (int, time.Duration) {
			const frames = 5000
			return frames, timed(func() {
				for i := 0; i < frames; i++ {
					proto.FragmentFrame(1, uint32(i), frame)
				}
			})
		})
	})
	frags := proto.FragmentFrame(1, 0, frame)
	reasm := proto.NewReassembler(func(uint32, uint32, []byte) {})
	p.probe("proto.reassemble_ns_per_frame", func() float64 {
		return p.perOp(func() (int, time.Duration) {
			const frames = 5000
			return frames, timed(func() {
				for i := 0; i < frames; i++ {
					for _, f := range frags {
						_ = reasm.Ingest(f) // the fragments are well-formed by construction
					}
				}
			})
		})
	})
	p.probe("proto.allocs_per_frame", func() float64 {
		return testing.AllocsPerRun(2000, func() {
			for _, f := range proto.FragmentFrame(1, 0, frame) {
				_ = reasm.Ingest(f)
			}
		})
	})
	p.probe("host.udp_write_ns_per_datagram", func() float64 {
		// The syscall floor: loopback Write from the bench, the receiving
		// socket drained between batches so it never overflows.
		rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		must(err)
		defer rx.Close()
		_, err = setRcvBuf(rx, wantRcvBuf)
		must(err)
		tx, err := net.Dial("udp", rx.LocalAddr().String())
		must(err)
		defer tx.Close()
		buf := make([]byte, 64<<10)
		return p.perOp(func() (int, time.Duration) {
			const datagrams = 500
			d := timed(func() {
				for i := 0; i < datagrams; i++ {
					if _, err := tx.Write(frags[0]); err != nil {
						panic(err)
					}
				}
			})
			for i := 0; i < datagrams; i++ {
				rx.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
				if _, err := rx.Read(buf); err != nil {
					break
				}
			}
			return datagrams, d
		})
	})
	p.m.note("probe_frame_bytes", "%d", len(frame))
}

// ---- cluster ----

// cluster runs the fleet at short shapes for the figures that compare two
// fleet runs: ratios to read beside the end-to-end numbers, not gates.
func (p *prober) cluster() {
	m, env := p.m, p.env
	short, long := scaled(10, p.scale, 2), scaled(40, p.scale, 4)
	cards, rounds := scaled(fleetCards, p.scale, 8), 3
	if p.scale > 1 {
		rounds = 1
	}
	// Every fleet run here is on one P, as the sequential workloads are,
	// except the two that measure what more Ps do.
	nproc := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(nproc)
	fleet := func(simSec, workers, procs int, mono bool) (fps float64, r *cluster.FleetResult) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		runtime.GC()
		took := timed(func() {
			r = cluster.RunFleet(cluster.FleetConfig{Cards: cards, StreamsPerCard: fleetPerCard,
				Dur: sim.Time(simSec) * sim.Second, Workers: workers, Monolithic: mono})
		})
		return float64(r.TotalRecv) / took.Seconds(), r
	}
	m.set("cluster.fleet_build_ms", ms(p.perOp(func() (int, time.Duration) {
		return 1, timed(func() {
			cluster.RunFleet(cluster.FleetConfig{Cards: cards, StreamsPerCard: fleetPerCard,
				Dur: sim.Millisecond, Workers: 1})
		})
	})))
	// Three interleaved rounds; each figure is a ratio of medians.
	var seq, par, multiP, longRun, mono, obs []float64
	var windows int64
	for i := 0; i < rounds; i++ {
		fps, r := fleet(short, 1, 1, false)
		seq, windows = append(seq, fps), r.Rounds
		fps, _ = fleet(short, env.W, env.W, false)
		par = append(par, fps)
		fps, _ = fleet(short, 1, nproc, false)
		multiP = append(multiP, fps)
		fps, _ = fleet(long, 1, 1, false)
		longRun = append(longRun, fps)
		fps, _ = fleet(max(short/3, 1), 1, 1, true)
		mono = append(mono, fps)
		runtime.GC()
		var recv int64
		took := timed(func() {
			a := experiments.RunFleetObs(experiments.FleetObsConfig{Cards: cards,
				Dur: sim.Time(max(short, 6)) * sim.Second, Workers: 1})
			recv = a.Chaos.Recv
		})
		obs = append(obs, float64(recv)/took.Seconds())
	}
	m.set("sim.topology_rounds", float64(windows))
	m.set("sim.par_speedup", median(par)/median(seq))
	m.set("sim.multi_p_cost", median(seq)/median(multiP))
	m.set("cluster.long_run_ratio", median(longRun)/median(seq))
	m.set("cluster.mono_frames_per_s", median(mono))
	// Host time per simulated frame with chaos and the scrape plane on,
	// over the same without.
	m.set("cluster.obs_cost_ratio", median(seq)/median(obs))
}
