// Benchmark harness: ablation benches for the design choices called out in
// DESIGN.md §6, plus per-layer microbenchmarks. The paper's tables and
// figures are asserted by internal/experiments' tests and timed by the
// repro_eval workload of ./bench.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bus"
	"repro/internal/cpu"
	"repro/internal/dwcs"
	"repro/internal/experiments"
	"repro/internal/fixed"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/transport"
)

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationPrecedence compares the paper's lowest-window-constraint-
// first ordering against the later EDF-first variant on the microbenchmark
// workload.
func BenchmarkAblationPrecedence(b *testing.B) {
	for _, prec := range []dwcs.Precedence{dwcs.LossFirst, dwcs.EDFFirst} {
		b.Run(prec.String(), func(b *testing.B) {
			clip := mpeg.GenerateDefault()
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine(1)
				card := nic.New(eng, nic.Config{Name: "bench", CacheOn: true})
				sched := card.NewBenchScheduler(nic.SchedulerConfig{
					Precedence: prec, WorkConserving: true,
				})
				for s := 0; s < 4; s++ {
					sched.AddStream(dwcs.StreamSpec{ID: s, Period: sim.Second,
						Loss: fixed.New(1, 2), Lossy: true, BufCap: 40})
				}
				for j, f := range clip.Frames {
					sched.Enqueue(j%4, dwcs.Packet{Bytes: f.Size})
				}
				for sched.Schedule().Packet != nil {
				}
			}
		})
	}
}

// BenchmarkAblationSelector compares the four §3.1.1 schedule
// representations (scan, heaps, sorted list, calendar queue) as the stream
// count grows. The calendar requires the EDFFirst precedence, so the whole
// comparison runs under it.
func BenchmarkAblationSelector(b *testing.B) {
	for _, sel := range []dwcs.SelectorKind{dwcs.Scan, dwcs.Heaps, dwcs.SortedList, dwcs.Calendar} {
		for _, streams := range []int{4, 32, 128} {
			b.Run(fmt.Sprintf("%s/streams-%d", sel, streams), func(b *testing.B) {
				var cycles int64
				for i := 0; i < b.N; i++ {
					eng := sim.NewEngine(1)
					card := nic.New(eng, nic.Config{Name: "bench", CacheOn: true})
					sched := card.NewBenchScheduler(nic.SchedulerConfig{
						Selector: sel, Precedence: dwcs.EDFFirst, WorkConserving: true,
					})
					for s := 0; s < streams; s++ {
						sched.AddStream(dwcs.StreamSpec{ID: s, Period: sim.Second,
							Loss: fixed.New(int64(s%3), int64(s%3)+2), Lossy: true, BufCap: 8})
					}
					for j := 0; j < streams*8; j++ {
						sched.Enqueue(j%streams, dwcs.Packet{Bytes: 1000})
					}
					card.Meter.Reset()
					n := 0
					for sched.Schedule().Packet != nil {
						n++
					}
					cycles = card.Meter.Cycles() / int64(n)
				}
				b.ReportMetric(float64(cycles), "i960-cycles/decision")
			})
		}
	}
}

// BenchmarkAblationArithmetic isolates the fraction-arithmetic choice.
func BenchmarkAblationArithmetic(b *testing.B) {
	for _, arith := range []cpu.Arithmetic{cpu.SoftFP, cpu.FixedPoint} {
		b.Run(arith.String(), func(b *testing.B) {
			var m experiments.Microbench
			for i := 0; i < b.N; i++ {
				m = experiments.RunMicrobench(arith, true, nic.StoreDRAM)
			}
			b.ReportMetric(m.AvgSched.Microseconds(), "µs/frame-sched")
		})
	}
}

// BenchmarkAblationStore isolates the descriptor-store choice.
func BenchmarkAblationStore(b *testing.B) {
	for _, store := range []nic.StoreKind{nic.StoreDRAM, nic.StoreHardwareQueue} {
		for _, cache := range []bool{true, false} {
			b.Run(fmt.Sprintf("%s/cache-%v", store, cache), func(b *testing.B) {
				var m experiments.Microbench
				for i := 0; i < b.N; i++ {
					m = experiments.RunMicrobench(cpu.FixedPoint, cache, store)
				}
				b.ReportMetric(m.AvgSched.Microseconds(), "µs/frame-sched")
			})
		}
	}
}

// BenchmarkAblationFramePull compares frames resident in NI memory (the
// paper's single-copy design) against pulling each frame from host memory
// across the PCI bus at dispatch time (§3.1.2's rejected alternative).
func BenchmarkAblationFramePull(b *testing.B) {
	frame := int64(5000)
	for _, pull := range []bool{false, true} {
		name := "ni-resident"
		if pull {
			name = "host-pull"
		}
		b.Run(name, func(b *testing.B) {
			var perFrame sim.Time
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine(1)
				seg := bus.New(eng, bus.PCI("pci0"))
				card := nic.New(eng, nic.Config{Name: "bench", CacheOn: true, PCI: seg})
				lapStart := card.Meter.Elapsed()
				const frames = 100
				done := 0
				var step func()
				step = func() {
					if done == frames {
						return
					}
					dispatch := func() {
						card.ChargeDispatch()
						done++
						step()
					}
					if pull {
						seg.DMA(frame, dispatch)
					} else {
						dispatch()
					}
				}
				step()
				eng.Run()
				perFrame = (eng.Now() + card.Meter.Elapsed() - lapStart) / frames
			}
			b.ReportMetric(perFrame.Microseconds(), "µs/frame")
		})
	}
}

// BenchmarkAblationDispatchCoupling compares coupled scheduling+dispatch
// against the decoupled dispatch queue of §3.1.1.
func BenchmarkAblationDispatchCoupling(b *testing.B) {
	for _, queue := range []int{0, 16} {
		name := "coupled"
		if queue > 0 {
			name = "decoupled"
		}
		b.Run(name, func(b *testing.B) {
			var drained sim.Time
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine(1)
				seg := bus.New(eng, bus.PCI("pci0"))
				card := nic.New(eng, nic.Config{Name: "bench", CacheOn: true, PCI: seg})
				ext, err := card.LoadScheduler(nic.SchedulerConfig{
					WorkConserving: true, DispatchQueue: queue,
				})
				if err != nil {
					b.Fatal(err)
				}
				ext.AddStream(dwcs.StreamSpec{ID: 1, Period: sim.Second,
					Loss: fixed.New(1, 2), Lossy: true, BufCap: 64})
				for j := 0; j < 50; j++ {
					ext.Enqueue(1, dwcs.Packet{Bytes: 1000})
				}
				for eng.Now() < 5*sim.Second && ext.Sched.Len() > 0 {
					eng.RunUntil(eng.Now() + sim.Millisecond)
				}
				drained = eng.Now()
			}
			b.ReportMetric(drained.Milliseconds(), "ms/drain-50-decisions")
		})
	}
}

// BenchmarkAblationBusSegments compares the paper's separated-segment
// configuration against co-locating web-NI traffic with the scheduler NI.
func BenchmarkAblationBusSegments(b *testing.B) {
	for _, same := range []bool{false, true} {
		name := "separate-segments"
		if same {
			name = "same-segment"
		}
		b.Run(name, func(b *testing.B) {
			var run *experiments.StreamCurves
			for i := 0; i < b.N; i++ {
				run = experiments.RunNILoad(60, 20*sim.Second, same)
			}
			b.ReportMetric(run.SettleBW("s1", 20*sim.Second), "bps")
		})
	}
}

// BenchmarkSchedulerDecision measures the raw Go cost of one DWCS decision
// (library performance, not simulated-hardware time).
func BenchmarkSchedulerDecision(b *testing.B) {
	for _, streams := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("streams-%d", streams), func(b *testing.B) {
			sched := dwcs.New(dwcs.Config{WorkConserving: true})
			for s := 0; s < streams; s++ {
				sched.AddStream(dwcs.StreamSpec{ID: s, Period: sim.Second,
					Loss: fixed.New(1, 2), Lossy: true, BufCap: 4})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched.Enqueue(i%streams, dwcs.Packet{Bytes: 1000})
				if d := sched.Schedule(); d.Packet == nil {
					b.Fatal("no dispatch")
				}
			}
		})
	}
}

// BenchmarkSimulationThroughput measures how many simulated events per
// second the DES kernel sustains (harness performance).
func BenchmarkSimulationThroughput(b *testing.B) {
	eng := sim.NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.After(sim.Microsecond, tick)
		}
	}
	b.ResetTimer()
	eng.After(sim.Microsecond, tick)
	eng.Run()
}

// --- Library microbenchmarks (Go performance, not simulated time) ---

// BenchmarkReassembler measures fragment ingestion and frame completion.
func BenchmarkReassembler(b *testing.B) {
	frame := make([]byte, 3*proto.MaxMediaPayload)
	frags := proto.FragmentFrame(1, 0, frame)
	r := proto.NewReassembler(nil)
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range frags {
			if err := r.Ingest(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTransportThroughput measures reliable-transport delivery over a
// clean simulated link.
func BenchmarkTransportThroughput(b *testing.B) {
	eng := sim.NewEngine(1)
	var snd *transport.Sender
	delivered := 0
	sink := netsim.PortFunc(func(*netsim.Packet) { delivered++ })
	ackIn := netsim.PortFunc(func(p *netsim.Packet) { snd.Deliver(p) })
	ack := netsim.Fast100(eng, "ack", ackIn)
	rcv := transport.NewReceiver(eng, sink, ack, "snd")
	data := netsim.Fast100(eng, "data", rcv)
	snd = transport.NewSender(eng, data, 16, 50*sim.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snd.Send(&netsim.Packet{Bytes: 1400})
	}
	eng.Run()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}
