package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineSteadyState is the kernel's hot loop: one event fires and
// schedules its successor, so the arena stays at one slot and the heap at
// one entry. This is the pattern every periodic substrate (producers,
// bandwidth meters, utilization samplers) drives; it must not allocate.
func BenchmarkEngineSteadyState(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(Microsecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(Microsecond, tick)
	e.Run()
}

// BenchmarkEngineDepth256 keeps 256 events outstanding — the deep-queue
// regime of the figure runs (producers, meters, web load, per-packet
// timers all pending at once).
func BenchmarkEngineDepth256(b *testing.B) {
	const depth = 256
	e := NewEngine(1)
	fired := 0
	var reschedule func()
	reschedule = func() {
		fired++
		if fired <= b.N {
			e.After(Time(1+fired%97)*Microsecond, reschedule)
		}
	}
	for i := 0; i < depth; i++ {
		e.After(Time(1+i%97)*Microsecond, reschedule)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for fired < b.N {
		e.Step()
	}
}

// BenchmarkEngineCancel measures the schedule-then-cancel cycle timers
// drive (transport RTO timers, paced wakeups): the cancelled event is
// reaped lazily by the next Step.
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.After(Microsecond, func() {})
		ev.Cancel()
		e.Step()
	}
}

// parallelBenchWorkload wires the BenchmarkParallelEngine fleet: `cards`
// domains, each running `chains` self-rescheduling tick chains (the dense
// local card work: ring polls, pacing timers, meters) plus a periodic
// message to the next card in a ring (the sparse cross-card traffic:
// fleet-network hops). send must schedule a counted event in the next
// domain after ringLat — against the NEXT domain's counter, since that is
// whose worker executes it.
func parallelBenchWorkload(eng *Engine, card int, fired *int64, send func()) {
	const (
		chains  = 4
		tick    = 10 * Microsecond
		ringLat = 250 * Microsecond
	)
	for ch := 0; ch < chains; ch++ {
		var loop func()
		loop = func() {
			*fired++
			eng.After(tick, loop)
		}
		eng.At(Time(ch)+1, loop)
	}
	var pulse func()
	pulse = func() {
		*fired++
		send()
		eng.After(ringLat, pulse)
	}
	eng.At(Time(card)+2, pulse)
}

// BenchmarkParallelEngine pits the partitioned conservative engine against
// a monolithic single-heap run of the same 64-card fleet workload. The
// workersN variants start each worker on a contiguous block of cards (N
// is capped at GOMAXPROCS); speedup over the monolith scales with physical
// cores (the partition windows are ~250µs of lookahead holding ~100 events
// of local work each). ns/event is reported alongside ns/op.
func BenchmarkParallelEngine(b *testing.B) {
	const (
		cards   = 64
		ringLat = 250 * Microsecond
		simFor  = 5 * Millisecond
	)

	b.Run("cards64/monolith", func(b *testing.B) {
		b.ReportAllocs()
		var fired int64
		for i := 0; i < b.N; i++ {
			eng := NewEngine(1)
			for c := 0; c < cards; c++ {
				parallelBenchWorkload(eng, c, &fired, func() {
					eng.After(ringLat, func() { fired++ })
				})
			}
			eng.RunUntil(simFor)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/event")
	})

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cards64/workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var fired int64
			var rounds int64
			// Counters are per-card: partitions run on different worker
			// goroutines, so a shared counter would race.
			perCard := make([]int64, cards)
			for i := 0; i < b.N; i++ {
				topo := NewTopology(1)
				parts := make([]*Partition, cards)
				for c := range parts {
					parts[c] = topo.AddPartition(fmt.Sprintf("card%02d", c))
				}
				for c := range parts {
					if err := topo.Connect(parts[c], parts[(c+1)%cards], ringLat); err != nil {
						b.Fatal(err)
					}
				}
				topo.Workers = workers
				for c := range parts {
					p, next := parts[c], parts[(c+1)%cards]
					dst := &perCard[(c+1)%cards]
					parallelBenchWorkload(p.Eng(), c, &perCard[c], func() {
						p.Send(next, ringLat, func() { *dst++ })
					})
				}
				topo.RunUntil(simFor)
				rounds += topo.Rounds
			}
			for _, n := range perCard {
				fired += n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/event")
			b.ReportMetric(float64(fired)/float64(rounds), "events/round")
		})
	}
}
