package hostos

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestSubmitRunsToCompletion(t *testing.T) {
	eng := sim.NewEngine(1)
	sys := New(eng, 1, 10*sim.Millisecond)
	var doneAt sim.Time
	sys.Submit(0, 25*sim.Millisecond, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt != 25*sim.Millisecond {
		t.Fatalf("done at %v", doneAt)
	}
}

func TestZeroDemandCompletesImmediately(t *testing.T) {
	eng := sim.NewEngine(1)
	sys := New(eng, 1, sim.Millisecond)
	done := false
	sys.Submit(0, 0, func() { done = true })
	if !done {
		t.Fatal("zero demand should complete synchronously")
	}
}

func TestRoundRobinInterleavesJobs(t *testing.T) {
	eng := sim.NewEngine(1)
	sys := New(eng, 1, 10*sim.Millisecond)
	var bigDone, smallDone sim.Time
	sys.Submit(0, 50*sim.Millisecond, func() { bigDone = eng.Now() })
	sys.Submit(0, 10*sim.Millisecond, func() { smallDone = eng.Now() })
	eng.Run()
	// With 10ms quanta the small job finishes long before the big one,
	// even though it arrived second.
	if smallDone >= bigDone {
		t.Fatalf("small done %v, big done %v: no interleaving", smallDone, bigDone)
	}
	if smallDone != 20*sim.Millisecond {
		t.Fatalf("small done at %v, want 20ms (one big quantum ahead)", smallDone)
	}
}

func TestSmallJobQueuesBehindBursts(t *testing.T) {
	// The Figure 7/8 mechanism: a µs-scale scheduler burst waits behind
	// web-request quanta on a loaded CPU.
	eng := sim.NewEngine(1)
	sys := New(eng, 1, 10*sim.Millisecond)
	for i := 0; i < 5; i++ {
		sys.Submit(0, 6*sim.Millisecond, nil)
	}
	var doneAt sim.Time
	sys.Submit(0, 100*sim.Microsecond, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt < 30*sim.Millisecond {
		t.Fatalf("tiny job done at %v, expected to queue behind 30ms of web work", doneAt)
	}
}

func TestAnyCPUPicksLeastLoaded(t *testing.T) {
	eng := sim.NewEngine(1)
	sys := New(eng, 2, 10*sim.Millisecond)
	sys.Submit(0, 100*sim.Millisecond, nil)
	var doneAt sim.Time
	sys.Submit(AnyCPU, 10*sim.Millisecond, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt != 10*sim.Millisecond {
		t.Fatalf("job done at %v, want 10ms (should land on idle CPU 1)", doneAt)
	}
}

func TestBoundCPUStaysBound(t *testing.T) {
	eng := sim.NewEngine(1)
	sys := New(eng, 2, 10*sim.Millisecond)
	sys.Submit(1, 30*sim.Millisecond, nil)
	eng.Run()
	if sys.CPU(1).BusyTime != 30*sim.Millisecond || sys.CPU(0).BusyTime != 0 {
		t.Fatalf("busy: cpu0=%v cpu1=%v", sys.CPU(0).BusyTime, sys.CPU(1).BusyTime)
	}
}

func TestUtilizationAndSampler(t *testing.T) {
	eng := sim.NewEngine(1)
	sys := New(eng, 2, 10*sim.Millisecond)
	// 50ms of work on one of two CPUs over 100ms → 25% total.
	sys.Submit(0, 50*sim.Millisecond, nil)
	var series stats.Series
	stop := sys.SampleUtilization(10*sim.Millisecond, &series)
	eng.RunUntil(100 * sim.Millisecond)
	stop()
	total := sys.TotalUtilization()
	if total < 0.24 || total > 0.26 {
		t.Fatalf("total utilization = %v, want 0.25", total)
	}
	if series.Len() < 9 {
		t.Fatalf("sampler produced %d samples", series.Len())
	}
	// First five samples: CPU0 fully busy → 50% of 2 CPUs.
	if v := series.Points[0].Value; v < 49 || v > 51 {
		t.Fatalf("first sample = %v%%, want 50", v)
	}
	// After the work drains the samples go to zero.
	if v := series.Last(); v != 0 {
		t.Fatalf("last sample = %v%%, want 0", v)
	}
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, f := range []func(){
		func() { New(eng, 0, sim.Millisecond) },
		func() { New(eng, 1, sim.Millisecond).Submit(0, -1, nil) },
		func() { New(eng, 1, sim.Millisecond).Submit(5, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: work conservation — total busy time equals total demand once
// everything drains, regardless of submission pattern.
func TestWorkConservation(t *testing.T) {
	f := func(demands []uint8, cpus uint8) bool {
		eng := sim.NewEngine(2)
		n := int(cpus)%4 + 1
		sys := New(eng, n, 5*sim.Millisecond)
		var want sim.Time
		completed := 0
		for i, d := range demands {
			dem := sim.Time(d) * 100 * sim.Microsecond
			want += dem
			sys.Submit(i%n, dem, func() { completed++ })
		}
		eng.Run()
		var got sim.Time
		for i := 0; i < n; i++ {
			got += sys.CPU(i).BusyTime
		}
		return got == want && completed == len(demands)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// SubmitArg passes its argument to the completion, after the demand has
// run, in the same round-robin as Submit.
func TestSubmitArgPassesArgument(t *testing.T) {
	eng := sim.NewEngine(1)
	sys := New(eng, 1, sim.Millisecond)
	var got []string
	note := func(arg any) { got = append(got, arg.(string)+"@"+eng.Now().String()) }
	sys.SubmitArg(0, 3*sim.Millisecond, note, "long")
	sys.Submit(0, sim.Millisecond, func() { got = append(got, "short@"+eng.Now().String()) })
	sys.SubmitArg(0, 0, note, "zero")
	eng.Run()
	want := []string{"zero@0ns", "short@2.000ms", "long@4.000ms"}
	if len(got) != len(want) {
		t.Fatalf("completions %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completions %v, want %v", got, want)
		}
	}
}

// Jobs sliced into quanta and round-robined allocate nothing once the run
// queue has grown: jobs wait by value and each CPU ends its slices through
// one callback built once.
func TestQuantumSlicedSubmitDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine(1)
	sys := New(eng, 2, sim.Millisecond)
	done := func() {}
	round := func() {
		for i := 0; i < 4; i++ {
			sys.Submit(AnyCPU, 3*sim.Millisecond+sim.Time(i)*sim.Microsecond, done)
		}
		eng.Run()
	}
	round() // grow the run queues and the event arena
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%v allocs per four sliced jobs, want 0", allocs)
	}
}

// BenchmarkCPUSubmit is the run queue's own number: host time and
// allocations per job of three quanta sharing a CPU with another.
func BenchmarkCPUSubmit(b *testing.B) {
	eng := sim.NewEngine(1)
	sys := New(eng, 1, sim.Millisecond)
	done := func() {}
	sys.Submit(0, 3*sim.Millisecond, done)
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Submit(0, 3*sim.Millisecond, done)
		sys.Submit(0, 3*sim.Millisecond, done)
		eng.Run()
	}
}
