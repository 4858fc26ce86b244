package bus

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPCIEffectiveBandwidth(t *testing.T) {
	cfg := PCI("pci0")
	bps := cfg.BytesPerSecond()
	// 33 MHz × 4 B × 1/2 = 66 MB/s.
	if bps != 66_000_000 {
		t.Fatalf("effective bandwidth = %d B/s, want 66e6", bps)
	}
}

func TestTable5DMATime(t *testing.T) {
	// Table 5: 773665-byte MPEG file by DMA takes 11673.84 µs (66.27 MB/s).
	eng := sim.NewEngine(1)
	b := New(eng, PCI("pci0"))
	got := b.DMATime(773665).Microseconds()
	if math.Abs(got-11673.84)/11673.84 > 0.02 {
		t.Fatalf("DMA of 773665 B = %.2f µs, want ≈11673.84 (±2%%)", got)
	}
}

func TestTable5PIOTimes(t *testing.T) {
	eng := sim.NewEngine(1)
	b := New(eng, PCI("pci0"))
	read := b.PIOReadTime().Microseconds()
	write := b.PIOWriteTime().Microseconds()
	if math.Abs(read-3.6) > 0.1 {
		t.Errorf("PIO read = %.2f µs, want ≈3.6", read)
	}
	if math.Abs(write-3.1) > 0.1 {
		t.Errorf("PIO write = %.2f µs, want ≈3.1", write)
	}
	if write >= read {
		t.Error("posted writes must be cheaper than reads")
	}
}

func TestSingleFrameDMAAbout15us(t *testing.T) {
	// §4.2.2: card-to-card transfer of a single 1000-byte frame ≈ 15 µs.
	eng := sim.NewEngine(1)
	b := New(eng, PCI("pci0"))
	got := b.DMATime(1000).Microseconds()
	if got < 12 || got > 25 {
		t.Fatalf("1000-byte frame DMA = %.2f µs, want ~15", got)
	}
}

func TestDMACompletesAndCounts(t *testing.T) {
	eng := sim.NewEngine(1)
	b := New(eng, PCI("pci0"))
	doneAt := sim.Time(-1)
	b.DMA(1000, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt != b.DMATime(1000) {
		t.Fatalf("done at %v, want %v", doneAt, b.DMATime(1000))
	}
	if b.Stats.DMABytes != 1000 || b.Stats.DMATransfers != 1 {
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestBusArbitrationSerializes(t *testing.T) {
	eng := sim.NewEngine(1)
	b := New(eng, PCI("pci0"))
	var first, second sim.Time
	b.DMA(1000, func() { first = eng.Now() })
	b.DMA(1000, func() { second = eng.Now() })
	eng.Run()
	if second != 2*first {
		t.Fatalf("second DMA at %v, want %v (serialized)", second, 2*first)
	}
}

func TestPIOCallbacksAndStats(t *testing.T) {
	eng := sim.NewEngine(1)
	b := New(eng, PCI("pci0"))
	var rDone, wDone bool
	b.PIORead(10, func() { rDone = true })
	b.PIOWrite(20, func() { wDone = true })
	eng.Run()
	if !rDone || !wDone {
		t.Fatal("PIO callbacks did not fire")
	}
	if b.Stats.PIOReads != 10 || b.Stats.PIOWrites != 20 {
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestNegativeDMAPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	b := New(eng, PCI("pci0"))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b.DMATime(-1)
}

func TestSystemBusFasterThanPCI(t *testing.T) {
	if SystemBus("sys").BytesPerSecond() <= PCI("pci").BytesPerSecond() {
		t.Fatal("system bus should outrun PCI")
	}
}

func TestBridgeTransferCrossesBothSegments(t *testing.T) {
	eng := sim.NewEngine(1)
	pci := New(eng, PCI("pci0"))
	sys := New(eng, SystemBus("sys"))
	br := NewBridge(eng, pci, sys, 500*sim.Nanosecond)
	var doneAt sim.Time
	br.Transfer(pci, 1000, func() { doneAt = eng.Now() })
	eng.Run()
	want := pci.DMATime(1000) + 500*sim.Nanosecond + sys.DMATime(1000)
	if doneAt != want {
		t.Fatalf("bridged transfer took %v, want %v", doneAt, want)
	}
	if pci.Stats.DMABytes != 1000 || sys.Stats.DMABytes != 1000 {
		t.Fatal("both segments should see the traffic")
	}
	if br.Crossing != 1 {
		t.Fatalf("crossing count = %d", br.Crossing)
	}
}

func TestBridgeTransferReverseDirection(t *testing.T) {
	eng := sim.NewEngine(1)
	pci := New(eng, PCI("pci0"))
	sys := New(eng, SystemBus("sys"))
	br := NewBridge(eng, pci, sys, 0)
	done := false
	br.Transfer(sys, 64, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("reverse transfer did not complete")
	}
}

func TestBridgeUnknownSegmentPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	pci := New(eng, PCI("pci0"))
	sys := New(eng, SystemBus("sys"))
	other := New(eng, PCI("pci1"))
	br := NewBridge(eng, pci, sys, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	br.Transfer(other, 10, nil)
}

func TestSeparateSegmentsDoNotContend(t *testing.T) {
	// The Figure 5 setup: web NI on segment 0, scheduler NI on segment 1.
	eng := sim.NewEngine(1)
	seg0 := New(eng, PCI("pci0"))
	seg1 := New(eng, PCI("pci1"))
	// Saturate segment 0.
	for i := 0; i < 50; i++ {
		seg0.DMA(1<<20, nil)
	}
	var frameDone sim.Time
	seg1.DMA(1000, func() { frameDone = eng.Now() })
	eng.Run()
	if frameDone != seg1.DMATime(1000) {
		t.Fatalf("segment-1 frame delayed to %v by segment-0 traffic", frameDone)
	}
}

// Property: DMA time is monotone and additive-superlinear-free in size
// (setup amortizes: t(a+b) <= t(a)+t(b)).
func TestDMATimeMonotoneSubadditive(t *testing.T) {
	eng := sim.NewEngine(1)
	b := New(eng, PCI("pci0"))
	f := func(a, bb uint32) bool {
		ta, tb := b.DMATime(int64(a)), b.DMATime(int64(bb))
		tsum := b.DMATime(int64(a) + int64(bb))
		if int64(a) <= int64(bb) && ta > tb {
			return false
		}
		return tsum <= ta+tb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A DMA allocates nothing, alone or queued behind other masters: the
// segment's wait line holds requests by value and its completion callback
// is built once.
func TestDMADoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine(1)
	b := New(eng, PCI("pci0"))
	done := func() {}
	for _, masters := range []int{1, 4} {
		round := func() {
			for i := 0; i < masters; i++ {
				b.DMA(1000, done)
			}
			eng.Run()
		}
		round() // grow the wait line and the event arena
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Errorf("%d masters: %v allocs per round of DMAs, want 0", masters, allocs)
		}
	}
}

// Interleaved bridged transfers in both directions, with other masters on
// both segments, complete at the instants and in the order of chained
// per-transfer callbacks (DMA, then the latency, then the second DMA).
func TestBridgeTransfersMatchChainedCallbacks(t *testing.T) {
	run := func(chained bool) []string {
		eng := sim.NewEngine(1)
		pci, sys := New(eng, PCI("pci")), New(eng, SystemBus("sys"))
		br := NewBridge(eng, pci, sys, 700*sim.Nanosecond)
		var log []string
		for i := 0; i < 12; i++ {
			from, n := pci, int64(500+300*i)
			if i%3 == 1 {
				from = sys
			}
			done := func() { log = append(log, fmt.Sprintf("%d@%d", i, eng.Now())) }
			at := sim.Time(i%5) * sim.Microsecond
			eng.At(at, func() {
				from.DMA(200, func() {}) // another master on the first segment
				if !chained {
					br.Transfer(from, n, done)
					return
				}
				to := sys
				if from == sys {
					to = pci
				}
				from.DMA(n, func() {
					eng.After(br.Latency, func() { to.DMA(n, done) })
				})
			})
		}
		eng.Run()
		return log
	}
	got, want := run(false), run(true)
	if len(got) != 12 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("bridged completions %v, want %v", got, want)
	}
}

// A bridged transfer allocates nothing once the wait lines have grown.
func TestBridgeTransferDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine(1)
	pci, sys := New(eng, PCI("pci")), New(eng, SystemBus("sys"))
	br := NewBridge(eng, pci, sys, 500*sim.Nanosecond)
	done := func() {}
	round := func() {
		for i := 0; i < 3; i++ {
			br.Transfer(pci, 1000, done)
			br.Transfer(sys, 1000, done)
		}
		eng.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%v allocs per round of bridged transfers, want 0", allocs)
	}
}
