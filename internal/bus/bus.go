// Package bus models the server's bus domains: the 33 MHz/32-bit PCI I/O
// bus segments the I2O cards sit on, and the host system (front-side) bus.
//
// Reproduced behaviours:
//
//   - Card-to-card DMA at roughly half of theoretical PCI bandwidth
//     (Table 5: a 773665-byte MPEG file moves in 11673.84 µs = 66.27 MB/s
//     against the 132 MB/s theoretical peak), because every burst pays
//     arbitration, address-phase, and target-latency cycles.
//   - Programmed I/O word reads are round trips (3.6 µs) while writes are
//     posted (3.1 µs) (Table 5).
//   - A bus segment is a single arbitrated resource: concurrent masters
//     queue, which is what lets a dedicated scheduler NI on its own segment
//     stay isolated from web-server traffic on the other segment (§4.2.3).
package bus

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config parameterizes one bus segment.
type Config struct {
	Name       string
	ClockHz    int64 // bus clock
	WidthBytes int64 // data-path width
	// EffNum/EffDen is burst efficiency: the fraction of bus cycles that
	// move data during a DMA burst (the rest are arbitration, address
	// phase, and target wait states).
	EffNum, EffDen int64
	DMASetup       sim.Time // per-transfer master setup (descriptor fetch, arbitration)
	PIOReadCycles  int64    // bus cycles for one non-posted word read round trip
	PIOWriteCycles int64    // bus cycles for one posted word write
}

// PCI returns the paper's 33 MHz, 32-bit PCI segment configuration. With
// 50% burst efficiency the effective DMA rate is 66 MB/s, matching the
// measured 66.27 MB/s of Table 5.
func PCI(name string) Config {
	return Config{
		Name:       name,
		ClockHz:    33_000_000,
		WidthBytes: 4,
		EffNum:     1,
		EffDen:     2,
		DMASetup:   4 * sim.Microsecond,
		// 3.6 µs and 3.1 µs at a 30.3 ns cycle.
		PIOReadCycles:  119,
		PIOWriteCycles: 102,
	}
}

// SystemBus returns the Pentium Pro front-side bus (66 MHz, 64-bit).
func SystemBus(name string) Config {
	return Config{
		Name:       name,
		ClockHz:    66_000_000,
		WidthBytes: 8,
		EffNum:     2,
		EffDen:     3,
		DMASetup:   1 * sim.Microsecond,
		// CPU-local bus: a word access is a handful of cycles.
		PIOReadCycles:  8,
		PIOWriteCycles: 4,
	}
}

// CycleTime returns the duration of one bus clock cycle.
func (c Config) CycleTime() sim.Time {
	return sim.Time(int64(sim.Second) / c.ClockHz)
}

// BytesPerSecond returns the effective DMA bandwidth.
func (c Config) BytesPerSecond() int64 {
	return c.ClockHz * c.WidthBytes * c.EffNum / c.EffDen
}

// Stats counts traffic on a segment — the paper's "traffic elimination"
// claims are assertions about these counters.
type Stats struct {
	DMABytes     int64
	DMATransfers int64
	PIOReads     int64
	PIOWrites    int64
}

// Bus is one arbitrated bus segment.
type Bus struct {
	eng *sim.Engine
	cfg Config
	res *sim.Resource

	// Stats accumulates traffic counters for traffic-elimination checks.
	Stats Stats
}

// New returns an idle bus segment on eng.
func New(eng *sim.Engine, cfg Config) *Bus {
	return &Bus{eng: eng, cfg: cfg, res: sim.NewResource(eng, cfg.Name)}
}

// Instrument exports the segment's traffic counters under the bus telemetry
// component. Several segments registered on one registry sum into one
// component-level series.
func (b *Bus) Instrument(reg *telemetry.Registry) {
	reg.CounterFunc("bus", "dma_transfers_total",
		"DMA transfers across bus segments", func() int64 { return b.Stats.DMATransfers })
	reg.CounterFunc("bus", "dma_bytes_total",
		"bytes moved by DMA across bus segments", func() int64 { return b.Stats.DMABytes })
	reg.CounterFunc("bus", "pio_reads_total",
		"programmed-I/O word reads", func() int64 { return b.Stats.PIOReads })
	reg.CounterFunc("bus", "pio_writes_total",
		"programmed-I/O word writes", func() int64 { return b.Stats.PIOWrites })
}

// Name returns the segment name.
func (b *Bus) Name() string { return b.cfg.Name }

// Config returns the segment configuration.
func (b *Bus) Config() Config { return b.cfg }

// DMATime returns how long a DMA of n bytes holds the bus (setup plus data
// movement at the effective rate). It is exact integer arithmetic so the
// reproduced Table 5 value is deterministic.
func (b *Bus) DMATime(n int64) sim.Time {
	if n < 0 {
		panic(fmt.Sprintf("bus %s: negative DMA size %d", b.cfg.Name, n))
	}
	data := sim.Time(n * int64(sim.Second) / b.cfg.BytesPerSecond())
	return b.cfg.DMASetup + data
}

// DMA performs a peer-to-peer DMA of n bytes across the segment, invoking
// done when the transfer completes. The bus is held for the whole transfer.
func (b *Bus) DMA(n int64, done func()) {
	b.Stats.DMABytes += n
	b.Stats.DMATransfers++
	b.res.Use(b.DMATime(n), done)
}

// PIORead performs words non-posted word reads, invoking done with the bus
// released afterwards.
func (b *Bus) PIORead(words int64, done func()) {
	b.Stats.PIOReads += words
	b.res.Use(sim.Time(words*b.cfg.PIOReadCycles)*b.cfg.CycleTime(), done)
}

// PIOWrite performs words posted word writes.
func (b *Bus) PIOWrite(words int64, done func()) {
	b.Stats.PIOWrites += words
	b.res.Use(sim.Time(words*b.cfg.PIOWriteCycles)*b.cfg.CycleTime(), done)
}

// PIOReadTime and PIOWriteTime expose per-word PIO costs for benchmarks.
func (b *Bus) PIOReadTime() sim.Time {
	return sim.Time(b.cfg.PIOReadCycles) * b.cfg.CycleTime()
}

// PIOWriteTime returns the duration of one posted word write.
func (b *Bus) PIOWriteTime() sim.Time {
	return sim.Time(b.cfg.PIOWriteCycles) * b.cfg.CycleTime()
}

// Utilization reports the fraction of simulated time the segment was held.
func (b *Bus) Utilization() float64 { return b.res.Utilization() }

// QueueLen reports masters currently waiting for the segment.
func (b *Bus) QueueLen() int { return b.res.QueueLen() }

// Bridge links two bus segments (host PCI bridge in Figure 3). A bridged
// transfer holds each segment in turn and pays a store-and-forward latency
// in between — the "bus-domain traversal" cost the paper's path A suffers
// and paths B/C avoid.
//
// A transfer allocates nothing: each direction's transfers wait by value in
// a FIFO, in the order their first legs complete (the first segment and the
// latency keep start order), and the callbacks are built once.
type Bridge struct {
	eng      *sim.Engine
	a, b     *Bus
	Latency  sim.Time
	Crossing int64 // count of bridged transfers, for traffic accounting

	dirs [2]bridgeDir // a→b, b→a
}

// bridgeDir is one direction of a bridge.
type bridgeDir struct {
	to       *Bus
	inFlight sim.FIFO[bridgeXfer] // transfers not yet on the second segment
	legFn    func()               // first leg done: pay the latency
	hopFn    func()               // latency paid: start the second leg
}

// bridgeXfer is one bridged transfer.
type bridgeXfer struct {
	n    int64
	done func()
}

// NewBridge connects segments a and b with the given store-and-forward
// latency.
func NewBridge(eng *sim.Engine, a, b *Bus, latency sim.Time) *Bridge {
	br := &Bridge{eng: eng, a: a, b: b, Latency: latency}
	for i, to := range []*Bus{b, a} {
		d := &br.dirs[i]
		d.to = to
		d.legFn = func() { br.eng.After(br.Latency, d.hopFn) }
		d.hopFn = func() {
			x := d.inFlight.Pop()
			d.to.DMA(x.n, x.done)
		}
	}
	return br
}

// Transfer moves n bytes from the 'from' segment to the other segment,
// calling done at completion. from must be one of the bridge's segments.
func (br *Bridge) Transfer(from *Bus, n int64, done func()) {
	var d *bridgeDir
	switch from {
	case br.a:
		d = &br.dirs[0]
	case br.b:
		d = &br.dirs[1]
	default:
		panic("bus: Transfer from a segment not attached to this bridge")
	}
	br.Crossing++
	d.inFlight.Push(bridgeXfer{n, done})
	from.DMA(n, d.legFn)
}
