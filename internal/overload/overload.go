// Package overload protects a scheduler NI against load past its capacity.
// The i960 RD has 4 MB of on-board RAM (§3.1.2); everything the NI-resident
// scheduler holds — frame buffers, per-stream state, descriptor-queue slots —
// must fit inside it, so the card cannot survive overload by queueing.
// Instead it must (1) refuse work it can't hold, (2) push pressure back to
// the producers, and (3) degrade the streams it already carries in value
// order. This package supplies those three mechanisms:
//
//   - Budget: a byte-accurate accountant over the card memory, with a
//     high-water admission ceiling and a low-water readmission mark.
//   - Backpressure: transmit-queue-depth hysteresis that gates disk prefetch
//     (path C) and peer DMA (path B) at the source.
//   - Ladder: a graceful-degradation state machine (shed within DWCS loss
//     tolerance → drop B frames → drop B+P frames → revoke admission),
//     every rung reversible once pressure clears.
//
// A Controller bundles the three and is evaluated periodically on the
// simulation engine, so behaviour is a pure function of simulated time and
// runs are byte-identical at any host worker count.
package overload

import (
	"errors"
	"fmt"

	"repro/internal/blackbox"
	"repro/internal/sim"
)

// Accounting classes. Frame buffers are mirrored live from the card's
// physical allocator (mem.Observer); stream state and queue slots are charged
// at admission; Leak models chaos-injected erosion (faults.MemLeak).
type Class int

// Budget accounting classes.
const (
	ClassFrameBuf Class = iota
	ClassStreamState
	ClassQueueSlots
	ClassLeak
	// ClassBlackbox is the flight recorder's event ring: diagnostic state is
	// card-resident too, so it pays for its memory like any other tenant.
	ClassBlackbox
	// ClassTelemetry is in-band observability traffic: scrape reply buffers
	// staged on the card until they serialize onto the DVCM link. Charged
	// like any other tenant so a busy card sheds its own monitoring before
	// it sheds media.
	ClassTelemetry
	numClasses
)

// String names the class for reports.
func (c Class) String() string {
	switch c {
	case ClassFrameBuf:
		return "frame-buf"
	case ClassStreamState:
		return "stream-state"
	case ClassQueueSlots:
		return "queue-slots"
	case ClassLeak:
		return "leak"
	case ClassBlackbox:
		return "blackbox"
	case ClassTelemetry:
		return "telemetry"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ErrAdmission is returned when a stream setup would push projected occupancy
// past the budget's high-water mark. It crosses the dvcmnet wire by message
// text and is revived to this sentinel on the requesting side, so callers can
// errors.Is against it locally and remotely alike.
var ErrAdmission = errors.New("overload: admission rejected, budget above high water")

// ErrBudget is returned by Charge when a charge would exceed the absolute
// budget size. Observed (physical) allocations are never refused — they
// already happened — but they count as breaches if they overflow.
var ErrBudget = errors.New("overload: memory budget exceeded")

// Watermark defaults as fractions of the budget size.
const (
	DefaultHighWaterPct = 85 // admission ceiling
	DefaultLowWaterPct  = 70 // hysteresis: readmission resumes below this
)

// StreamCost is the projected memory footprint of one stream on the card.
type StreamCost struct {
	State int64 // per-stream scheduler state (window counters, spec, stats)
	Slots int64 // descriptor-ring slots (BufCap × descriptor bytes)
	Ring  int64 // worst-case resident frame bytes (BufCap × nominal frame)
}

// Projected is the occupancy admission tests against: everything the stream
// could pin at once.
func (sc StreamCost) Projected() int64 { return sc.State + sc.Slots + sc.Ring }

// charged is what admission actually charges. Frame bytes are accounted live
// through the mem.Observer hook as buffers are allocated, so charging Ring
// here would double-count them.
func (sc StreamCost) charged() int64 { return sc.State + sc.Slots }

// Budget is the byte-accurate accountant for one card's memory. It is not
// the allocator — mem.Memory still owns placement — it is the policy layer
// that decides whether new work may claim bytes at all.
type Budget struct {
	name string
	size int64
	high int64 // admission ceiling
	low  int64 // waiters drain below this

	used     [numClasses]int64
	total    int64
	peak     int64
	charged  int64 // lifetime bytes charged, all classes
	released int64 // lifetime bytes released, all classes

	// Rejects counts admissions refused at the high-water mark. Breaches
	// counts moments the accounted total exceeded the absolute size — the
	// invariant claim 4 requires to stay at zero.
	Rejects  int64
	Breaches int64

	// Rec is the card's flight recorder: every refusal and breach is
	// recorded and triggers an incident. Nil records nothing.
	Rec *blackbox.Recorder

	waiters  []func() // FIFO reject-then-retry queue
	draining bool     // reentrancy guard: waiters may re-enroll while firing
}

// NewBudget returns an accountant over size bytes (size <= 0 selects the
// 4 MB card default) with the default watermarks.
func NewBudget(name string, size int64) *Budget {
	if size <= 0 {
		size = 4 << 20
	}
	return &Budget{
		name: name,
		size: size,
		high: size * DefaultHighWaterPct / 100,
		low:  size * DefaultLowWaterPct / 100,
	}
}

// Name returns the budget's owner label.
func (b *Budget) Name() string { return b.name }

// Size returns the absolute budget in bytes.
func (b *Budget) Size() int64 { return b.size }

// HighWater returns the admission ceiling in bytes.
func (b *Budget) HighWater() int64 { return b.high }

// LowWater returns the readmission mark in bytes.
func (b *Budget) LowWater() int64 { return b.low }

// Used returns total accounted bytes across all classes.
func (b *Budget) Used() int64 { return b.total }

// UsedClass returns accounted bytes of one class.
func (b *Budget) UsedClass(c Class) int64 { return b.used[c] }

// Peak returns the high-water mark of accounted bytes over the budget's life.
func (b *Budget) Peak() int64 { return b.peak }

// Ledger returns lifetime charged and released byte totals. Conservation
// holds when charged - released == Used().
func (b *Budget) Ledger() (charged, released int64) { return b.charged, b.released }

// Occupancy returns Used()/HighWater() — ≥ 1 means the card is past its
// admission ceiling. Pure integer inputs keep it deterministic.
func (b *Budget) Occupancy() float64 {
	if b.high == 0 {
		return 0
	}
	return float64(b.total) / float64(b.high)
}

// CanAdmit reports (without side effects) whether a projected footprint fits
// under the high-water mark, so a caller can test a setup or a reply before
// committing to it instead of burning a reject.
func (b *Budget) CanAdmit(projected int64) bool {
	return b.total+projected <= b.high
}

// AdmitStream admission-tests the stream's projected footprint against the
// high-water mark, then charges its state and slot bytes. Frame bytes are
// charged live via the allocator observer as buffers fill.
func (b *Budget) AdmitStream(sc StreamCost) error {
	if !b.CanAdmit(sc.Projected()) {
		b.Rejects++
		b.Rec.Record(blackbox.Event{At: b.Rec.Now(), Kind: blackbox.KindRefusal,
			A: sc.Projected(), Note: "admission refused"})
		b.Rec.Trigger(b.Rec.Now(), "budget-refusal")
		return fmt.Errorf("%w (%s: used %d + projected %d > high %d)",
			ErrAdmission, b.name, b.total, sc.Projected(), b.high)
	}
	b.apply(ClassStreamState, sc.State)
	b.apply(ClassQueueSlots, sc.Slots)
	return nil
}

// ReleaseStream returns a stream's admission charge.
func (b *Budget) ReleaseStream(sc StreamCost) {
	b.Release(ClassStreamState, sc.State)
	b.Release(ClassQueueSlots, sc.Slots)
}

// HeadroomFor reports whether n more bytes fit under the absolute size. The
// producers gate frame allocation on it, which is what keeps Breaches at 0.
func (b *Budget) HeadroomFor(n int64) bool { return b.total+n <= b.size }

// Charge accounts n bytes of class c, refusing charges that would exceed the
// absolute size.
func (b *Budget) Charge(c Class, n int64) error {
	if b.total+n > b.size {
		b.breach()
		return fmt.Errorf("%w (%s: used %d + %d > size %d)", ErrBudget, b.name, b.total, n, b.size)
	}
	b.apply(c, n)
	return nil
}

// breach counts a charge past the absolute size, records it, and triggers.
func (b *Budget) breach() {
	b.Breaches++
	b.Rec.Record(blackbox.Event{At: b.Rec.Now(), Kind: blackbox.KindRefusal,
		A: b.total, Note: "budget breach"})
	b.Rec.Trigger(b.Rec.Now(), "budget-breach")
}

// apply records a charge that has already been validated (or that mirrors a
// physical event which cannot be refused).
func (b *Budget) apply(c Class, n int64) {
	b.used[c] += n
	b.total += n
	b.charged += n
	if b.total > b.peak {
		b.peak = b.total
	}
}

// Release returns n bytes of class c and drains reject-then-retry waiters if
// occupancy fell to the low-water mark. Over-releasing a class panics: it is
// always a double-release bug in the caller.
func (b *Budget) Release(c Class, n int64) {
	if n > b.used[c] {
		panic(fmt.Sprintf("overload: release %d of %s exceeds charged %d", n, c, b.used[c]))
	}
	b.used[c] -= n
	b.total -= n
	b.released += n
	b.drain()
}

// OnAlloc implements mem.Observer: mirror a physical frame-buffer allocation.
// The allocation already happened, so it is recorded unconditionally; if it
// overflows the budget that is a breach (the gates upstream failed).
func (b *Budget) OnAlloc(n int64) {
	if b.total+n > b.size {
		b.breach()
	}
	b.apply(ClassFrameBuf, n)
}

// OnFree implements mem.Observer.
func (b *Budget) OnFree(n int64) { b.Release(ClassFrameBuf, n) }

// Leak erodes the budget by n bytes (faults.MemLeak). Like OnAlloc it cannot
// be refused; overflow counts as a breach.
func (b *Budget) Leak(n int64) {
	if b.total+n > b.size {
		b.breach()
	}
	b.apply(ClassLeak, n)
}

// Drip is the faults.MemLeak injector: every `every` on eng it leaks kbps
// KB/s worth of bytes, each drip clamped to the free bytes so the leak
// squeezes the card's other tenants out but never breaches the budget. It
// runs until the returned stop is called; ReclaimLeak then returns it all.
func (b *Budget) Drip(eng *sim.Engine, every sim.Time, kbps int64) (stop func()) {
	per := (kbps << 10) * int64(every) / int64(sim.Second)
	return eng.Every(every, func() {
		if n := min(per, b.size-b.total); n > 0 {
			b.Leak(n)
		}
	})
}

// ReclaimLeak returns all leaked bytes (fault recovery) and reports how many.
func (b *Budget) ReclaimLeak() int64 {
	n := b.used[ClassLeak]
	if n > 0 {
		b.Release(ClassLeak, n)
	}
	return n
}

// AwaitSpace enrolls cb to run once occupancy drains to the low-water mark.
// Callbacks fire in enrollment order (FIFO), so a retry queue of rejected
// setups is readmitted fairly. Each callback fires exactly once; a retry that
// fails again must re-enroll.
func (b *Budget) AwaitSpace(cb func()) {
	b.waiters = append(b.waiters, cb)
	b.drain()
}

// Waiting returns the number of enrolled retry callbacks.
func (b *Budget) Waiting() int { return len(b.waiters) }

// drain fires waiters while occupancy sits at or below the low-water mark.
// Only the waiters present at entry are considered, and nested calls (a
// firing waiter re-enrolling itself or releasing bytes) are absorbed, so a
// retry that fails again cannot recurse or spin the loop forever.
func (b *Budget) drain() {
	if b.draining {
		return
	}
	b.draining = true
	defer func() { b.draining = false }()
	for n := len(b.waiters); n > 0 && b.total <= b.low && len(b.waiters) > 0; n-- {
		cb := b.waiters[0]
		b.waiters = b.waiters[1:]
		cb()
	}
}

// String summarizes the ledger for reports.
func (b *Budget) String() string {
	return fmt.Sprintf("%s: used %d/%d (high %d, low %d) peak %d rejects %d breaches %d",
		b.name, b.total, b.size, b.high, b.low, b.peak, b.Rejects, b.Breaches)
}
