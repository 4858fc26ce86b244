// Package cpu models the processors in the paper's testbed as per-operation
// cycle-cost meters.
//
// The reproduction does not emulate instruction sets. Instead, the real
// scheduler code (internal/dwcs) charges a Meter for every abstract
// operation it performs — memory reads and writes of descriptors, integer
// comparisons, branch decisions, fraction arithmetic — and the meter converts
// accumulated cycles into simulated time at the processor's clock rate.
// The paper's headline contrasts (software floating point vs fixed point,
// data cache on vs off, memory-mapped register file vs DRAM, 66 MHz i960 RD
// vs 300 MHz UltraSPARC) then emerge from operation counts and per-class
// costs rather than from hard-coded answers.
package cpu

import (
	"fmt"

	"repro/internal/sim"
)

// OpClass identifies a class of abstract operation with a per-model cycle
// cost.
type OpClass int

// Operation classes charged by the scheduler and substrate code.
const (
	OpInt      OpClass = iota // integer ALU operation
	OpBranch                  // conditional branch / loop step
	OpMemRead                 // data load (cost assumes cache hit; see UncachedPenalty)
	OpMemWrite                // data store
	OpRegRead                 // on-chip memory-mapped register read (no external bus cycle)
	OpRegWrite                // on-chip memory-mapped register write
	OpSoftFP                  // software floating-point library operation
	OpNativeFP                // hardware floating-point operation
	OpFixed                   // fixed-point fraction operation (internal/fixed)
	OpCall                    // function call / return overhead
	OpSyscall                 // OS system-call trap (host processors only)
	numOpClasses
)

var opNames = [numOpClasses]string{
	"int", "branch", "memRead", "memWrite", "regRead", "regWrite",
	"softFP", "nativeFP", "fixed", "call", "syscall",
}

// String returns the short name of the class.
func (c OpClass) String() string {
	if c < 0 || int(c) >= len(opNames) {
		return fmt.Sprintf("OpClass(%d)", int(c))
	}
	return opNames[c]
}

// CycleObserver receives a Meter's charged work labeled with the
// (component, operation) context active when it was charged (see
// Meter.SetContext) — the hook behind the telemetry cycle-cost profiler.
// Charges are delivered as aggregated deltas at attribution boundaries
// (SetContext, Observe, Reset, Cycles) rather than one call per charge:
// the context can only change at those same boundaries, so attribution is
// identical, and the meter's per-operation fast paths carry no observer
// code and stay within the compiler's inlining budget. ops counts charged
// operations (0 for pure raw-cycle charges such as context switches);
// cycles is the full cost including any uncached-memory penalty.
type CycleObserver interface {
	ObserveCycles(component, operation string, ops, cycles int64)
}

// Model describes a processor: clock rate plus a cycle cost per operation
// class. Costs are for the cache-enabled case; UncachedPenalty is added to
// every memory read/write when the data cache is disabled, reproducing the
// paper's cache-off measurements (the VxWorks disk driver disables the data
// cache, §4.2).
type Model struct {
	Name            string
	ClockHz         int64
	HasFPU          bool
	Cost            [numOpClasses]int64
	UncachedPenalty int64 // extra cycles per memory access with data cache off
	CtxSwitch       int64 // cycles for a context switch including cache-pollution refill
}

// CycleTime returns the duration of one clock cycle.
func (m *Model) CycleTime() sim.Time {
	return sim.Time(int64(sim.Second) / m.ClockHz)
}

// Duration converts a cycle count into simulated time.
func (m *Model) Duration(cycles int64) sim.Time {
	return sim.Time(cycles * int64(sim.Second) / m.ClockHz)
}

// I960RD models the 66 MHz Intel i960 RD I/O co-processor on the I2O card:
// no FPU (software floating point costs hundreds of cycles), single-issue
// core, on-chip memory-mapped register file reachable without external bus
// cycles, and local DRAM that is slow when the data cache is off.
func I960RD() *Model {
	m := &Model{
		Name:            "i960RD-66MHz",
		ClockHz:         66_000_000,
		HasFPU:          false,
		UncachedPenalty: 8,
		CtxSwitch:       600,
	}
	m.Cost = [numOpClasses]int64{
		OpInt:      1,
		OpBranch:   2,
		OpMemRead:  2,
		OpMemWrite: 2,
		OpRegRead:  1,
		OpRegWrite: 1,
		OpSoftFP:   260, // VxWorks software-FP library call
		OpNativeFP: 260, // no FPU: native requests fall back to the library
		OpFixed:    28,  // fraction compare/update via integer ops and shifts
		OpCall:     8,
		OpSyscall:  0, // standalone VxWorks: no protection-domain crossing
	}
	return m
}

// UltraSparc300 models the 300 MHz UltraSPARC on which the host-based DWCS
// overhead of ~50 µs was measured in the prior work the paper compares to.
func UltraSparc300() *Model {
	m := &Model{
		Name:            "UltraSPARC-300MHz",
		ClockHz:         300_000_000,
		HasFPU:          true,
		UncachedPenalty: 40,
		CtxSwitch:       5000,
	}
	m.Cost = [numOpClasses]int64{
		OpInt:      1,
		OpBranch:   1,
		OpMemRead:  3,
		OpMemWrite: 3,
		OpRegRead:  3,
		OpRegWrite: 3,
		OpSoftFP:   180,
		OpNativeFP: 4,
		OpFixed:    18,
		OpCall:     6,
		OpSyscall:  600,
	}
	return m
}

// Arithmetic selects how the scheduler's fraction arithmetic is charged —
// the paper's software-FP build versus its fixed-point build (§4.2).
type Arithmetic int

const (
	// SoftFP charges every fraction operation as a software floating-point
	// library call (the VxWorks FP library build).
	SoftFP Arithmetic = iota
	// FixedPoint charges fraction operations at integer/shift cost (the
	// paper's own fixed-point library build).
	FixedPoint
	// NativeFP charges hardware floating-point cost; only meaningful on
	// models with an FPU (host processors).
	NativeFP
)

// String names the arithmetic mode.
func (a Arithmetic) String() string {
	switch a {
	case SoftFP:
		return "softFP"
	case FixedPoint:
		return "fixedPoint"
	case NativeFP:
		return "nativeFP"
	default:
		return fmt.Sprintf("Arithmetic(%d)", int(a))
	}
}

// Meter accumulates operation counts and cycles for code executing on one
// processor. A nil *Meter is valid and charges nothing, so instrumented code
// can call it unconditionally.
type Meter struct {
	Model   *Model
	CacheOn bool       // data cache state (paper Tables 1 vs 2)
	Arith   Arithmetic // how fraction math is charged

	cycles int64
	counts [numOpClasses]int64

	obs       CycleObserver // optional; receives attribution deltas at context boundaries
	comp, op  string        // current attribution context
	obsOps    int64         // ops already reported to obs
	obsCycles int64         // cycles already reported to obs
}

// flushObserved reports everything charged since the previous flush to the
// observer, attributed to the current context. It runs only at attribution
// boundaries — SetContext, Observe, Reset, Cycles — so the per-charge fast
// paths (Op and friends) carry no observer code; the context cannot change
// between boundaries, so the aggregate attribution matches a per-charge
// report exactly. Callers guard on m.obs != nil.
func (m *Meter) flushObserved() {
	var ops int64
	for _, n := range m.counts {
		ops += n
	}
	if ops != m.obsOps || m.cycles != m.obsCycles {
		m.obs.ObserveCycles(m.comp, m.op, ops-m.obsOps, m.cycles-m.obsCycles)
		m.obsOps, m.obsCycles = ops, m.cycles
	}
}

// Observe attaches a cycle observer; nil detaches, flushing any pending
// attribution to the outgoing observer first. Charges made before attach
// are not reported retroactively.
func (m *Meter) Observe(obs CycleObserver) {
	if m == nil {
		return
	}
	if m.obs != nil {
		m.flushObserved()
	}
	m.obs = obs
	var ops int64
	for _, n := range m.counts {
		ops += n
	}
	m.obsOps, m.obsCycles = ops, m.cycles
}

// SetContext labels subsequent charges with a (component, operation) pair
// for cycle attribution and returns the previous labels so callers can
// restore them on exit:
//
//	prevC, prevO := m.SetContext("dwcs", "decision")
//	defer m.SetContext(prevC, prevO)
func (m *Meter) SetContext(component, operation string) (prevComponent, prevOperation string) {
	if m == nil {
		return "", ""
	}
	if m.obs != nil {
		m.flushObserved()
	}
	prevComponent, prevOperation = m.comp, m.op
	m.comp, m.op = component, operation
	return prevComponent, prevOperation
}

// NewMeter returns a meter for model with the cache enabled and fixed-point
// arithmetic.
func NewMeter(model *Model) *Meter {
	return &Meter{Model: model, CacheOn: true, Arith: FixedPoint}
}

// Op charges n operations of class c.
func (m *Meter) Op(c OpClass, n int) {
	if m == nil || n == 0 {
		return
	}
	m.counts[c] += int64(n)
	cost := m.Model.Cost[c]
	if !m.CacheOn && (c == OpMemRead || c == OpMemWrite) {
		cost += m.Model.UncachedPenalty
	}
	m.cycles += cost * int64(n)
}

// Int charges n integer ALU operations.
func (m *Meter) Int(n int) { m.Op(OpInt, n) }

// Branch charges n branches.
func (m *Meter) Branch(n int) { m.Op(OpBranch, n) }

// MemRead charges n data loads.
func (m *Meter) MemRead(n int) { m.Op(OpMemRead, n) }

// MemWrite charges n data stores.
func (m *Meter) MemWrite(n int) { m.Op(OpMemWrite, n) }

// RegRead charges n on-chip register reads.
func (m *Meter) RegRead(n int) { m.Op(OpRegRead, n) }

// RegWrite charges n on-chip register writes.
func (m *Meter) RegWrite(n int) { m.Op(OpRegWrite, n) }

// Call charges n function-call overheads.
func (m *Meter) Call(n int) { m.Op(OpCall, n) }

// Syscall charges n system-call traps.
func (m *Meter) Syscall(n int) { m.Op(OpSyscall, n) }

// Frac charges n fraction (loss-tolerance) operations according to the
// configured Arithmetic mode.
func (m *Meter) Frac(n int) {
	if m == nil {
		return
	}
	switch m.Arith {
	case SoftFP:
		m.Op(OpSoftFP, n)
	case NativeFP:
		if m.Model.HasFPU {
			m.Op(OpNativeFP, n)
		} else {
			m.Op(OpSoftFP, n)
		}
	default:
		m.Op(OpFixed, n)
	}
}

// CtxSwitch charges one context switch on the model.
func (m *Meter) CtxSwitch() {
	if m == nil {
		return
	}
	m.cycles += m.Model.CtxSwitch
}

// ChargeCycles adds raw cycles (driver fixed costs and the like).
func (m *Meter) ChargeCycles(c int64) {
	if m == nil {
		return
	}
	m.cycles += c
}

// Cycles returns accumulated cycles. When an observer is attached, pending
// attribution is flushed first, so an observer that saw every boundary
// reconciles exactly with the returned count.
func (m *Meter) Cycles() int64 {
	if m == nil {
		return 0
	}
	if m.obs != nil {
		m.flushObserved()
	}
	return m.cycles
}

// Count returns how many operations of class c were charged.
func (m *Meter) Count(c OpClass) int64 {
	if m == nil {
		return 0
	}
	return m.counts[c]
}

// Elapsed converts accumulated cycles to simulated time.
func (m *Meter) Elapsed() sim.Time {
	if m == nil {
		return 0
	}
	return m.Model.Duration(m.cycles)
}

// Reset zeroes the accumulated cycles and counts.
func (m *Meter) Reset() {
	if m == nil {
		return
	}
	if m.obs != nil {
		m.flushObserved()
	}
	m.cycles = 0
	m.counts = [numOpClasses]int64{}
	m.obsOps, m.obsCycles = 0, 0
}

// Lap returns the time accumulated since the previous Lap (or Reset) and
// marks the new lap start. It is how callers convert a burst of charged
// operations into one simulated-time interval.
type Lap struct {
	meter *Meter
	mark  int64
}

// StartLap begins interval accounting on m.
func StartLap(m *Meter) *Lap { return &Lap{meter: m, mark: m.Cycles()} }

// Take returns the simulated time of cycles charged since the last Take (or
// StartLap) and advances the mark.
func (l *Lap) Take() sim.Time {
	if l.meter == nil {
		return 0
	}
	now := l.meter.Cycles()
	d := l.meter.Model.Duration(now - l.mark)
	l.mark = now
	return d
}
