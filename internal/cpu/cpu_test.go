package cpu

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestCycleTime(t *testing.T) {
	m := I960RD()
	// 66 MHz → 15.15 ns/cycle.
	ct := m.CycleTime()
	if ct < 15 || ct > 16 {
		t.Fatalf("i960 cycle time = %v ns, want ~15", int64(ct))
	}
	if got := m.Duration(66_000_000); got != sim.Second {
		t.Fatalf("66M cycles at 66MHz = %v, want 1s", got)
	}
}

func TestNilMeterIsNoop(t *testing.T) {
	var m *Meter
	m.Int(5)
	m.Frac(3)
	m.CtxSwitch()
	m.ChargeCycles(100)
	m.Reset()
	if m.Cycles() != 0 || m.Elapsed() != 0 || m.Count(OpInt) != 0 {
		t.Fatal("nil meter should accumulate nothing")
	}
}

func TestMeterAccumulates(t *testing.T) {
	m := NewMeter(I960RD())
	m.Int(10)
	m.Branch(5)
	m.MemRead(3)
	if got := m.Count(OpInt); got != 10 {
		t.Errorf("int count = %d", got)
	}
	want := int64(10*1 + 5*2 + 3*2)
	if got := m.Cycles(); got != want {
		t.Errorf("cycles = %d, want %d", got, want)
	}
	m.Reset()
	if m.Cycles() != 0 {
		t.Error("reset did not clear cycles")
	}
}

func TestUncachedPenaltyAppliesOnlyToMemory(t *testing.T) {
	on := NewMeter(I960RD())
	off := NewMeter(I960RD())
	off.CacheOn = false
	for _, m := range []*Meter{on, off} {
		m.MemRead(10)
		m.MemWrite(10)
		m.Int(10)
		m.RegRead(10)
	}
	delta := off.Cycles() - on.Cycles()
	want := int64(20 * I960RD().UncachedPenalty)
	if delta != want {
		t.Fatalf("cache-off delta = %d cycles, want %d", delta, want)
	}
}

func TestRegisterAccessCheaperThanUncachedMemory(t *testing.T) {
	m := NewMeter(I960RD())
	m.CacheOn = false
	m.RegRead(1)
	reg := m.Cycles()
	m.Reset()
	m.MemRead(1)
	mem := m.Cycles()
	if reg >= mem {
		t.Fatalf("register read (%d) should be cheaper than uncached memory read (%d)", reg, mem)
	}
}

func TestFracChargesByArithmeticMode(t *testing.T) {
	model := I960RD()
	soft := NewMeter(model)
	soft.Arith = SoftFP
	fix := NewMeter(model)
	fix.Arith = FixedPoint
	soft.Frac(1)
	fix.Frac(1)
	if soft.Cycles() <= fix.Cycles() {
		t.Fatalf("softFP (%d cycles) should cost more than fixed (%d)", soft.Cycles(), fix.Cycles())
	}
	// NativeFP on an FPU-less model falls back to the software library.
	native := NewMeter(model)
	native.Arith = NativeFP
	native.Frac(1)
	if native.Cycles() != soft.Cycles() {
		t.Fatalf("nativeFP on i960 = %d cycles, want softFP cost %d", native.Cycles(), soft.Cycles())
	}
	// NativeFP on a host CPU uses the FPU.
	host := NewMeter(UltraSparc300())
	host.Arith = NativeFP
	host.Frac(1)
	if host.Cycles() >= soft.Cycles() {
		t.Fatalf("host native FP should be cheap, got %d cycles", host.Cycles())
	}
}

func TestSoftFPCostDominatesFixed(t *testing.T) {
	// The paper's ~20µs-per-decision gap requires softFP ≫ fixed per op.
	m := I960RD()
	if m.Cost[OpSoftFP] < 5*m.Cost[OpFixed] {
		t.Fatalf("softFP (%d) should be ≫ fixed (%d)", m.Cost[OpSoftFP], m.Cost[OpFixed])
	}
}

func TestLapAccounting(t *testing.T) {
	m := NewMeter(I960RD())
	lap := StartLap(m)
	m.Int(66) // 66 cycles = 1 µs at 66 MHz
	d1 := lap.Take()
	if d1 != sim.Microsecond {
		t.Fatalf("lap 1 = %v, want 1µs", d1)
	}
	m.Int(132)
	d2 := lap.Take()
	if d2 != 2*sim.Microsecond {
		t.Fatalf("lap 2 = %v, want 2µs", d2)
	}
	if lap.Take() != 0 {
		t.Fatal("empty lap should be 0")
	}
}

func TestLapOnNilMeter(t *testing.T) {
	lap := StartLap(nil)
	if lap.Take() != 0 {
		t.Fatal("nil-meter lap should be 0")
	}
}

func TestOpClassString(t *testing.T) {
	if OpSoftFP.String() != "softFP" {
		t.Errorf("OpSoftFP = %q", OpSoftFP.String())
	}
	if OpClass(99).String() != "OpClass(99)" {
		t.Errorf("unknown class = %q", OpClass(99).String())
	}
	if FixedPoint.String() != "fixedPoint" || SoftFP.String() != "softFP" || NativeFP.String() != "nativeFP" {
		t.Error("Arithmetic names wrong")
	}
	if Arithmetic(9).String() != "Arithmetic(9)" {
		t.Error("unknown Arithmetic name wrong")
	}
}

// Property: cycles are additive and order-independent for a fixed multiset
// of operations.
func TestMeterAdditive(t *testing.T) {
	f := func(ints, branches, reads uint8) bool {
		a := NewMeter(I960RD())
		a.Int(int(ints))
		a.Branch(int(branches))
		a.MemRead(int(reads))
		b := NewMeter(I960RD())
		b.MemRead(int(reads))
		b.Int(int(ints))
		b.Branch(int(branches))
		return a.Cycles() == b.Cycles()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Elapsed is monotone in charged work.
func TestElapsedMonotone(t *testing.T) {
	f := func(n uint16) bool {
		m := NewMeter(I960RD())
		m.Int(int(n))
		before := m.Elapsed()
		m.Int(1)
		return m.Elapsed() >= before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
