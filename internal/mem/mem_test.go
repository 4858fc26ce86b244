package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/cpu"
)

func TestRegisterFileRoundTrip(t *testing.T) {
	r := NewRegisterFile(nil)
	r.WriteWord(0, 42)
	r.WriteWord(HardwareQueueRegisters-1, 7)
	if got := r.ReadWord(0); got != 42 {
		t.Errorf("reg[0] = %d", got)
	}
	if got := r.ReadWord(HardwareQueueRegisters - 1); got != 7 {
		t.Errorf("reg[last] = %d", got)
	}
	if r.Cap() != HardwareQueueRegisters {
		t.Errorf("Cap = %d", r.Cap())
	}
	if r.Kind() != "hw-registers" {
		t.Errorf("Kind = %q", r.Kind())
	}
}

func TestDRAMStoreRoundTrip(t *testing.T) {
	d := NewDRAMStore(nil, 16)
	d.WriteWord(3, 99)
	if got := d.ReadWord(3); got != 99 {
		t.Errorf("word[3] = %d", got)
	}
	if d.Cap() != 16 {
		t.Errorf("Cap = %d", d.Cap())
	}
	if d.Kind() != "pinned-dram" {
		t.Errorf("Kind = %q", d.Kind())
	}
}

func TestStoresChargeDifferentOpClasses(t *testing.T) {
	mr := cpu.NewMeter(cpu.I960RD())
	reg := NewRegisterFile(mr)
	reg.WriteWord(0, 1)
	reg.ReadWord(0)
	if mr.Count(cpu.OpRegRead) != 1 || mr.Count(cpu.OpRegWrite) != 1 {
		t.Error("register file should charge register ops")
	}
	if mr.Count(cpu.OpMemRead) != 0 {
		t.Error("register file must not charge memory ops")
	}

	md := cpu.NewMeter(cpu.I960RD())
	dram := NewDRAMStore(md, 4)
	dram.WriteWord(0, 1)
	dram.ReadWord(0)
	if md.Count(cpu.OpMemRead) != 1 || md.Count(cpu.OpMemWrite) != 1 {
		t.Error("DRAM store should charge memory ops")
	}
}

func TestRegisterFileImmuneToCacheState(t *testing.T) {
	on := cpu.NewMeter(cpu.I960RD())
	off := cpu.NewMeter(cpu.I960RD())
	off.CacheOn = false
	NewRegisterFile(on).ReadWord(0)
	NewRegisterFile(off).ReadWord(0)
	if on.Cycles() != off.Cycles() {
		t.Fatalf("register access cost differs with cache state: %d vs %d", on.Cycles(), off.Cycles())
	}
}

func TestMemoryAllocFree(t *testing.T) {
	m := NewMemory(1000)
	a, err := m.Alloc(400)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc(600)
	if err != nil {
		t.Fatal(err)
	}
	if m.Used() != 1000 || m.Avail() != 0 {
		t.Fatalf("used=%d avail=%d", m.Used(), m.Avail())
	}
	if _, err := m.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	m.Free(a)
	if m.Avail() != 400 {
		t.Fatalf("avail after free = %d", m.Avail())
	}
	m.Free(b)
	if m.Used() != 0 {
		t.Fatalf("used after frees = %d", m.Used())
	}
	if m.Peak() != 1000 {
		t.Fatalf("peak = %d", m.Peak())
	}
	if m.Size() != 1000 {
		t.Fatalf("size = %d", m.Size())
	}
}

func TestMemoryDoubleFreePanics(t *testing.T) {
	m := NewMemory(100)
	a, _ := m.Alloc(10)
	m.Free(a)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double free")
		}
	}()
	m.Free(a)
}

// Frees in any order release exactly their own bytes, and an address that
// was never handed out, or was already freed, panics.
func TestMemoryFreesOutOfOrder(t *testing.T) {
	m := NewMemory(1 << 20)
	var live []Addr
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			a, err := m.Alloc(int64(100 + round + i))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, a)
		}
		// Free every other live allocation, newest first, so the oldest
		// stays live for a while and gaps open behind it.
		var keep []Addr
		for i := len(live) - 1; i >= 0; i-- {
			if i%2 == round%2 {
				m.Free(live[i])
			} else {
				keep = append([]Addr{live[i]}, keep...)
			}
		}
		live = keep
	}
	want := int64(0)
	for _, a := range live {
		want += m.sizes[int(a)-int(m.base)]
	}
	if m.Used() != want {
		t.Fatalf("used %d, live allocations hold %d", m.Used(), want)
	}
	for _, a := range live {
		m.Free(a)
	}
	if m.Used() != 0 {
		t.Fatalf("used %d after freeing everything", m.Used())
	}
	a, _ := m.Alloc(1)
	for _, bad := range []Addr{0, live[0], a + 1} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("Free(%d): no panic", bad)
				}
			}()
			m.Free(bad)
		}()
	}
}

// A steady stream of allocations freed in order reuses the size table.
func TestMemoryAllocFreeDoesNotAllocate(t *testing.T) {
	m := NewMemory(1 << 20)
	var ring [16]Addr
	for i := range ring {
		ring[i], _ = m.Alloc(1000)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		m.Free(ring[i%len(ring)])
		ring[i%len(ring)], _ = m.Alloc(1000)
		i++
	})
	if allocs != 0 {
		t.Errorf("%v allocs per free and alloc, want 0", allocs)
	}
}

func TestMemoryNegativeAlloc(t *testing.T) {
	m := NewMemory(100)
	if _, err := m.Alloc(-1); err == nil {
		t.Fatal("expected error for negative allocation")
	}
}

func TestDefaultCardMemoryHolds4MB(t *testing.T) {
	m := NewMemory(DefaultCardMemory)
	// The paper stores ~150 MPEG frames (tens of KB each) plus descriptors
	// in 4 MB; confirm that budget fits.
	for i := 0; i < 151; i++ {
		if _, err := m.Alloc(20 << 10); err != nil {
			t.Fatalf("frame %d failed: %v", i, err)
		}
	}
	if m.Avail() < 0 {
		t.Fatal("negative avail")
	}
}

// Property: used never exceeds size and alloc+free is balanced.
func TestMemoryInvariant(t *testing.T) {
	f := func(sizes []uint16) bool {
		m := NewMemory(1 << 20)
		var live []Addr
		for _, s := range sizes {
			if a, err := m.Alloc(int64(s)); err == nil {
				live = append(live, a)
			}
			if m.Used() > m.Size() {
				return false
			}
		}
		for _, a := range live {
			m.Free(a)
		}
		return m.Used() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: word stores return the last value written at each index.
func TestWordStoreLastWriteWins(t *testing.T) {
	f := func(writes []struct {
		I uint8
		V uint32
	}) bool {
		stores := []WordStore{NewRegisterFile(nil), NewDRAMStore(nil, 256)}
		for _, s := range stores {
			shadow := make(map[int]uint32)
			for _, w := range writes {
				i := int(w.I) % s.Cap()
				s.WriteWord(i, w.V)
				shadow[i] = w.V
			}
			for i, v := range shadow {
				if s.ReadWord(i) != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
