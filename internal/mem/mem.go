// Package mem models the i960 RD card's memory resources: pinned local DRAM
// (4 MB installed, expandable to 36 MB, §3.1.2) and the 'Hardware Queues' —
// a file of 1004 32-bit memory-mapped registers whose accesses generate no
// external bus cycles (§4.2.1).
//
// Both expose the WordStore interface so the scheduler's descriptor rings
// can live in either, reproducing the Table 2 (DRAM) versus Table 3
// (register file) comparison by construction: the two stores charge
// different operation classes on the same cpu.Meter.
package mem

import (
	"errors"
	"fmt"

	"repro/internal/cpu"
)

// HardwareQueueRegisters is the number of 32-bit registers in the i960 RD
// hardware-queue register file.
const HardwareQueueRegisters = 1004

// DefaultCardMemory is the installed local memory of the I2O cards used in
// the paper.
const DefaultCardMemory = 4 << 20 // 4 MB

// ErrOutOfMemory is returned when an allocation exceeds the card's installed
// memory — the constraint that drives the paper's single-copy frame design.
var ErrOutOfMemory = errors.New("mem: card memory exhausted")

// WordStore is a bounded array of 32-bit words that charges a cpu.Meter per
// access. Frame descriptors (addresses plus attributes) are stored as words.
type WordStore interface {
	// ReadWord returns word i, charging the meter.
	ReadWord(i int) uint32
	// WriteWord sets word i, charging the meter.
	WriteWord(i int, v uint32)
	// Cap returns the number of words available.
	Cap() int
	// Kind names the store for reports ("pinned-dram", "hw-registers").
	Kind() string
}

// RegisterFile is the memory-mapped hardware-queue register file. Reads and
// writes cost on-chip register cycles regardless of data-cache state.
type RegisterFile struct {
	meter *cpu.Meter
	regs  [HardwareQueueRegisters]uint32
}

// NewRegisterFile returns a register file charging meter (nil allowed).
func NewRegisterFile(meter *cpu.Meter) *RegisterFile {
	return &RegisterFile{meter: meter}
}

// ReadWord implements WordStore.
func (r *RegisterFile) ReadWord(i int) uint32 {
	r.meter.RegRead(1)
	return r.regs[i]
}

// WriteWord implements WordStore.
func (r *RegisterFile) WriteWord(i int, v uint32) {
	r.meter.RegWrite(1)
	r.regs[i] = v
}

// Cap implements WordStore.
func (r *RegisterFile) Cap() int { return HardwareQueueRegisters }

// Kind implements WordStore.
func (r *RegisterFile) Kind() string { return "hw-registers" }

// DRAMStore keeps descriptor words in pinned local card memory; accesses
// charge memory-read/write cost and therefore feel the data-cache state.
type DRAMStore struct {
	meter *cpu.Meter
	words []uint32
	kind  string
}

// NewDRAMStore returns a store of n words in pinned card memory.
func NewDRAMStore(meter *cpu.Meter, n int) *DRAMStore {
	return &DRAMStore{meter: meter, words: make([]uint32, n), kind: "pinned-dram"}
}

// ReadWord implements WordStore.
func (d *DRAMStore) ReadWord(i int) uint32 {
	d.meter.MemRead(1)
	return d.words[i]
}

// WriteWord implements WordStore.
func (d *DRAMStore) WriteWord(i int, v uint32) {
	d.meter.MemWrite(1)
	d.words[i] = v
}

// Cap implements WordStore.
func (d *DRAMStore) Cap() int { return len(d.words) }

// Kind implements WordStore.
func (d *DRAMStore) Kind() string { return d.kind }

// Region is a window [base, base+n) of an underlying WordStore, letting
// several per-stream descriptor rings share one register file or one pinned
// DRAM array.
type Region struct {
	Store WordStore
	Base  int
	N     int
}

// NewRegion returns the window [base, base+n) of s, panicking if the range
// exceeds the store.
func NewRegion(s WordStore, base, n int) *Region {
	if base < 0 || n < 0 || base+n > s.Cap() {
		panic(fmt.Sprintf("mem: region [%d,%d) exceeds store cap %d", base, base+n, s.Cap()))
	}
	return &Region{Store: s, Base: base, N: n}
}

// ReadWord implements WordStore.
func (r *Region) ReadWord(i int) uint32 { return r.Store.ReadWord(r.Base + i) }

// WriteWord implements WordStore.
func (r *Region) WriteWord(i int, v uint32) { r.Store.WriteWord(r.Base+i, v) }

// Cap implements WordStore.
func (r *Region) Cap() int { return r.N }

// Kind implements WordStore.
func (r *Region) Kind() string { return r.Store.Kind() }

// Addr identifies an allocation in card memory.
type Addr uint32

// Observer is notified after every successful allocation and every free.
// The overload budget accountant mirrors physical frame-buffer usage through
// this hook without Memory having to know about budgets.
type Observer interface {
	OnAlloc(n int64)
	OnFree(n int64)
}

// Memory is a card's local DRAM allocator. The paper keeps a single copy of
// each frame in NI memory and manipulates addresses (§3.1.2); Memory is the
// accounting for that: allocations fail once the installed size is exceeded.
type Memory struct {
	size int64
	used int64
	peak int64
	obs  Observer

	// Addresses are handed out in increasing order from 1: sizes[i] is the
	// size of the allocation at base+i, or -1 once it is freed. Frames are
	// freed roughly in allocation order, so the freed prefix sizes[:head] is
	// dropped as it forms: the slice is emptied when nothing is live, and
	// when it is full the live part moves down over a prefix at least half
	// its length instead of growing it.
	base  Addr
	head  int
	sizes []int64
}

// NewMemory returns an allocator over size bytes of card memory.
func NewMemory(size int64) *Memory {
	return &Memory{size: size, base: 1}
}

// Alloc reserves n bytes, returning its address, or ErrOutOfMemory.
func (m *Memory) Alloc(n int64) (Addr, error) {
	if n < 0 {
		return 0, fmt.Errorf("mem: negative allocation %d", n)
	}
	if m.used+n > m.size {
		return 0, fmt.Errorf("%w: want %d, free %d", ErrOutOfMemory, n, m.size-m.used)
	}
	if len(m.sizes) == cap(m.sizes) && m.head > 0 && 2*m.head >= len(m.sizes) {
		live := copy(m.sizes, m.sizes[m.head:])
		m.sizes, m.base, m.head = m.sizes[:live], m.base+Addr(m.head), 0
	}
	a := m.base + Addr(len(m.sizes))
	m.sizes = append(m.sizes, n)
	m.used += n
	if m.used > m.peak {
		m.peak = m.used
	}
	if m.obs != nil {
		m.obs.OnAlloc(n)
	}
	return a, nil
}

// Free releases the allocation at a. Freeing an unknown address panics: it
// is always a double-free bug in the caller.
func (m *Memory) Free(a Addr) {
	i := int(a) - int(m.base)
	if i < m.head || i >= len(m.sizes) || m.sizes[i] < 0 {
		panic(fmt.Sprintf("mem: free of unknown addr %d", a))
	}
	n := m.sizes[i]
	m.sizes[i] = -1
	for m.head < len(m.sizes) && m.sizes[m.head] < 0 {
		m.head++
	}
	if m.head == len(m.sizes) {
		m.sizes, m.base, m.head = m.sizes[:0], m.base+Addr(m.head), 0
	}
	m.used -= n
	if m.obs != nil {
		m.obs.OnFree(n)
	}
}

// Observe installs obs (nil detaches). At most one observer is supported;
// allocations made before attachment are not replayed.
func (m *Memory) Observe(obs Observer) { m.obs = obs }

// Used returns currently allocated bytes.
func (m *Memory) Used() int64 { return m.used }

// Peak returns the high-water mark of allocated bytes.
func (m *Memory) Peak() int64 { return m.peak }

// Free bytes remaining.
func (m *Memory) Avail() int64 { return m.size - m.used }

// Size returns the installed memory size.
func (m *Memory) Size() int64 { return m.size }
