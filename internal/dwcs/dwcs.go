// Package dwcs implements Dynamic Window-Constrained Scheduling, the media
// scheduler the paper embeds on the i960 RD network interface (§3).
//
// Each stream i carries two attributes (§3.1.2):
//
//   - Deadline: the latest time a packet can commence service, derived from
//     the maximum allowable time between servicing consecutive packets in
//     the same stream (the stream period T). Successive packets' deadlines
//     are offset by T.
//   - Loss-tolerance x/y: at most x packets may be lost or sent late per
//     window of y consecutive packets.
//
// The scheduler keeps a current window (x', y') per stream, picks the
// highest-precedence head-of-line packet across streams, and adjusts
// windows on every service and every deadline miss. The precedence rules
// and window adjustments follow the DWCS papers the paper builds on
// ([32, 33]; see DESIGN.md §4 for the reconstruction notes). Two precedence
// variants are provided: LossFirst (lowest window-constraint first — the
// variant this paper uses) and EDFFirst (the later RTSS'00 formulation), as
// an ablation.
//
// All descriptor-touching operations charge a cpu.Meter, so the same code
// measured on the simulated i960 RD reproduces the Table 1–3
// microbenchmarks, and measured on a host CPU model reproduces the
// host-scheduler comparison.
package dwcs

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cpu"
	"repro/internal/fixed"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Precedence selects the pairwise packet-ordering variant.
type Precedence int

// Precedence variants.
const (
	// LossFirst orders by lowest window-constraint, breaking ties earliest
	// deadline first — the ordering used by the paper.
	LossFirst Precedence = iota
	// EDFFirst orders earliest deadline first, breaking ties by lowest
	// window-constraint — the later RTSS'00 formulation (ablation).
	EDFFirst
)

// String names the variant.
func (p Precedence) String() string {
	switch p {
	case LossFirst:
		return "lossFirst"
	case EDFFirst:
		return "edfFirst"
	default:
		return fmt.Sprintf("Precedence(%d)", int(p))
	}
}

// SelectorKind chooses the next-packet search structure (§3.1.1 calls for
// an extensible design decoupling scheduling analysis from schedule
// representation).
type SelectorKind int

// Selector kinds (§3.1.1 lists all four schedule representations).
const (
	// Scan linearly walks head-of-line packets — what the embedded i960
	// implementation does ("the scheduler loops through the frame
	// descriptors and picks the eligible descriptor", §4.2.1).
	Scan SelectorKind = iota
	// Heaps maintains the Figure 4(a) priority structure with O(log n)
	// updates per head change.
	Heaps
	// SortedList keeps streams in a precedence-sorted list: O(1) best,
	// O(n) per head change.
	SortedList
	// Calendar buckets streams by head deadline. Valid only with the
	// EDFFirst precedence, whose primary key is the deadline.
	Calendar
)

// String names the selector.
func (k SelectorKind) String() string {
	switch k {
	case Heaps:
		return "heaps"
	case SortedList:
		return "sortedList"
	case Calendar:
		return "calendar"
	default:
		return "scan"
	}
}

// Errors returned by scheduler operations. The per-frame paths — an
// enqueue bounced off a full ring or an exhausted descriptor table, any
// call naming an unknown stream — return values built once, so a rejected
// frame allocates nothing; match them with errors.Is.
var (
	ErrUnknownStream = errors.New("dwcs: unknown stream")
	ErrDuplicateID   = errors.New("dwcs: duplicate stream id")
	ErrBufferFull    = errors.New("dwcs: stream buffer full")
	ErrBadSpec       = errors.New("dwcs: invalid stream spec")

	errTableFull = fmt.Errorf("%w: descriptor table exhausted", ErrBufferFull)
)

// StreamSpec declares one media stream.
type StreamSpec struct {
	ID     int
	Name   string
	Period sim.Time   // deadline offset T between consecutive packets
	Loss   fixed.Frac // loss-tolerance x/y (x of every y packets may be lost/late)
	Lossy  bool       // true: drop late packets; false: transmit them late
	BufCap int        // circular-buffer capacity in descriptors
	// NominalBytes is the stream's declared frame size, used by overload
	// admission to project worst-case resident bytes (0 = undeclared).
	NominalBytes int64
}

func (s StreamSpec) validate() error {
	x, y := s.Loss.Num, s.Loss.Den
	if y == 0 {
		y = 1
	}
	switch {
	case s.Period <= 0:
		return fmt.Errorf("%w: period must be positive", ErrBadSpec)
	case s.BufCap <= 0:
		return fmt.Errorf("%w: buffer capacity must be positive", ErrBadSpec)
	case x < 0 || y < 1 || x > y:
		return fmt.Errorf("%w: loss-tolerance %v must satisfy 0 ≤ x ≤ y", ErrBadSpec, s.Loss)
	}
	return nil
}

// Packet is a frame descriptor queued for service.
type Packet struct {
	StreamID int
	Seq      int64
	Bytes    int64
	Offset   int64 // media-file offset, carried for producers
	Enqueued sim.Time
	Deadline sim.Time
	Payload  any

	missed bool
	slot   uint32
}

// StreamStats counts per-stream scheduler outcomes.
type StreamStats struct {
	Enqueued      int64
	Serviced      int64
	BytesServiced int64
	Dropped       int64
	Late          int64 // serviced after their deadline (lossless streams)
	Violations    int64 // misses while the current window allowed no loss
	RejectedFull  int64 // enqueue attempts bounced off a full ring
	Shed          int64 // packets shed proactively within loss tolerance (overload)
}

// Losses returns the stream's total lost-or-late packets — deadline drops,
// late deliveries, and proactive sheds. This is the numerator the SLO
// monitor rates against the stream's declared (x, y) loss window: the
// window tolerates losses at up to x/y of attempts, so the error budget is
// burned exactly as fast as Losses grows relative to Attempts.
func (st StreamStats) Losses() int64 { return st.Dropped + st.Late + st.Shed }

// Attempts returns serviced plus lost packets — the denominator of the
// loss-ratio SLO.
func (st StreamStats) Attempts() int64 { return st.Serviced + st.Losses() }

type stream struct {
	spec    StreamSpec
	ring    *Ring
	errFull error // the ring-full rejection, built on the first one
	x, y    int64 // original window (losses allowed / window size)
	cx      int64 // losses still allowed in the current window
	cy      int64 // packets remaining in the current window
	last    sim.Time
	seq     int64
	stats   StreamStats

	heap    *streamHeap // heap of the Heaps selector holding the stream, nil if none
	heapIdx int         // position in it
	eligAt  sim.Time    // paced Heaps: when the head becomes eligible
	listIdx int         // position in the sorted-list selector, -1 if absent
	calKey  int64       // calendar bucket key, noBucket if absent

	paused   bool
	pausedAt sim.Time
}

// head returns the stream's head-of-line descriptor, charging descriptor
// reads, or nil. Paused streams present no head.
func (st *stream) headPacket(s *Scheduler) *Packet {
	if st.paused {
		return nil
	}
	slot, ok := st.ring.Peek()
	if !ok {
		return nil
	}
	s.meter.MemRead(6) // deadline, window, length, address words of the descriptor
	return &s.table[slot]
}

// Config parameterizes a Scheduler.
type Config struct {
	Precedence Precedence
	Selector   SelectorKind
	// WorkConserving dispatches the best packet immediately (the Table 1–3
	// microbenchmark mode). When false the scheduler paces: a packet
	// becomes eligible EligibleEarly before its deadline.
	WorkConserving bool
	EligibleEarly  sim.Time
	// Meter receives the operation charges; nil disables cost accounting.
	Meter *cpu.Meter
	// Now supplies the scheduler's clock; nil means a constant zero clock.
	Now func() sim.Time
	// DecisionOverhead is charged (in cycles) once per Schedule call —
	// timestamp-counter reads and RTOS task overhead around each decision.
	DecisionOverhead int64
	// NewStore allocates the word store backing each stream's ring; nil
	// uses plain pinned-DRAM stores (Table 2). Supplying register-file
	// regions reproduces Table 3.
	NewStore func(words int) mem.WordStore
	// MaxDescriptors bounds the descriptor table; 0 means unbounded.
	MaxDescriptors int
	// MaxDropsPerDecision bounds how many late packets one Schedule call
	// may retire (0 = unbounded). The paper's host implementation considers
	// one head packet per scheduling pass, so a starved scheduler pays a
	// full pass — including its wait for the CPU — per late frame; that is
	// what stretches Figure 8's queuing delays to ~30 s under 60% load.
	MaxDropsPerDecision int
}

// Decision reports the outcome of one Schedule call.
type Decision struct {
	// Packet is the dispatched packet, nil if none. It points at a copy the
	// scheduler owns, valid until the next Schedule or DequeueFCFS call on
	// the same scheduler: a caller that keeps it longer copies *Packet.
	Packet    *Packet
	Late      bool      // dispatched after its deadline
	Dropped   []*Packet // lossy-stream packets dropped for missing deadlines
	WaitUntil sim.Time  // paced mode: when the best packet becomes eligible (0 if none queued)
}

// Idle reports whether the scheduler had nothing to do at all.
func (d Decision) Idle() bool {
	return d.Packet == nil && len(d.Dropped) == 0 && d.WaitUntil == 0
}

// Scheduler is a DWCS instance.
type Scheduler struct {
	cfg   Config
	meter *cpu.Meter
	now   func() sim.Time

	streams map[int]*stream
	order   []*stream // insertion order, for deterministic scans
	table   []Packet
	free    []uint32

	sel    selector
	index  *heapSelector // sel when it is the paced eligibility index (paced Heaps), else nil
	rrNext int           // round-robin cursor for DequeueFCFS

	// missWM is the deadline watermark for the lazy miss scan: a lower
	// bound on the earliest deadline any unmissed, unpaused head-of-line
	// packet carries. While now ≤ missWM no head can newly miss, so
	// Schedule skips the O(n) processMisses walk entirely and charges the
	// meter one watermark compare instead of n descriptor reads. The
	// bound is conservative: operations that can only *raise* the true
	// minimum (servicing a head, pausing a stream, removing a stream)
	// leave it alone, operations that can lower it tighten it in O(1)
	// (enqueue onto an empty ring) or invalidate it (resume, reconfigure,
	// servicing an already-missed head, a drop-capped partial scan).
	missWM      sim.Time
	missWMValid bool
	// eagerMissScan restores the unconditional walk — the ablation knob
	// the before/after benchmark flips.
	eagerMissScan bool

	// queuedBytes tracks the payload bytes resident across all rings in
	// O(1), the overload controller's memory-pressure input.
	queuedBytes int64

	// out is the last dispatched packet, copied out of its recycled
	// descriptor slot; Decision.Packet and DequeueFCFS return it, so a
	// decision allocates nothing.
	out Packet

	// TotalDecisions counts Schedule calls that examined streams.
	TotalDecisions int64

	// MissScans counts Schedule calls that actually walked the streams
	// for deadline misses (ablation/monitoring; with the watermark most
	// calls skip the walk).
	MissScans int64
}

// wmInf is the watermark's "no head can ever miss" sentinel.
const wmInf = sim.Time(math.MaxInt64)

// New returns a Scheduler for cfg.
func New(cfg Config) *Scheduler {
	if cfg.Now == nil {
		cfg.Now = func() sim.Time { return 0 }
	}
	if cfg.NewStore == nil {
		meter := cfg.Meter
		cfg.NewStore = func(words int) mem.WordStore {
			return mem.NewDRAMStore(meter, words)
		}
	}
	s := &Scheduler{
		cfg:     cfg,
		meter:   cfg.Meter,
		now:     cfg.Now,
		streams: make(map[int]*stream),
	}
	switch cfg.Selector {
	case Heaps:
		hs := &heapSelector{pending: streamHeap{byEligibility: true}}
		s.sel = hs
		if !cfg.WorkConserving {
			s.index = hs
		}
	case SortedList:
		s.sel = &listSelector{}
	case Calendar:
		if cfg.Precedence != EDFFirst {
			panic("dwcs: the calendar selector requires the EDFFirst precedence (its primary key is the deadline)")
		}
		s.sel = newCalendarSelector()
	default:
		s.sel = scanSelector{}
	}
	return s
}

// selector is a schedule representation: it tracks streams and finds the
// precedence winner among head-of-line packets.
type selector interface {
	add(s *Scheduler, st *stream)
	remove(s *Scheduler, st *stream)
	fix(s *Scheduler, st *stream) // st's head or window changed
	best(s *Scheduler) (*stream, *Packet)
}

// scanSelector is the embedded implementation: no auxiliary structure,
// linear walk on every decision.
type scanSelector struct{}

func (scanSelector) add(*Scheduler, *stream)    {}
func (scanSelector) remove(*Scheduler, *stream) {}
func (scanSelector) fix(*Scheduler, *stream)    {}
func (scanSelector) best(s *Scheduler) (*stream, *Packet) {
	var bestSt *stream
	var bestP *Packet
	for _, st := range s.order {
		s.meter.Branch(1)
		p := st.headPacket(s)
		if p == nil {
			continue
		}
		// Encode the stream's priority value from its current window
		// (Figure 4: head packets "encode stream priority values").
		s.meter.Frac(1)
		s.meter.MemRead(2)
		s.meter.MemWrite(2)
		s.meter.Call(1)
		if bestSt == nil || s.cmpStreams(st, p, bestSt, bestP) < 0 {
			bestSt, bestP = st, p
		}
	}
	return bestSt, bestP
}

// AddStream registers a stream. The zero-value Loss means 0/1: no losses
// allowed.
func (s *Scheduler) AddStream(spec StreamSpec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	if _, dup := s.streams[spec.ID]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateID, spec.ID)
	}
	loss := spec.Loss
	y := loss.Den
	if y == 0 {
		y = 1
	}
	st := &stream{
		spec:    spec,
		ring:    NewRing(s.cfg.NewStore(spec.BufCap), s.meter),
		x:       loss.Num,
		y:       y,
		cx:      loss.Num,
		cy:      y,
		listIdx: -1,
		calKey:  noBucket,
	}
	s.streams[spec.ID] = st
	s.order = append(s.order, st)
	s.sel.add(s, st)
	return nil
}

// RemoveStream deregisters a stream, discarding any queued packets.
func (s *Scheduler) RemoveStream(id int) error {
	st, ok := s.streams[id]
	if !ok {
		return ErrUnknownStream
	}
	for {
		slot, ok := st.ring.Pop()
		if !ok {
			break
		}
		s.queuedBytes -= s.table[slot].Bytes
		s.freeSlot(slot)
	}
	delete(s.streams, id)
	for i, o := range s.order {
		if o == st {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.sel.remove(s, st)
	return nil
}

// StreamIDs returns the registered stream ids in insertion order.
func (s *Scheduler) StreamIDs() []int {
	ids := make([]int, len(s.order))
	for i, st := range s.order {
		ids[i] = st.spec.ID
	}
	return ids
}

// Stats returns a copy of the stream's statistics.
func (s *Scheduler) Stats(id int) (StreamStats, error) {
	st, ok := s.streams[id]
	if !ok {
		return StreamStats{}, ErrUnknownStream
	}
	return st.stats, nil
}

// Window returns the stream's current window (x', y') for tests and
// monitoring.
func (s *Scheduler) Window(id int) (x, y int64, err error) {
	st, ok := s.streams[id]
	if !ok {
		return 0, 0, ErrUnknownStream
	}
	return st.cx, st.cy, nil
}

// QueueLen returns the number of packets queued on stream id (0 if the
// stream is unknown).
func (s *Scheduler) QueueLen(id int) int {
	if st, ok := s.streams[id]; ok {
		return st.ring.Len()
	}
	return 0
}

// Len returns the total number of queued packets across streams.
func (s *Scheduler) Len() int {
	n := 0
	for _, st := range s.order {
		n += st.ring.Len()
	}
	return n
}

// QueuedBytes returns the payload bytes resident across all stream rings.
func (s *Scheduler) QueuedBytes() int64 { return s.queuedBytes }

// Spec returns a copy of the stream's registered spec.
func (s *Scheduler) Spec(id int) (StreamSpec, error) {
	st, ok := s.streams[id]
	if !ok {
		return StreamSpec{}, ErrUnknownStream
	}
	return st.spec, nil
}

// ShedTolerant proactively drops the stream's head packet if — and only if —
// the stream is lossy, unpaused, and its current window still tolerates a
// loss (cx > 0): the overload ladder's rung-1 action, spending DWCS loss
// budget ahead of time to relieve memory pressure without ever causing a
// violation. The dropped packet is returned (copied out) so the caller can
// release its payload.
func (s *Scheduler) ShedTolerant(id int) (Packet, bool) {
	st, ok := s.streams[id]
	if !ok || !st.spec.Lossy || st.paused || st.cx <= 0 {
		return Packet{}, false
	}
	slot, ok := st.ring.Pop()
	if !ok {
		return Packet{}, false
	}
	pkt := s.table[slot]
	s.queuedBytes -= pkt.Bytes
	s.freeSlot(slot)
	// Same window algebra as a tolerated miss (adjustMissed's cx > 0 arm).
	s.meter.Frac(1)
	s.meter.MemRead(2)
	s.meter.MemWrite(2)
	s.meter.Branch(2)
	st.cx--
	st.cy--
	if st.cy == 0 {
		st.cx, st.cy = st.x, st.y
	}
	st.stats.Dropped++
	st.stats.Shed++
	if pkt.missed {
		// The successor head may predate the watermark; force a rescan.
		s.missWMValid = false
	}
	s.sel.fix(s, st)
	return pkt, true
}

// FlushStream empties the stream's ring without deregistering it, returning
// copies of the discarded packets so the caller can release payloads. Used
// by overload revocation and ext-level stream removal.
func (s *Scheduler) FlushStream(id int) ([]Packet, error) {
	st, ok := s.streams[id]
	if !ok {
		return nil, ErrUnknownStream
	}
	var out []Packet
	for {
		slot, ok := st.ring.Pop()
		if !ok {
			break
		}
		pkt := s.table[slot]
		s.queuedBytes -= pkt.Bytes
		s.freeSlot(slot)
		out = append(out, pkt)
	}
	// Only heads were removed, which can only raise the true minimum
	// deadline, so the watermark stays a valid lower bound.
	s.sel.fix(s, st)
	return out, nil
}

func (s *Scheduler) allocSlot() (uint32, bool) {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.meter.MemRead(1)
		s.meter.MemWrite(1)
		return slot, true
	}
	if s.cfg.MaxDescriptors > 0 && len(s.table) >= s.cfg.MaxDescriptors {
		return 0, false
	}
	s.table = append(s.table, Packet{})
	return uint32(len(s.table) - 1), true
}

func (s *Scheduler) freeSlot(slot uint32) {
	s.free = append(s.free, slot)
	s.meter.MemWrite(1)
}

// Enqueue queues a packet on stream id. Bytes, Offset, and Payload are
// taken from p; Seq, Enqueued, and Deadline are assigned by the scheduler
// (successive deadlines are offset by the stream period).
func (s *Scheduler) Enqueue(id int, p Packet) error {
	prevC, prevO := s.meter.SetContext("dwcs", "enqueue")
	defer s.meter.SetContext(prevC, prevO)
	st, ok := s.streams[id]
	s.meter.MemRead(1)
	if !ok {
		return ErrUnknownStream
	}
	slot, ok := s.allocSlot()
	if !ok {
		st.stats.RejectedFull++
		return errTableFull
	}
	now := s.now()
	base := st.last
	if now > base {
		base = now
	}
	p.StreamID = id
	p.Seq = st.seq
	p.Enqueued = now
	p.Deadline = base + st.spec.Period
	p.missed = false
	p.slot = slot
	s.meter.MemWrite(6) // descriptor fields
	s.meter.Int(3)
	s.table[slot] = p
	wasEmpty := st.ring.Len() == 0
	if !st.ring.Push(slot) {
		s.freeSlot(slot)
		st.stats.RejectedFull++
		if st.errFull == nil {
			st.errFull = fmt.Errorf("%w: stream %d ring (cap %d)", ErrBufferFull, id, st.ring.Cap())
		}
		return st.errFull
	}
	if wasEmpty && s.missWMValid && p.Deadline < s.missWM {
		// The stream gained a head with an earlier deadline than any seen
		// by the last scan: tighten the watermark in O(1).
		s.missWM = p.Deadline
		s.meter.MemWrite(1)
	}
	st.last = p.Deadline
	st.seq++
	st.stats.Enqueued++
	s.queuedBytes += p.Bytes
	if wasEmpty || s.index == nil {
		// The paced index files a stream by its head alone; a packet
		// queued behind one changes nothing it keeps.
		s.sel.fix(s, st)
	}
	return nil
}

// cmpStreams orders stream a's head packet pa against stream b's head pb;
// negative means a is serviced first. It charges the meter for the fraction
// and integer comparisons the rules perform.
func (s *Scheduler) cmpStreams(a *stream, pa *Packet, b *stream, pb *Packet) int {
	m := s.meter
	lossCmp := func() int {
		// Encoded priority values compare with integer ops; the fraction
		// arithmetic that *produces* them is charged where the encoding
		// happens (selection loop / heap comparator).
		m.Int(2)
		return fixed.New(a.cx, a.cy).Cmp(fixed.New(b.cx, b.cy))
	}
	deadlineCmp := func() int {
		m.Int(1)
		m.Branch(1)
		switch {
		case pa.Deadline < pb.Deadline:
			return -1
		case pa.Deadline > pb.Deadline:
			return 1
		default:
			return 0
		}
	}
	tieRules := func() int {
		// Equal deadlines and equal window-constraint values.
		m.Int(2)
		m.Branch(2)
		if a.cx == 0 && b.cx == 0 {
			// Zero constraints: highest window-denominator first.
			switch {
			case a.cy > b.cy:
				return -1
			case a.cy < b.cy:
				return 1
			}
		} else if a.cx != 0 && b.cx != 0 {
			// Equal non-zero constraints: lowest window-numerator first.
			switch {
			case a.cx < b.cx:
				return -1
			case a.cx > b.cx:
				return 1
			}
		}
		// All other cases: first-come-first-served, with stream id as the
		// final deterministic tie-break so every selector implementation
		// makes the identical choice.
		m.Int(1)
		switch {
		case pa.Enqueued < pb.Enqueued:
			return -1
		case pa.Enqueued > pb.Enqueued:
			return 1
		case a.spec.ID < b.spec.ID:
			return -1
		case a.spec.ID > b.spec.ID:
			return 1
		default:
			return 0
		}
	}

	var c int
	switch s.cfg.Precedence {
	case EDFFirst:
		if c = deadlineCmp(); c != 0 {
			return c
		}
		if c = lossCmp(); c != 0 {
			return c
		}
	default: // LossFirst
		if c = lossCmp(); c != 0 {
			return c
		}
		if c = deadlineCmp(); c != 0 {
			return c
		}
	}
	return tieRules()
}

// selectBest returns the stream whose head packet wins the precedence
// rules, with that head, or nils.
func (s *Scheduler) selectBest() (*stream, *Packet) {
	return s.sel.best(s)
}

// eligibleAt returns when p may be dispatched in paced mode.
func (s *Scheduler) eligibleAt(p *Packet) sim.Time {
	e := p.Deadline - s.cfg.EligibleEarly
	if e < p.Enqueued {
		e = p.Enqueued
	}
	return e
}

// selectEligible returns the precedence winner among heads already eligible
// at now. When no head is eligible it returns the earliest upcoming
// eligibility instead (0 if nothing is queued). This is the paced walk of
// the embedded NI implementation, which Scan keeps at its pinned charges
// (as do SortedList and Calendar, whose structures serve the work-conserving
// benchmarks); paced Heaps answers from its eligibility index instead.
func (s *Scheduler) selectEligible(now sim.Time) (*stream, *Packet, sim.Time) {
	var bestSt *stream
	var bestP *Packet
	var wait sim.Time
	for _, st := range s.order {
		s.meter.Branch(1)
		p := st.headPacket(s)
		if p == nil {
			continue
		}
		s.meter.Int(2)
		if e := s.eligibleAt(p); now < e {
			if wait == 0 || e < wait {
				wait = e
			}
			continue
		}
		s.meter.Frac(1) // priority encode, as in the scan
		s.meter.MemRead(2)
		s.meter.MemWrite(2)
		s.meter.Call(1)
		if bestSt == nil || s.cmpStreams(st, p, bestSt, bestP) < 0 {
			bestSt, bestP = st, p
		}
	}
	return bestSt, bestP, wait
}

// adjustServiced applies the window-constraint adjustment for a packet of
// st serviced before its deadline.
func (s *Scheduler) adjustServiced(st *stream) {
	s.meter.Frac(2) // window update + priority re-encode arithmetic
	s.meter.MemRead(2)
	s.meter.MemWrite(2)
	s.meter.Branch(2)
	if st.cx > 0 {
		st.cy--
		if st.cx == st.cy {
			st.cx, st.cy = st.x, st.y
		}
		return
	}
	st.cy--
	if st.cy == 0 {
		st.cx, st.cy = st.x, st.y
	}
}

// adjustMissed applies the adjustment for a head packet of st that missed
// its deadline, returning whether the miss was a violation (no loss budget
// left in the current window).
func (s *Scheduler) adjustMissed(st *stream) (violation bool) {
	s.meter.Frac(1)
	s.meter.MemRead(2)
	s.meter.MemWrite(2)
	s.meter.Branch(2)
	if st.cx > 0 {
		st.cx--
		st.cy--
		if st.cy == 0 {
			st.cx, st.cy = st.x, st.y
		}
		return false
	}
	st.stats.Violations++
	st.cy--
	if st.cy == 0 {
		st.cx, st.cy = st.x, st.y
	}
	return true
}

// processMisses walks every stream and handles head packets whose deadlines
// have passed: lossy streams drop them (possibly several), lossless streams
// take the window adjustment once and keep the packet at the head for late
// transmission. A completed walk refreshes the miss watermark; a walk cut
// short by MaxDropsPerDecision leaves it invalid (heads past the cut were
// never examined).
func (s *Scheduler) processMisses(now sim.Time, d *Decision) {
	s.MissScans++
	wm := wmInf
	truncated := false
	for _, st := range s.order {
		if s.cfg.MaxDropsPerDecision > 0 && len(d.Dropped) >= s.cfg.MaxDropsPerDecision {
			truncated = true
			break
		}
		changed := false
		for {
			s.meter.Branch(1)
			p := st.headPacket(s)
			if p == nil {
				break // empty or paused: cannot miss until it gains a head
			}
			if now <= p.Deadline {
				if p.Deadline < wm {
					wm = p.Deadline
				}
				break
			}
			s.meter.Int(1)
			if p.missed {
				break // lossless head already accounted; inert until serviced
			}
			p.missed = true
			s.adjustMissed(st)
			changed = true
			if !st.spec.Lossy {
				break
			}
			st.ring.Pop()
			dropped := *p // copy out before the descriptor slot is recycled
			s.queuedBytes -= dropped.Bytes
			s.freeSlot(p.slot)
			st.stats.Dropped++
			d.Dropped = append(d.Dropped, &dropped)
			if s.cfg.MaxDropsPerDecision > 0 && len(d.Dropped) >= s.cfg.MaxDropsPerDecision {
				truncated = true
				break
			}
		}
		if changed {
			s.sel.fix(s, st)
		}
	}
	if truncated {
		s.missWMValid = false
		return
	}
	s.missWM = wm
	s.missWMValid = true
	s.meter.MemWrite(1) // watermark store
}

// Reconfigure changes a live stream's period and loss-tolerance — the
// paper's §3.1 point that a scheduler close to the network "may be
// reconfigured based on network condition parameters" without crossing the
// I/O bus. Queued packets keep their assigned deadlines; new enqueues use
// the new period, and the current window restarts under the new
// constraint.
func (s *Scheduler) Reconfigure(id int, period sim.Time, loss fixed.Frac) error {
	st, ok := s.streams[id]
	if !ok {
		return ErrUnknownStream
	}
	probe := st.spec
	probe.Period = period
	probe.Loss = loss
	if err := probe.validate(); err != nil {
		return err
	}
	st.spec = probe
	y := loss.Den
	if y == 0 {
		y = 1
	}
	st.x, st.y = loss.Num, y
	st.cx, st.cy = st.x, st.y
	s.meter.MemWrite(4)
	s.missWMValid = false // defensive: stream attributes changed under the scan
	s.sel.fix(s, st)
	return nil
}

// Pause suspends a stream: its queued packets stop competing for service
// and stop accruing deadline misses — the VCR pause a media server must
// offer. Pausing a paused stream is a no-op.
func (s *Scheduler) Pause(id int) error {
	st, ok := s.streams[id]
	if !ok {
		return ErrUnknownStream
	}
	if st.paused {
		return nil
	}
	st.paused = true
	st.pausedAt = s.now()
	s.sel.fix(s, st)
	return nil
}

// Resume reactivates a paused stream, shifting every queued packet's
// deadline (and the stream's deadline chain) by the paused duration so
// nothing is spuriously late the instant playback continues.
func (s *Scheduler) Resume(id int) error {
	st, ok := s.streams[id]
	if !ok {
		return ErrUnknownStream
	}
	if !st.paused {
		return nil
	}
	shift := s.now() - st.pausedAt
	st.paused = false
	st.last += shift
	// Rebase deadlines of everything queued. Ring order is head..tail;
	// walk by popping and re-pushing through the descriptor table.
	n := st.ring.Len()
	for i := 0; i < n; i++ {
		slot, _ := st.ring.Pop()
		s.table[slot].Deadline += shift
		s.meter.MemWrite(1)
		st.ring.Push(slot)
	}
	// The resumed head rejoins the scan with a deadline the last scan
	// never saw (paused heads contribute nothing); force a rescan.
	s.missWMValid = false
	s.sel.fix(s, st)
	return nil
}

// Paused reports whether the stream is paused.
func (s *Scheduler) Paused(id int) bool {
	if st, ok := s.streams[id]; ok {
		return st.paused
	}
	return false
}

// StreamSnapshot is one stream's state for monitoring — and, since it
// carries the current window position, frame cursor, and deadline phase,
// the transferable image live migration moves between cards.
type StreamSnapshot struct {
	Spec    StreamSpec
	Stats   StreamStats
	Queued  int
	WindowX int64
	WindowY int64
	Paused  bool
	// Seq is the next frame sequence the scheduler will assign (the
	// stream's frame cursor); Phase is the last assigned deadline, so a
	// restored stream continues its deadline train instead of re-phasing.
	Seq   int64
	Phase sim.Time
}

// Snapshot returns every stream's state in insertion order — the
// monitoring view a management client reads over the DVCM.
func (s *Scheduler) Snapshot() []StreamSnapshot {
	// Exactly one allocation, sized up front: the monitoring client polls
	// this on every DVCM read, so no append growth or double-copy.
	out := make([]StreamSnapshot, len(s.order))
	for i, st := range s.order {
		out[i] = StreamSnapshot{
			Spec:    st.spec,
			Stats:   st.stats,
			Queued:  st.ring.Len(),
			WindowX: st.cx,
			WindowY: st.cy,
			Paused:  st.paused,
			Seq:     st.seq,
			Phase:   st.last,
		}
	}
	return out
}

// ExportStream returns one stream's snapshot: the migration image a source
// card hands to the target so the stream resumes mid-window instead of cold.
func (s *Scheduler) ExportStream(id int) (StreamSnapshot, error) {
	st, ok := s.streams[id]
	if !ok {
		return StreamSnapshot{}, ErrUnknownStream
	}
	return StreamSnapshot{
		Spec:    st.spec,
		Stats:   st.stats,
		Queued:  st.ring.Len(),
		WindowX: st.cx,
		WindowY: st.cy,
		Paused:  st.paused,
		Seq:     st.seq,
		Phase:   st.last,
	}, nil
}

// ImportStream registers a stream from a migration image: AddStream with the
// image's spec, then window position, frame cursor, deadline phase, and stats
// restored. Out-of-range window coordinates (a corrupt or hand-built image)
// are clamped back into the declared (x, y) window rather than trusted — a
// migration must never grant more loss budget than the stream's contract.
// Imported streams resume unpaused: migration is itself the resume.
func (s *Scheduler) ImportStream(snap StreamSnapshot) error {
	if err := s.AddStream(snap.Spec); err != nil {
		return err
	}
	st := s.streams[snap.Spec.ID]
	cy := snap.WindowY
	if cy < 1 || cy > st.y {
		cy = st.y
	}
	cx := snap.WindowX
	if cx < 0 {
		cx = 0
	}
	if cx > st.x {
		cx = st.x
	}
	if cx > cy {
		cx = cy
	}
	st.cx, st.cy = cx, cy
	if snap.Seq > 0 {
		st.seq = snap.Seq
	}
	if snap.Phase > 0 {
		st.last = snap.Phase
	}
	st.stats = snap.Stats
	return nil
}

// DequeueFCFS pops the next queued packet in plain round-robin order
// without evaluating any precedence rules or window adjustments — the
// microbenchmarks' "time w/o Scheduler" path, where "the address of the
// frame to be dispatched is readily available and does not need scheduler
// rules" (§4.2). Only the ring and descriptor accesses are charged. The
// packet is valid until the next DequeueFCFS or Schedule call, as a
// Decision's.
func (s *Scheduler) DequeueFCFS() *Packet {
	prevC, prevO := s.meter.SetContext("dwcs", "dequeue")
	defer s.meter.SetContext(prevC, prevO)
	for range s.order {
		st := s.order[s.rrNext%len(s.order)]
		s.rrNext++
		s.meter.Branch(1)
		slot, ok := st.ring.Pop()
		if !ok {
			continue
		}
		s.meter.MemRead(2) // frame address + length from the descriptor
		s.out = s.table[slot]
		pkt := &s.out
		s.queuedBytes -= pkt.Bytes
		s.freeSlot(slot)
		if pkt.missed {
			s.missWMValid = false // successor head may predate the watermark
		}
		st.stats.Serviced++
		st.stats.BytesServiced += pkt.Bytes
		s.sel.fix(s, st)
		return pkt
	}
	return nil
}

// Schedule makes one scheduling decision at the configured clock's current
// time: process deadline misses, pick the highest-precedence head packet,
// and (if eligible) dequeue it for dispatch. The caller transmits the
// returned packet; transmission cost is the caller's (the microbenchmarks'
// "time w/o scheduler" path).
func (s *Scheduler) Schedule() Decision {
	prevC, prevO := s.meter.SetContext("dwcs", "decision")
	defer s.meter.SetContext(prevC, prevO)
	now := s.now()
	s.meter.ChargeCycles(s.cfg.DecisionOverhead)
	s.TotalDecisions++
	var d Decision
	if s.eagerMissScan {
		s.processMisses(now, &d)
	} else {
		// Lazy miss scan: one watermark compare replaces the O(n) walk
		// whenever no head can have newly missed since the last scan.
		s.meter.MemRead(1)
		s.meter.Branch(1)
		if !s.missWMValid || now > s.missWM {
			s.processMisses(now, &d)
		}
	}
	var st *stream
	var p *Packet
	if s.cfg.WorkConserving {
		st, p = s.selectBest()
		if st == nil {
			return d
		}
	} else {
		// Paced mode: precedence applies among the *eligible* heads only.
		// Sleeping on the global best's eligibility would let a lower-
		// priority head's deadline expire unserved, so when nothing is
		// eligible the wakeup is the earliest eligibility across streams.
		var wait sim.Time
		if s.index != nil {
			st, p, wait = s.index.eligible(s, now)
		} else {
			st, p, wait = s.selectEligible(now)
		}
		if st == nil {
			d.WaitUntil = wait
			return d
		}
	}
	st.ring.Pop()
	s.out = *p // copy out before the descriptor slot is recycled
	pkt := &s.out
	s.queuedBytes -= pkt.Bytes
	s.freeSlot(p.slot)
	if pkt.missed {
		// Servicing an already-missed head exposes a successor whose
		// deadline may predate the watermark; force a rescan.
		s.missWMValid = false
	}
	late := pkt.missed || now > pkt.Deadline
	s.adjustServiced(st)
	st.stats.Serviced++
	st.stats.BytesServiced += pkt.Bytes
	if late {
		st.stats.Late++
	}
	s.meter.MemWrite(3) // stats updates
	s.sel.fix(s, st)
	d.Packet = pkt
	d.Late = late
	return d
}
