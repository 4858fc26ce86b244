// Partitioned, conservative-lookahead parallel simulation.
//
// A Topology splits one simulation into Partitions — each owns a private
// Engine (event heap, arena, RNG stream, clock) — joined by declared
// channels with a minimum latency ("lookahead"). The paper's hardware gives
// the partition boundary for free: each co-processor card is an independent
// OS-like domain, and every interaction between domains (PCI transfers,
// Ethernet hops, DVCM instructions) crosses a link whose latency is known
// and strictly positive. That latency is exactly the conservative safe
// horizon: while partition q's clock is at time T, nothing q does can
// affect partition p before T + lookahead(q→p), so p may burn down its own
// heap that far on another core without ever seeing an event out of order.
//
// The synchronization protocol is a synchronous LBTS (lower bound on
// timestamp) window scheme. Each round:
//
//  1. In-flight inter-partition messages are merged into their destination
//     heaps in a deterministic order — (deliver time, source partition ID,
//     source sequence) — so simultaneous timestamps from different
//     partitions always tie-break the same way, at any worker count.
//  2. Every partition computes its safe horizon: the minimum over inbound
//     channels of (source's LBTS + channel lookahead). A partition's LBTS
//     bounds every event it can ever run, arrivals included: its next event
//     time closed over the channels' shortest paths (see horizons).
//  3. All partitions with work below their horizon run in parallel, each on
//     its own heap, each collecting outbound messages in a private outbox.
//     Each worker starts on its own contiguous block of partition IDs, and
//     since partitions share no mutable state, the artifact stream of a run
//     is byte-identical whether Workers is 1 or N.
//
// Messages sent while processing a window always land at or beyond every
// destination's horizon (deliver time ≥ source time + lookahead ≥ horizon),
// which is the conservative-correctness invariant; Connect rejects
// non-positive lookahead because the window scheme cannot make progress
// safely without it.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// maxHorizon is the "no bound" sentinel; far enough from MaxInt64 that
// adding a lookahead cannot overflow.
const maxHorizon Time = math.MaxInt64 / 4

// edge is one directed channel in a topology's connectivity graph.
type edge struct {
	peer      int32
	lookahead Time
}

// Topology is a set of partitions joined by lookahead channels, run under a
// conservative parallel scheduler.
type Topology struct {
	// Workers caps the worker pool, at most GOMAXPROCS (its goroutines spin
	// between windows, and more of them than Ps would starve each other). 0
	// uses GOMAXPROCS; 1 is a fully sequential engine (same windows and merges,
	// no goroutines), the reference the byte-identical contract is pinned to.
	Workers int

	seed  int64
	parts []*Partition
	in    [][]edge // inbound channels per partition
	// la[src][dst] is the lookahead of the channel src→dst, 0 when there is
	// none (a declared lookahead is positive). A row grows in Connect to
	// cover its highest destination ID, so Send finds a channel by index.
	la    [][]Time
	minLA Time // the shortest declared lookahead, 0 before the first Connect

	// Rounds counts synchronization windows executed, for diagnostics
	// (events per round is the parallelism grain).
	Rounds int64

	scratch    []xmsg // merge buffer, reused across rounds
	next, lbts []Time // horizons' scratch, reused across rounds
	far        []int  // likewise
}

// NewTopology returns an empty topology. seed decorrelates the partitions'
// RNG streams: partition i's engine is seeded with a deterministic function
// of (seed, i), so runs replay identically at any worker count.
func NewTopology(seed int64) *Topology { return &Topology{seed: seed} }

// AddPartition appends a partition with its own engine, RNG stream, and
// clock. The clock starts at the latest of the existing partitions', so a
// partition added between runs joins at the topology's time.
func (t *Topology) AddPartition(name string) *Partition {
	id := int32(len(t.parts))
	p := &Partition{
		id:   id,
		name: name,
		topo: t,
		// Golden-ratio stride decorrelates the per-partition RNG streams
		// while keeping them a pure function of (seed, partition ID).
		eng: NewEngine(t.seed + int64(uint64(id)*0x9E3779B97F4A7C15)),
	}
	for _, q := range t.parts {
		p.eng.RunUntil(q.eng.Now())
	}
	t.parts = append(t.parts, p)
	t.in, t.la = append(t.in, nil), append(t.la, nil)
	return p
}

// Connect declares a directed channel src→dst whose messages take at least
// lookahead to arrive. The lookahead must be strictly positive: a channel
// without one would force a zero-width window, so it is a configuration
// error, not a degraded mode.
func (t *Topology) Connect(src, dst *Partition, lookahead Time) error {
	if src == nil || dst == nil || src.topo != t || dst.topo != t {
		return fmt.Errorf("sim: Connect: both partitions must belong to this topology")
	}
	if src == dst {
		return fmt.Errorf("sim: Connect: self-channel on %q (schedule locally via Eng instead)", src.name)
	}
	if lookahead <= 0 {
		return fmt.Errorf("sim: Connect %s→%s: lookahead %v is not positive; a conservative engine cannot make safe progress across a zero-lookahead channel", src.name, dst.name, lookahead)
	}
	if _, ok := t.Lookahead(src, dst); ok {
		return fmt.Errorf("sim: Connect %s→%s: channel already declared", src.name, dst.name)
	}
	row := t.la[src.id]
	if n := int(dst.id) + 1; len(row) < n {
		row = append(row, make([]Time, n-len(row))...)
		t.la[src.id] = row
	}
	row[dst.id] = lookahead
	t.in[dst.id] = append(t.in[dst.id], edge{peer: src.id, lookahead: lookahead})
	t.minLA = min(cmp.Or(t.minLA, lookahead), lookahead)
	return nil
}

// Lookahead reports the declared minimum latency of the src→dst channel
// (0, false when no channel exists).
func (t *Topology) Lookahead(src, dst *Partition) (Time, bool) {
	if row := t.la[src.id]; int(dst.id) < len(row) && row[dst.id] > 0 {
		return row[dst.id], true
	}
	return 0, false
}

// Partition is one conservatively synchronized domain: a private engine
// plus an outbox of timestamped messages bound for other partitions.
type Partition struct {
	id   int32
	name string
	topo *Topology
	eng  *Engine

	outbox []xmsg
	msgSeq uint64

	// per-round scheduling state, owned by the coordinator between windows
	// and read during a window by the one goroutine that claims p
	horizon Time
	active  bool
}

// ID returns the partition's index in its topology.
func (p *Partition) ID() int { return int(p.id) }

// Name returns the partition's diagnostic name.
func (p *Partition) Name() string { return p.name }

// Eng returns the partition's private engine. All substrate components of
// the partition (cards, buses, disks, links) are built on it exactly as
// they would be on a standalone engine.
func (p *Partition) Eng() *Engine { return p.eng }

// xmsg is one timestamped inter-partition message in an outbox. Its
// callback is fn, or fa called with arg, as in an event slot.
type xmsg struct {
	at       Time
	src, dst int32
	seq      uint64
	fn       func()
	fa       func(any)
	arg      any
}

// Send schedules fn in partition dst at the sender's now+delay. The
// channel src→dst must have been declared with Connect, and delay must be
// at least its lookahead — sending faster than the channel's modeled
// latency would break the conservative horizon, so it panics as a modeling
// bug (exactly like scheduling in the past on an Engine). A sent message
// cannot be recalled: once sent it belongs to the destination.
func (p *Partition) Send(dst *Partition, delay Time, fn func()) {
	p.post(dst, delay, xmsg{fn: fn})
}

// SendArg schedules fn(arg) in partition dst at the sender's now+delay,
// under Send's rules. fn is read by the sender's worker during a window,
// so it must be built before the run, not by the destination.
func (p *Partition) SendArg(dst *Partition, delay Time, fn func(any), arg any) {
	p.post(dst, delay, xmsg{fa: fn, arg: arg})
}

// post checks the channel to dst, stamps m, and queues it in the outbox.
func (p *Partition) post(dst *Partition, delay Time, m xmsg) {
	if dst == nil || dst.topo != p.topo {
		panic(fmt.Sprintf("sim: partition %s: Send to a partition outside this topology", p.name))
	}
	la, found := p.topo.Lookahead(p, dst)
	if !found {
		panic(fmt.Sprintf("sim: partition %s: Send to %s without a declared channel (Connect first)", p.name, dst.name))
	}
	if delay < la {
		panic(fmt.Sprintf("sim: partition %s: Send to %s with delay %v below the channel lookahead %v", p.name, dst.name, delay, la))
	}
	p.msgSeq++
	m.at = p.eng.Now() + delay
	m.src, m.dst = p.id, dst.id
	m.seq = p.msgSeq
	p.outbox = append(p.outbox, m)
}

// deliver merges every outbox into the destination heaps. It runs
// single-threaded between windows. Messages are injected in
// (time, source partition ID, source sequence) order, so the destination
// engine's tie-break sequence numbers — and therefore the relative firing
// order of simultaneous cross-partition events — are identical at any
// worker count.
func (t *Topology) deliver() {
	msgs := t.scratch[:0]
	for _, p := range t.parts {
		msgs = append(msgs, p.outbox...)
		clear(p.outbox) // the copies in msgs are the live ones
		p.outbox = p.outbox[:0]
	}
	slices.SortFunc(msgs, func(a, b xmsg) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for i := range msgs {
		m := &msgs[i]
		eng := t.parts[m.dst].eng
		if m.fa != nil {
			eng.AtArg(m.at, m.fa, m.arg)
		} else {
			eng.At(m.at, m.fn)
		}
	}
	clear(msgs) // the engines hold the callbacks now
	t.scratch = msgs[:0]
}

// horizons is a round's step 2: it sets every partition's horizon and whether
// it has work below it, and reports whether any has. cap is the exclusive
// upper limit on processable time (end+1 for RunUntil(end)). With m the
// earliest next event, at partition first, a next event within minLA of m is
// its partition's LBTS; a partition first reaches over a minLA channel has
// LBTS and horizon m+minLA; only the rest relax, to the fixed point. An idle
// partition may be one: a→b→a ping-pong has one side idle every round.
func (t *Topology) horizons(cap Time) bool {
	if len(t.lbts) != len(t.parts) {
		t.next, t.lbts = make([]Time, len(t.parts)), make([]Time, len(t.parts))
	}
	next, lbts, far := t.next, t.lbts, t.far[:0]
	m, first := maxHorizon, -1
	for i, p := range t.parts {
		next[i] = maxHorizon // a cancelled-but-unreaped event only tightens
		if at, ok := p.eng.NextAt(); ok {
			next[i] = at
		}
		if next[i] < m {
			m, first = next[i], i
		}
	}
	for i := range t.parts {
		if lbts[i] = next[i]; next[i] > m+t.minLA {
			if t.shortest(first, i) {
				lbts[i] = m + t.minLA
			} else {
				far = append(far, i)
			}
		}
	}
	for changed := len(far) > 0; changed; {
		changed = false
		for _, i := range far {
			for _, e := range t.in[i] {
				if nh := lbts[e.peer] + e.lookahead; nh < lbts[i] {
					lbts[i], changed = nh, true
				}
			}
		}
	}
	t.far = far
	any := false
	for i, p := range t.parts {
		h := cap
		if t.shortest(first, i) { // no source is below m, no channel below minLA
			h = min(h, m+t.minLA)
		} else {
			for _, e := range t.in[i] {
				h = min(h, lbts[e.peer]+e.lookahead)
			}
		}
		p.horizon, p.active = h, next[i] < h
		any = any || p.active
	}
	return any
}

// shortest reports whether src→dst is a channel of the shortest declared
// lookahead (false for src -1; no row exists before the first Connect).
func (t *Topology) shortest(src, dst int) bool {
	return src >= 0 && dst < len(t.la[src]) && t.la[src][dst] == t.minLA
}

// spinFor bounds a pool goroutine's polling before it parks: about its share of
// a 64-card fleet window; sweep covers a late worker, so more only burns CPU.
const spinFor = 30 * time.Microsecond

// pool is a run call's coordinator (goroutine 0) and workers. The generation
// bump publishes a window's horizons to them; the countdown, results back.
type pool struct {
	t       *Topology
	gen     atomic.Uint64   // bumped to start a window, and once more to stop
	pending atomic.Int32    // partitions not yet run in the current window
	stop    atomic.Bool     // set before the last bump
	claims  []atomic.Uint64 // claims[i]: the last window partition i ran in
	wake    []chan struct{} // wake[w] is where goroutine w parks
	wg      sync.WaitGroup
}

func (t *Topology) startPool(n int) *pool {
	pl := &pool{t: t, claims: make([]atomic.Uint64, len(t.parts)), wake: make([]chan struct{}, n)}
	pl.wg.Add(n - 1)
	for w := range pl.wake {
		pl.wake[w] = make(chan struct{}, 1)
		if w > 0 {
			go pl.work(w)
		}
	}
	return pl
}

// sweep runs window g on goroutine w: every unclaimed partition, block w
// (IDs [w·n/W, (w+1)·n/W) of n, for W goroutines) forward, then the rest
// backward from its start, so a thief meets an owner once. A late goroutine
// costs a window only its share, and no partition can tell who ran it.
func (pl *pool) sweep(w int, g uint64) {
	n, ran := len(pl.claims), int32(0)
	lo, hi := w*n/len(pl.wake), (w+1)*n/len(pl.wake)
	for k := range n {
		i := lo + k
		if i >= hi {
			i = (hi + n - 1 - k) % n
		}
		if c := &pl.claims[i]; c.Load() == g-1 && c.CompareAndSwap(g-1, g) {
			if p := pl.t.parts[i]; p.active {
				p.eng.RunUntil(p.horizon - 1)
			}
			ran++
		}
	}
	if pl.pending.Add(-ran) == 0 {
		nudge(pl.wake[0])
	}
}

func (pl *pool) work(w int) {
	defer pl.wg.Done()
	for seen := uint64(0); ; {
		spinPark(pl.wake[w], func() bool { return pl.gen.Load() != seen })
		if seen = pl.gen.Load(); pl.stop.Load() {
			return
		}
		pl.sweep(w, seen)
	}
}

// spinPark polls ready for spinFor, then parks on wake between polls: what
// makes ready hold nudges wake after, and a stale token costs one more poll.
func spinPark(wake chan struct{}, ready func() bool) {
	for spin := time.Now().Add(spinFor); !ready(); {
		if time.Now().After(spin) {
			<-wake
		}
	}
}

// nudge leaves a wake token on each channel that has none.
func nudge(wake ...chan struct{}) {
	for _, c := range wake {
		select {
		case c <- struct{}{}:
		default:
		}
	}
}

// RunUntil advances every partition to time end, firing all events with
// time ≤ end in conservative windows, then sets every clock to end. Events
// scheduled beyond end stay pending, exactly like Engine.RunUntil.
func (t *Topology) RunUntil(end Time) {
	if end < 0 {
		panic(fmt.Sprintf("sim: Topology.RunUntil(%v) before time zero", end))
	}
	t.run(end)
}

// Run fires events until no partition has any pending event or undelivered
// message. A model with self-rescheduling periodic events never drains;
// prefer RunUntil for such workloads, as with Engine.Run.
func (t *Topology) Run() { t.run(maxHorizon - 1) }

// run starts its pool on the first window that has one, and joins it
// before it returns.
func (t *Topology) run(end Time) {
	var pl *pool
	defer func() { // stop and join the workers
		if pl != nil {
			pl.stop.Store(true)
			pl.gen.Add(1)
			nudge(pl.wake[1:]...)
			pl.wg.Wait()
		}
	}()
	n := min(runtime.GOMAXPROCS(0), len(t.parts))
	if t.Workers > 0 {
		n = min(n, t.Workers)
	}
	for {
		t.deliver()
		if !t.horizons(end + 1) {
			break
		}
		t.Rounds++
		if n <= 1 {
			for _, p := range t.parts {
				if p.active {
					p.eng.RunUntil(p.horizon - 1)
				}
			}
			continue
		}
		if pl == nil {
			pl = t.startPool(n)
		}
		pl.pending.Store(int32(len(t.parts)))
		g := pl.gen.Add(1)
		nudge(pl.wake[1:]...)
		pl.sweep(0, g)
		spinPark(pl.wake[0], func() bool { return pl.pending.Load() == 0 })
	}
	for _, p := range t.parts {
		if end < maxHorizon-1 {
			p.eng.RunUntil(end) // no events remain ≤ end; aligns the clock
		}
	}
}

// Drain releases every partition engine's event storage (see Engine.Drain).
func (t *Topology) Drain() {
	for _, p := range t.parts {
		p.eng.Drain()
	}
}

// Close closes every partition's engine (see Engine.Close).
func (t *Topology) Close() {
	for _, p := range t.parts {
		p.eng.Close()
	}
}
