package dwcs

import "repro/internal/sim"

// streamHeap is a binary min-heap of streams, position-indexed through
// stream.heapIdx so any member can be fixed or removed in O(log n). The
// Heaps selector orders it by the full precedence comparator applied to
// head-of-line packets — the Figure 4(a) structure (the paper splits it into
// a loss-tolerance heap and a deadline heap; because the precedence rules
// form one lexicographic total order, a single heap keyed on that order
// selects identically).
//
// Streams with empty rings order after every stream with a queued packet,
// so the heap top is the winner whenever any packet is queued. Whenever a
// stream's head or window changes, the scheduler calls fix, which restores
// the heap invariant in O(log n) comparisons; each comparison charges the
// meter exactly as the linear scan's comparisons do.
type streamHeap struct {
	items []*stream
	// byEligibility orders by stream.eligAt instead of precedence: the
	// paced index's heap of heads still waiting for their instant.
	byEligibility bool
}

// less orders item i before item j, charging the scheduler's meter.
func (h *streamHeap) less(s *Scheduler, i, j int) bool {
	s.meter.Branch(1)
	if h.byEligibility {
		s.meter.Int(1)
		return h.items[i].eligAt < h.items[j].eligAt
	}
	s.meter.Frac(1) // encode the pair's priority values
	pi := h.items[i].headPacket(s)
	pj := h.items[j].headPacket(s)
	switch {
	case pi == nil:
		return false
	case pj == nil:
		return true
	}
	return s.cmpStreams(h.items[i], pi, h.items[j], pj) < 0
}

func (h *streamHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].heapIdx = i
	h.items[j].heapIdx = j
}

func (h *streamHeap) up(s *Scheduler, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(s, i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *streamHeap) down(s *Scheduler, i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		min := l
		if r < n && h.less(s, r, l) {
			min = r
		}
		if !h.less(s, min, i) {
			return
		}
		h.swap(i, min)
		i = min
	}
}

// push inserts st.
func (h *streamHeap) push(s *Scheduler, st *stream) {
	st.heap, st.heapIdx = h, len(h.items)
	h.items = append(h.items, st)
	h.up(s, st.heapIdx)
}

// fix restores the invariant after st's key (head packet or window)
// changed.
func (h *streamHeap) fix(s *Scheduler, st *stream) {
	if st.heap == nil {
		h.push(s, st)
		return
	}
	i := st.heapIdx
	h.down(s, i)
	if st.heapIdx == i { // didn't move down; maybe it moves up
		h.up(s, i)
	}
}

// remove deletes st from the heap.
func (h *streamHeap) remove(s *Scheduler, st *stream) {
	i := st.heapIdx
	last := len(h.items) - 1
	if i != last {
		h.swap(i, last)
	}
	h.items = h.items[:last]
	st.heap = nil
	if i < last {
		moved := h.items[i]
		h.down(s, i)
		if moved.heapIdx == i {
			h.up(s, i)
		}
	}
}

// best returns the winning stream and its head packet, or nils when no
// packets are queued anywhere.
func (h *streamHeap) best(s *Scheduler) (*stream, *Packet) {
	if len(h.items) == 0 {
		return nil, nil
	}
	st := h.items[0]
	p := st.headPacket(s)
	if p == nil {
		return nil, nil
	}
	return st, p
}

// heapSelector is the Heaps schedule representation. Work-conserving, it is
// one precedence heap over every stream. Paced, it is an eligibility index
// of two heaps: ready holds the streams whose head is eligible, in
// precedence order; pending holds the streams whose head is not yet, by the
// instant it will be. A stream with a head is in exactly one of the two, a
// stream without one (empty or paused) in neither, so a decision costs the
// promotions that have come due plus one precedence-heap update instead of
// a walk over every stream. The index relies on Config.Now never going
// backwards: a head, once eligible, stays eligible until it changes.
type heapSelector struct {
	ready   streamHeap
	pending streamHeap
	seen    sim.Time // latest decision time: every ready head has eligAt ≤ seen
}

func (hs *heapSelector) add(s *Scheduler, st *stream) { hs.fix(s, st) }

func (hs *heapSelector) remove(s *Scheduler, st *stream) {
	if st.heap != nil {
		st.heap.remove(s, st)
	}
}

// fix re-files st after its head or window changed.
func (hs *heapSelector) fix(s *Scheduler, st *stream) {
	dst := &hs.ready
	if s.index != nil {
		p := st.headPacket(s)
		if p == nil {
			hs.remove(s, st)
			return
		}
		s.meter.Int(2)
		s.meter.Branch(1)
		if st.eligAt = s.eligibleAt(p); st.eligAt > hs.seen {
			dst = &hs.pending
		}
		if st.heap != dst {
			hs.remove(s, st)
		}
	}
	dst.fix(s, st)
}

func (hs *heapSelector) best(s *Scheduler) (*stream, *Packet) { return hs.ready.best(s) }

// eligible is the paced decision: promote every head whose instant has
// come, then take the precedence winner among the ready. With nothing ready
// it returns the earliest pending instant instead (0 if nothing is queued),
// as selectEligible does.
func (hs *heapSelector) eligible(s *Scheduler, now sim.Time) (*stream, *Packet, sim.Time) {
	hs.seen = max(hs.seen, now)
	for len(hs.pending.items) > 0 {
		st := hs.pending.items[0]
		s.meter.Int(1)
		s.meter.Branch(1)
		if st.eligAt > now {
			break
		}
		hs.pending.remove(s, st)
		hs.ready.push(s, st)
	}
	if st, p := hs.ready.best(s); st != nil {
		return st, p, 0
	}
	if len(hs.pending.items) > 0 {
		return nil, nil, hs.pending.items[0].eligAt
	}
	return nil, nil, 0
}
