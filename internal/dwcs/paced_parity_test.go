package dwcs

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fixed"
	"repro/internal/sim"
)

// pacedPair is a Scan scheduler (the paper's paced walk, the reference) and a
// Heaps scheduler (the eligibility index) on one clock, driven in lockstep.
type pacedPair struct {
	t     *testing.T
	clk   *testClock
	scan  *Scheduler
	heaps *Scheduler
	step  int
}

func newPacedPair(t *testing.T, prec Precedence, early sim.Time) *pacedPair {
	clk := &testClock{}
	mk := func(sel SelectorKind) *Scheduler {
		return New(Config{Selector: sel, Precedence: prec, EligibleEarly: early, Now: clk.Now})
	}
	return &pacedPair{t: t, clk: clk, scan: mk(Scan), heaps: mk(Heaps)}
}

// both applies op to each scheduler and requires equal results.
func (pp *pacedPair) both(what string, op func(*Scheduler) any) {
	pp.t.Helper()
	pp.step++
	want, got := op(pp.scan), op(pp.heaps)
	if !reflect.DeepEqual(got, want) {
		pp.t.Fatalf("step %d at %v, %s: heaps %+v, scan %+v", pp.step, pp.clk.now, what, got, want)
	}
	pp.checkIndex()
}

// decision is what a Schedule call returned, by value.
type decision struct {
	Packet    Packet
	Sent      bool
	Late      bool
	Dropped   []Packet
	WaitUntil sim.Time
}

func (pp *pacedPair) schedule() decision {
	pp.t.Helper()
	var out decision
	pp.both("Schedule", func(s *Scheduler) any {
		d := s.Schedule()
		dec := decision{Late: d.Late, WaitUntil: d.WaitUntil}
		if d.Packet != nil {
			dec.Sent, dec.Packet = true, *d.Packet
			dec.Packet.slot = 0 // descriptor slots are the table's business
		}
		for _, p := range d.Dropped {
			q := *p
			q.slot = 0
			dec.Dropped = append(dec.Dropped, q)
		}
		out = dec
		return dec
	})
	return out
}

// checkIndex asserts the two-heap invariant: a stream with a head is in
// exactly one of {ready, pending} — ready iff its instant has come by the
// last decision — and a stream without one is in neither; both heaps are
// heaps, and every position index is right.
func (pp *pacedPair) checkIndex() {
	pp.t.Helper()
	s, hs := pp.heaps, pp.heaps.index
	if hs == nil {
		pp.t.Fatal("paced Heaps scheduler has no index")
	}
	for _, h := range []*streamHeap{&hs.ready, &hs.pending} {
		for i, st := range h.items {
			if st.heap != h || st.heapIdx != i {
				pp.t.Fatalf("step %d: stream %d at %d has heap=%p idx=%d", pp.step, st.spec.ID, i, st.heap, st.heapIdx)
			}
			if i > 0 && h.less(s, i, (i-1)/2) {
				pp.t.Fatalf("step %d: heap property broken at %d (byEligibility=%v)", pp.step, i, h.byEligibility)
			}
		}
	}
	members := 0
	for _, st := range s.order {
		p := st.headPacket(s)
		switch {
		case p == nil:
			if st.heap != nil {
				pp.t.Fatalf("step %d: stream %d has no head but is filed", pp.step, st.spec.ID)
			}
			continue
		case st.heap == nil:
			pp.t.Fatalf("step %d: stream %d has a head but is in neither heap", pp.step, st.spec.ID)
		case st.eligAt != s.eligibleAt(p):
			pp.t.Fatalf("step %d: stream %d filed at %v, head eligible at %v", pp.step, st.spec.ID, st.eligAt, s.eligibleAt(p))
		case st.heap == &hs.ready && st.eligAt > hs.seen:
			pp.t.Fatalf("step %d: stream %d ready before its instant %v (seen %v)", pp.step, st.spec.ID, st.eligAt, hs.seen)
		}
		members++
	}
	if n := len(hs.ready.items) + len(hs.pending.items); n != members {
		pp.t.Fatalf("step %d: heaps hold %d streams, %d have heads", pp.step, n, members)
	}
}

// TestPacedHeapsIndexMatchesScanFuzz is the paced-mode parity the
// work-conserving fuzzes never had: with EligibleEarly > 0 and a clock that
// only moves forward, the Heaps eligibility index must return the same
// Packet, Dropped, Late and WaitUntil as Scan's walk at every step of a
// seeded op stream over the whole mutating API, under both precedences.
func TestPacedHeapsIndexMatchesScanFuzz(t *testing.T) {
	const steps = 12_000
	for _, prec := range []Precedence{LossFirst, EDFFirst} {
		for _, seed := range []int64{1, 42, 1960} {
			rng := rand.New(rand.NewSource(seed))
			pp := newPacedPair(t, prec, sim.Time(rng.Intn(8)+1)*sim.Millisecond)
			randSpec := func(id int) StreamSpec {
				x := int64(rng.Intn(4))
				return StreamSpec{ID: id, Period: sim.Time(rng.Intn(20)+1) * sim.Millisecond,
					Loss: fixed.New(x, x+int64(rng.Intn(4))+1), Lossy: rng.Intn(3) > 0, BufCap: 8}
			}
			live := []int{}
			nextID := 0
			add := func() {
				sp := randSpec(nextID)
				nextID++
				live = append(live, sp.ID)
				pp.both("AddStream", func(s *Scheduler) any { return s.AddStream(sp) })
			}
			for i := 0; i < 6; i++ {
				add()
			}
			var parked []StreamSnapshot // exported and removed, to be imported back
			sent, dropped, waits := 0, 0, 0
			for step := 0; step < steps; step++ {
				if len(live) == 0 {
					add()
				}
				at := rng.Intn(len(live))
				id := live[at]
				switch op := rng.Intn(24); {
				case op < 7:
					bytes := int64(rng.Intn(1000))
					pp.both("Enqueue", func(s *Scheduler) any { return s.Enqueue(id, Packet{Bytes: bytes}) != nil })
				case op < 14:
					d := pp.schedule()
					if d.Sent {
						sent++
					}
					dropped += len(d.Dropped)
					if d.WaitUntil != 0 {
						waits++
					}
				case op < 17:
					pp.clk.now += sim.Time(rng.Intn(10_000)) * sim.Microsecond
				case op == 17 && rng.Intn(2) == 0:
					pp.both("Pause", func(s *Scheduler) any { return s.Pause(id) })
				case op == 18:
					pp.both("Resume", func(s *Scheduler) any { return s.Resume(id) })
				case op == 19:
					sp := randSpec(id)
					pp.both("Reconfigure", func(s *Scheduler) any { return s.Reconfigure(id, sp.Period, sp.Loss) })
				case op == 20:
					pp.both("ShedTolerant", func(s *Scheduler) any {
						p, ok := s.ShedTolerant(id)
						p.slot = 0
						return []any{p, ok}
					})
				case op == 21 && rng.Intn(4) == 0:
					pp.both("FlushStream", func(s *Scheduler) any {
						ps, _ := s.FlushStream(id)
						return len(ps)
					})
				case op == 22 && rng.Intn(3) == 0:
					// Migrate out: export, then remove (queued packets and all).
					if rng.Intn(2) == 0 {
						pp.both("ExportStream", func(s *Scheduler) any {
							snap, err := s.ExportStream(id)
							if s == pp.scan && err == nil {
								parked = append(parked, snap)
							}
							return snap
						})
					}
					live = append(live[:at], live[at+1:]...)
					pp.both("RemoveStream", func(s *Scheduler) any { return s.RemoveStream(id) })
				case op == 23 && rng.Intn(3) == 0:
					if len(parked) > 0 {
						snap := parked[0]
						parked = parked[1:]
						live = append(live, snap.Spec.ID)
						pp.both("ImportStream", func(s *Scheduler) any { return s.ImportStream(snap) })
					} else {
						add()
					}
				}
			}
			pp.both("Snapshot", func(s *Scheduler) any { return s.Snapshot() })
			// A fuzz that never sent, dropped or waited compared nothing.
			if sent < steps/40 || dropped < steps/200 || waits < steps/200 {
				t.Fatalf("%v seed %d: sent %d, dropped %d, waited %d — the op mix no longer exercises paced mode",
					prec, seed, sent, dropped, waits)
			}
		}
	}
}

// TestPacedHeapsIndexBurstAndIdleShapes pins the two extreme shapes: every
// head eligible at the same instant (dwcsd's phase-aligned burst — the
// promotion loop moves all of them in one decision) and nothing eligible at
// all (the decision is the pending top, which must be the walk's minimum).
func TestPacedHeapsIndexBurstAndIdleShapes(t *testing.T) {
	const n = 256
	period, early := 40*sim.Millisecond, 10*sim.Millisecond
	for _, prec := range []Precedence{LossFirst, EDFFirst} {
		pp := newPacedPair(t, prec, early)
		for i := 0; i < n; i++ {
			sp := StreamSpec{ID: i, Period: period, Loss: fixed.New(int64(i%3), int64(i%3)+2), Lossy: true, BufCap: 4}
			pp.both("AddStream", func(s *Scheduler) any { return s.AddStream(sp) })
		}
		if d := pp.schedule(); d.Sent || d.WaitUntil != 0 {
			t.Fatalf("empty scheduler decided %+v", d)
		}
		for round := 1; round <= 3; round++ {
			for i := 0; i < n; i++ {
				pp.both("Enqueue", func(s *Scheduler) any { return s.Enqueue(i, Packet{Bytes: 4000}) != nil })
			}
			// Nothing eligible: both name the same instant and send nothing.
			instant := sim.Time(round)*period - early
			if d := pp.schedule(); d.Sent || d.WaitUntil != instant {
				t.Fatalf("round %d before the instant: %+v, want WaitUntil %v", round, d, instant)
			}
			if got := len(pp.heaps.index.pending.items); got != n {
				t.Fatalf("round %d: %d streams pending, want %d", round, got, n)
			}
			// The instant: all n promoted by the first decision, drained in
			// precedence order by n decisions.
			pp.clk.now = instant
			for i := 0; i < n; i++ {
				if d := pp.schedule(); !d.Sent || d.Late {
					t.Fatalf("round %d decision %d: %+v", round, i, d)
				}
				if i == 0 && len(pp.heaps.index.ready.items) != n-1 {
					t.Fatalf("round %d: first decision left %d ready, want %d", round, len(pp.heaps.index.ready.items), n-1)
				}
			}
			if d := pp.schedule(); d.Sent || d.WaitUntil != 0 {
				t.Fatalf("round %d after the burst: %+v, want idle", round, d)
			}
		}
	}
}
