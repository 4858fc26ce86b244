package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// atLeastProcs raises GOMAXPROCS to n for the rest of the test, so that a
// topology asking for up to n workers runs its pool on a one-CPU runner too.
func atLeastProcs(t *testing.T, n int) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// buildPair returns a two-partition topology connected both ways with the
// given lookahead.
func buildPair(t *testing.T, la Time) (*Topology, *Partition, *Partition) {
	t.Helper()
	topo := NewTopology(1)
	a := topo.AddPartition("a")
	b := topo.AddPartition("b")
	if err := topo.Connect(a, b, la); err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(b, a, la); err != nil {
		t.Fatal(err)
	}
	return topo, a, b
}

func TestTopologyPingPong(t *testing.T) {
	topo, a, b := buildPair(t, 10*Microsecond)
	var log []string
	hops := 0
	var ping func(from, to *Partition)
	ping = func(from, to *Partition) {
		from.Send(to, 10*Microsecond, func() {
			hops++
			log = append(log, fmt.Sprintf("%s@%v", to.Name(), to.Eng().Now()))
			if hops < 6 {
				ping(to, from)
			}
		})
	}
	ping(a, b)
	topo.Run()
	want := []string{"b@10.000µs", "a@20.000µs", "b@30.000µs", "a@40.000µs", "b@50.000µs", "a@60.000µs"}
	if got := strings.Join(log, " "); got != strings.Join(want, " ") {
		t.Fatalf("ping-pong log = %s", got)
	}
}

func TestConnectRejectsZeroLookahead(t *testing.T) {
	topo := NewTopology(1)
	a := topo.AddPartition("a")
	b := topo.AddPartition("b")
	if err := topo.Connect(a, b, 0); err == nil {
		t.Fatal("Connect with zero lookahead must error")
	}
	if err := topo.Connect(a, b, -Microsecond); err == nil {
		t.Fatal("Connect with negative lookahead must error")
	}
	if err := topo.Connect(a, a, Microsecond); err == nil {
		t.Fatal("self-channel must error")
	}
	if err := topo.Connect(a, b, Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(a, b, Microsecond); err == nil {
		t.Fatal("duplicate channel must error")
	}
}

func TestSendValidation(t *testing.T) {
	topo, a, b := buildPair(t, 10*Microsecond)
	_ = topo
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("below lookahead", func() { a.Send(b, 9*Microsecond, func() {}) })
	c := NewTopology(2).AddPartition("c")
	mustPanic("foreign partition", func() { a.Send(c, 10*Microsecond, func() {}) })
	topo2 := NewTopology(3)
	d := topo2.AddPartition("d")
	e := topo2.AddPartition("e")
	mustPanic("no channel", func() { d.Send(e, Second, func() {}) })
}

// Simultaneous cross-partition timestamps tie-break by source partition ID,
// then by per-source send sequence — regardless of the order the sends
// happen to execute in.
func TestCrossPartitionTieBreak(t *testing.T) {
	topo := NewTopology(1)
	dst := topo.AddPartition("dst") // ID 0
	p1 := topo.AddPartition("p1")   // ID 1
	p2 := topo.AddPartition("p2")   // ID 2
	for _, src := range []*Partition{p1, p2} {
		if err := topo.Connect(src, dst, Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	// Sends issued in reverse partition order, with identical deliver time:
	// delivery must still run p1 before p2, and each source's messages in
	// send order.
	p2.Send(dst, Millisecond, note("p2#1"))
	p2.Send(dst, Millisecond, note("p2#2"))
	p1.Send(dst, Millisecond, note("p1#1"))
	p1.Send(dst, Millisecond, note("p1#2"))
	topo.Run()
	want := "p1#1 p1#2 p2#1 p2#2"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("tie-break order = %q, want %q", got, want)
	}
}

// SendArg delivers fn(arg) at the same instant, in the same merge order,
// as Send delivers a closure.
func TestSendArgMergesWithSend(t *testing.T) {
	topo, a, b := buildPair(t, 10*Microsecond)
	var order []string
	note := func(arg any) { order = append(order, fmt.Sprintf("%s@%v", arg.(string), b.Eng().Now())) }
	a.SendArg(b, 10*Microsecond, note, "arg#1")
	a.Send(b, 10*Microsecond, func() { order = append(order, fmt.Sprintf("fn#2@%v", b.Eng().Now())) })
	a.SendArg(b, 20*Microsecond, note, "arg#3")
	topo.Run()
	want := "arg#1@10.000µs fn#2@10.000µs arg#3@20.000µs"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("delivery = %q, want %q", got, want)
	}
}

// A cross-partition hop that passes its state as the message argument
// allocates nothing once the outboxes, the merge buffer and the arenas have
// grown: no closure, no message handle, no sort swapper.
func TestSendArgDoesNotAllocate(t *testing.T) {
	topo, a, b := buildPair(t, 10*Microsecond)
	topo.Workers = 1
	type frame struct{ n int }
	f := &frame{}
	recv := func(arg any) { arg.(*frame).n++ }
	end := Time(0)
	round := func() {
		for i := 0; i < 4; i++ {
			a.SendArg(b, 10*Microsecond, recv, f)
			b.SendArg(a, 10*Microsecond, recv, f)
		}
		end += 20 * Microsecond
		topo.RunUntil(end)
	}
	round() // grow the buffers to their steady state
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%v allocs per eight cross-partition sends, want 0", allocs)
	}
	if want := 8 * 102; f.n != want { // AllocsPerRun adds a warm-up run
		t.Errorf("delivered %d messages, want %d", f.n, want)
	}
}

// partitionModel is an RNG-free workload used to pin the partitioned engine
// against a literal single shared Engine: per-domain periodic ticks plus
// periodic cross-domain messages, all appending to per-domain logs.
type partitionModel struct {
	logs [][]string
}

// buildDomain wires domain i of n on engine eng. send schedules fn in
// domain dst after delay (cross-domain channel). Tick times are ≡1 mod 1000
// and message arrivals ≡0 mod 1000, so a tick and an arrival never collide
// at the same nanosecond — the one situation where monolithic and
// partitioned engines may legally order a domain's log differently.
func (m *partitionModel) buildDomain(eng *Engine, i, n int, until Time, send func(dst int, delay Time, fn func())) {
	tick := 7*Microsecond + 1
	var ticks, inbox int
	var loop func()
	loop = func() {
		ticks++
		m.logs[i] = append(m.logs[i], fmt.Sprintf("d%d tick %d @%d", i, ticks, eng.Now()))
		if ticks%7 == 0 {
			dst := (i + 1) % n
			at := eng.Now()
			send(dst, 100*Microsecond-1, func() {
				m.logs[dst] = append(m.logs[dst], fmt.Sprintf("d%d recv from d%d sent@%d", dst, i, at))
			})
		}
		if eng.Now()+tick <= until {
			eng.After(tick, loop)
		}
	}
	eng.At(1, loop)
	_ = inbox
}

func runMonolith(n int, until Time) [][]string {
	m := &partitionModel{logs: make([][]string, n)}
	eng := NewEngine(1)
	for i := 0; i < n; i++ {
		i := i
		m.buildDomain(eng, i, n, until, func(dst int, delay Time, fn func()) {
			eng.After(delay, fn)
		})
	}
	eng.RunUntil(until)
	return m.logs
}

// buildPartitioned wires the model's n domains as partitions on a ring.
func buildPartitioned(n int, until Time, workers int) (*Topology, *partitionModel) {
	m := &partitionModel{logs: make([][]string, n)}
	topo := NewTopology(1)
	parts := make([]*Partition, n)
	for i := range parts {
		parts[i] = topo.AddPartition(fmt.Sprintf("d%d", i))
	}
	for i := range parts {
		if err := topo.Connect(parts[i], parts[(i+1)%n], 100*Microsecond-1); err != nil {
			panic(err)
		}
	}
	topo.Workers = workers
	for i := 0; i < n; i++ {
		i := i
		m.buildDomain(parts[i].Eng(), i, n, until, func(dst int, delay Time, fn func()) {
			parts[i].Send(parts[dst], delay, fn)
		})
	}
	return topo, m
}

func runPartitioned(n int, until Time, workers int) [][]string {
	topo, m := buildPartitioned(n, until, workers)
	topo.RunUntil(until)
	return m.logs
}

// The partitioned engine must replay the sequential engine exactly: same
// per-domain logs against a single shared Engine, and byte-identical at any
// worker count.
func TestPartitionedMatchesMonolith(t *testing.T) {
	const n = 5
	const until = 5 * Millisecond
	atLeastProcs(t, 8)
	mono := runMonolith(n, until)
	for _, workers := range []int{1, 2, 4, 8} {
		sameLogs(t, fmt.Sprintf("workers=%d", workers), mono, runPartitioned(n, until, workers))
	}
}

// sameLogs fails the test unless got holds want's per-domain logs.
func sameLogs(t *testing.T, label string, want, got [][]string) {
	t.Helper()
	for i := range want {
		a, b := strings.Join(want[i], "\n"), strings.Join(got[i], "\n")
		if a != b {
			t.Fatalf("%s: domain %d diverged:\nwant:\n%s\ngot:\n%s", label, i, a, b)
		}
	}
}

// Workers above GOMAXPROCS means GOMAXPROCS workers: at GOMAXPROCS=2 a run
// adds at most one goroutine to the coordinator, and replays the monolith's
// logs.
func TestWorkersAboveProcsMatch(t *testing.T) {
	const n = 5
	const until = 5 * Millisecond
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	start := runtime.NumGoroutine()
	sameLogs(t, "workers=8 at GOMAXPROCS=2", runMonolith(n, until), runPartitioned(n, until, 8))

	topo := NewTopology(1)
	topo.Workers = 8
	peak := make([]int, n) // per partition: each is written by one goroutine
	for i := range peak {
		p := topo.AddPartition(fmt.Sprintf("d%d", i))
		p.Eng().Every(Millisecond, func() { peak[i] = max(peak[i], runtime.NumGoroutine()) })
	}
	before := settledGoroutines(start)
	topo.RunUntil(until)
	if got := slices.Max(peak) - before; got > 1 {
		t.Fatalf("workers=8 at GOMAXPROCS=2 ran %d goroutines beside the coordinator, want at most 1", got)
	}
}

// settledGoroutines reads the goroutine count once it has fallen to want,
// giving workers that have already been joined a moment to finish exiting.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// A topology driven by many short RunUntil calls replays the single-worker
// logs, and no worker outlives the call that started it.
func TestTopologySteppedRunUntil(t *testing.T) {
	const n = 3
	const steps = 200
	atLeastProcs(t, 2)
	stepped := func(workers int) [][]string {
		topo, m := buildPartitioned(n, steps*Millisecond, workers)
		before := runtime.NumGoroutine()
		for s := Time(1); s <= steps; s++ {
			topo.RunUntil(s * Millisecond)
		}
		if after := settledGoroutines(before); after > before {
			t.Fatalf("workers=%d: %d goroutines before %d RunUntil calls, %d after", workers, before, steps, after)
		}
		return m.logs
	}
	sameLogs(t, "workers=2 stepped", stepped(1), stepped(2))
}

// RunUntil must leave events beyond the bound pending and align every
// partition clock to the bound.
func TestTopologyRunUntil(t *testing.T) {
	topo, a, b := buildPair(t, Millisecond)
	fired := false
	a.Send(b, 10*Millisecond, func() { fired = true })
	a.Eng().At(2*Millisecond, func() {})
	topo.RunUntil(5 * Millisecond)
	if fired {
		t.Fatal("event beyond the bound fired")
	}
	if a.Eng().Now() != 5*Millisecond || b.Eng().Now() != 5*Millisecond {
		t.Fatalf("clocks = %v, %v, want both 5ms", a.Eng().Now(), b.Eng().Now())
	}
	topo.RunUntil(20 * Millisecond)
	if !fired {
		t.Fatal("pending message did not fire on the next RunUntil")
	}
}

// A partition added after a run starts at the others' time: its first
// message lands after the destination's clock, not before it.
func TestAddPartitionJoinsAtTopologyTime(t *testing.T) {
	topo, a, _ := buildPair(t, Millisecond)
	topo.RunUntil(60 * Millisecond)
	late := topo.AddPartition("late")
	if now := late.Eng().Now(); now != 60*Millisecond {
		t.Fatalf("late partition starts at %v, want 60ms", now)
	}
	if err := topo.Connect(late, a, 10*Millisecond); err != nil {
		t.Fatal(err)
	}
	var at Time
	late.Send(a, 10*Millisecond, func() { at = a.Eng().Now() })
	topo.RunUntil(100 * Millisecond)
	if at != 70*Millisecond {
		t.Fatalf("message from the late partition arrived at %v, want 70ms", at)
	}
}

// Partitions with no channels run to completion independently — the
// degenerate topology recovers the experiment harness's independent-run
// fan-out.
func TestTopologyIndependentPartitions(t *testing.T) {
	atLeastProcs(t, 4)
	topo := NewTopology(1)
	counts := make([]int, 8)
	for i := 0; i < 8; i++ {
		p := topo.AddPartition(fmt.Sprintf("solo%d", i))
		i := i
		for j := 0; j < 100; j++ {
			p.Eng().At(Time(j)*Microsecond, func() { counts[i]++ })
		}
	}
	topo.Workers = 4
	topo.Run()
	for i, c := range counts {
		if c != 100 {
			t.Fatalf("partition %d fired %d of 100", i, c)
		}
	}
}

func TestTopologyLookahead(t *testing.T) {
	topo, a, b := buildPair(t, 42*Microsecond)
	if la, ok := topo.Lookahead(a, b); !ok || la != 42*Microsecond {
		t.Fatalf("Lookahead(a,b) = %v, %v", la, ok)
	}
	topo2 := NewTopology(1)
	c := topo2.AddPartition("c")
	d := topo2.AddPartition("d")
	if _, ok := topo2.Lookahead(c, d); ok {
		t.Fatal("Lookahead on unconnected pair must report false")
	}
	// A channel is directed, and a partition added after the last Connect
	// is found (or not) like any other.
	if err := topo2.Connect(c, d, Microsecond); err != nil {
		t.Fatal(err)
	}
	e := topo2.AddPartition("e")
	for _, pair := range [][2]*Partition{{d, c}, {c, e}, {e, c}} {
		if _, ok := topo2.Lookahead(pair[0], pair[1]); ok {
			t.Fatalf("Lookahead(%s,%s) reports a channel that was never declared", pair[0].Name(), pair[1].Name())
		}
	}
	if err := topo2.Connect(c, e, 3*Microsecond); err != nil {
		t.Fatal(err)
	}
	if la, ok := topo2.Lookahead(c, e); !ok || la != 3*Microsecond {
		t.Fatalf("Lookahead(c,e) = %v, %v", la, ok)
	}
	if la, ok := topo2.Lookahead(c, d); !ok || la != Microsecond {
		t.Fatalf("Lookahead(c,d) = %v, %v after a later Connect", la, ok)
	}
}

// A partition's window is a RunUntil to its horizon − 1, so TryAdvance
// grants up to that instant and refuses beyond it: a message could land at
// the horizon.
func TestTryAdvanceStopsAtPartitionHorizon(t *testing.T) {
	topo := NewTopology(1)
	topo.Workers = 1
	a := topo.AddPartition("a")
	b := topo.AddPartition("b")
	if err := topo.Connect(a, b, 100); err != nil {
		t.Fatal(err)
	}
	a.Eng().At(0, func() {})
	var beyond, within bool
	b.Eng().At(10, func() {
		beyond = b.Eng().TryAdvance(100) // a's event at 0 bounds b at 99
		within = b.Eng().TryAdvance(99)
	})
	topo.RunUntil(1000)
	if beyond || !within {
		t.Fatalf("TryAdvance past the horizon = %v, to horizon−1 = %v; want false, true", beyond, within)
	}
}

func TestCancelledEventNearHorizonKeepsCausality(t *testing.T) {
	// Regression: a cancelled local event sitting at a partition's heap head
	// used to let the window's RunUntil skip ahead and execute a live event
	// beyond the safe horizon; a message sent toward that partition in the
	// same round then arrived in its past and deliver panicked. The shape
	// here mirrors the failure: b cancels a timer inside its window while a
	// is still producing messages bound for b's overshot region.
	topo := NewTopology(1)
	topo.Workers = 1
	a := topo.AddPartition("a")
	b := topo.AddPartition("b")
	const la = 5 * Millisecond
	if err := topo.Connect(a, b, la); err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(b, a, la); err != nil {
		t.Fatal(err)
	}

	var got []Time
	// b: a live event at 1 ms arms a timeout timer at 6 ms and immediately
	// cancels it, leaving a cancelled head; b's next live event is far out
	// at 20 ms — exactly the skip-ahead bait.
	b.Eng().At(1*Millisecond, func() {
		tm := b.Eng().After(5*Millisecond, func() { t.Error("cancelled timer fired") })
		tm.Cancel()
	})
	b.Eng().At(20*Millisecond, func() { got = append(got, b.Eng().Now()) })

	// a: a chain of events each sending to b with the minimum delay, so b
	// keeps receiving messages shortly beyond a's clock the whole run.
	var chain func()
	chain = func() {
		if a.Eng().Now() >= 15*Millisecond {
			return
		}
		a.Send(b, la, func() { got = append(got, b.Eng().Now()) })
		a.Eng().After(1*Millisecond, chain)
	}
	a.Eng().At(1*Millisecond, chain)

	topo.RunUntil(30 * Millisecond) // deliver used to panic here
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events observed out of order: %v", got)
		}
	}
	if len(got) == 0 {
		t.Fatal("no events fired")
	}
}

// relaxHorizons is the full LBTS relaxation horizons replaced, kept as its
// oracle: every partition's bound relaxed over every inbound channel to the
// fixed point, then each horizon the minimum over its inbound channels.
func relaxHorizons(topo *Topology, cap Time) (h []Time, active []bool) {
	lbts := make([]Time, len(topo.parts))
	for i, p := range topo.parts {
		lbts[i] = maxHorizon
		if at, ok := p.eng.NextAt(); ok {
			lbts[i] = at
		}
	}
	for changed := true; changed; {
		changed = false
		for i := range topo.parts {
			for _, e := range topo.in[i] {
				if nh := lbts[e.peer] + e.lookahead; nh < lbts[i] {
					lbts[i], changed = nh, true
				}
			}
		}
	}
	for i, p := range topo.parts {
		hi := cap
		for _, e := range topo.in[i] {
			hi = min(hi, lbts[e.peer]+e.lookahead)
		}
		at, ok := p.eng.NextAt()
		h, active = append(h, hi), append(active, ok && at < hi)
	}
	return h, active
}

// horizonModel drives a random topology: every event may send a message over
// a random outbound channel, schedule a local successor, or end its chain,
// and some timers are cancelled before they fire (an unreaped cancelled
// event still counts in NextAt).
type horizonModel struct {
	topo *Topology
	r    *rand.Rand
}

func (m *horizonModel) poke(p *Partition) {
	var outs []int
	for d, la := range m.topo.la[p.id] {
		if la > 0 {
			outs = append(outs, d)
		}
	}
	r := p.eng.Rand() // the partition's own: settle may run partitions in parallel
	switch k := r.Intn(4); {
	case k == 0 && len(outs) > 0:
		d := outs[r.Intn(len(outs))]
		q := m.topo.parts[d]
		p.Send(q, m.topo.la[p.id][d]+Time(r.Int63n(3)), func() { m.poke(q) })
	case k == 1:
		p.eng.After(Time(r.Int63n(8)), func() { m.poke(p) })
	case k == 2:
		p.eng.After(Time(r.Int63n(8)), func() { m.poke(p) }).Cancel()
	}
}

// settle ends a run the way RunUntil does, every clock aligned, past the
// furthest one.
func (m *horizonModel) settle() {
	end := Time(0)
	for _, p := range m.topo.parts {
		end = max(end, p.eng.Now())
	}
	m.topo.RunUntil(end + Time(m.r.Int63n(20)))
}

// seed gives p up to three starting events (none leaves it idle).
func (m *horizonModel) seed(p *Partition) {
	for range m.r.Intn(4) {
		p.eng.At(p.eng.Now()+Time(m.r.Int63n(12)), func() { m.poke(p) })
	}
}

// connect declares each missing channel with probability dens, lookahead
// 1–4 so that ties between paths and between channels are common.
func (m *horizonModel) connect(dens float64) {
	for _, src := range m.topo.parts {
		for _, dst := range m.topo.parts {
			if _, ok := m.topo.Lookahead(src, dst); src != dst && !ok && m.r.Float64() < dens {
				if err := m.topo.Connect(src, dst, 1+Time(m.r.Intn(4))); err != nil {
					panic(err)
				}
			}
		}
	}
}

// rounds runs n rounds as Topology.run does. Each round's horizons must
// match the relaxation at maxHorizon (Run's cap) and at a finite cap drawn
// below, between or above the partitions' next events; the round runs under
// the finite one, since a partition with no inbound channel runs to cap−1.
func (m *horizonModel) rounds(t *testing.T, label string, n int) {
	t.Helper()
	for round := range n {
		m.topo.deliver()
		var got bool
		for _, limit := range []Time{maxHorizon, m.topo.parts[0].eng.Now() + 1 + Time(m.r.Int63n(30))} {
			wantH, wantA := relaxHorizons(m.topo, limit)
			got = m.topo.horizons(limit)
			if want := slices.Contains(wantA, true); got != want {
				t.Fatalf("%s round %d cap %v: horizons reports work %v, relaxation %v", label, round, limit, got, want)
			}
			for i, p := range m.topo.parts {
				if p.horizon != wantH[i] || p.active != wantA[i] {
					t.Fatalf("%s round %d cap %v: partition %d horizon %v active %v, relaxation %v %v",
						label, round, limit, i, p.horizon, p.active, wantH[i], wantA[i])
				}
			}
		}
		if !got {
			return
		}
		for _, p := range m.topo.parts {
			if p.active {
				p.eng.RunUntil(p.horizon - 1)
			}
		}
	}
}

// horizons gives every partition the bound the full relaxation gives, on
// random topologies from empty to complete, with idle and unreachable
// partitions, at every cap, after channels are added to a run topology and
// after a partition joins one.
func TestHorizonsMatchRelaxation(t *testing.T) {
	for k := range 3000 {
		r := rand.New(rand.NewSource(int64(k)))
		m := &horizonModel{topo: NewTopology(int64(k)), r: r}
		for i := range 1 + r.Intn(10) {
			m.seed(m.topo.AddPartition(fmt.Sprint(i)))
		}
		m.connect([]float64{0, 0.1, 0.3, 0.6, 1}[k%5])
		label := fmt.Sprintf("topology %d", k)
		m.rounds(t, label, 5)
		if k%3 != 0 {
			continue
		}
		m.settle()
		m.connect(0.2)
		for _, p := range m.topo.parts {
			m.seed(p)
		}
		m.rounds(t, label+" after Connect", 5)
		m.settle()
		late := m.topo.AddPartition("late")
		m.seed(late)
		m.connect(0.3)
		m.rounds(t, label+" after AddPartition", 5)
	}
}

// BenchmarkHorizons reports horizons' cost per round (ns/round) on the two
// fleet shapes, driven as Topology.run drives it: the chaos and observed
// fleets' 66-partition full mesh (controller, 64 cards, standby controller)
// and the plain fleet's 64-card ring with its controller hub. Every card has
// a 1 ms tick and forwards every fourth tick over the fleet network (5 ms);
// the controller polls each card every 200 ms.
func BenchmarkHorizons(b *testing.B) {
	const cards, la = 64, 5 * Millisecond
	for _, shape := range []string{"mesh66", "ring64"} {
		b.Run(shape, func(b *testing.B) {
			topo := NewTopology(1)
			ctrl := topo.AddPartition("dvcm")
			parts := make([]*Partition, cards)
			for i := range parts {
				parts[i] = topo.AddPartition(fmt.Sprintf("card%02d", i))
			}
			hubs := []*Partition{ctrl}
			if shape == "mesh66" {
				hubs = append(hubs, topo.AddPartition("dvcm-b"))
			}
			connect := func(src, dst *Partition) {
				if err := topo.Connect(src, dst, la); err != nil {
					b.Fatal(err)
				}
			}
			for i, p := range parts {
				for j, q := range parts {
					if i != j && (shape == "mesh66" || j == (i+1)%cards) {
						connect(p, q)
					}
				}
				for _, h := range hubs {
					connect(h, p)
					connect(p, h)
				}
			}
			if shape == "mesh66" {
				connect(hubs[0], hubs[1])
				connect(hubs[1], hubs[0])
			}
			nop := func() {}
			for i, p := range parts {
				next, ticks := parts[(i+1)%cards], 0
				p.eng.At(Time(i)*13*Microsecond, func() {})
				p.eng.Every(Millisecond, func() {
					if ticks++; ticks%4 == 0 {
						p.Send(next, la, nop)
					}
				})
				ctrl.eng.At(Time(i)*200*Millisecond/cards, func() {
					ctrl.eng.Every(200*Millisecond, func() { ctrl.Send(p, la, nop) })
				})
			}
			var spent time.Duration
			b.ResetTimer()
			for range b.N {
				topo.deliver()
				start := time.Now()
				topo.horizons(maxHorizon)
				spent += time.Since(start)
				for _, p := range topo.parts {
					if p.active {
						p.eng.RunUntil(p.horizon - 1)
					}
				}
			}
			b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/round")
		})
	}
}
