package nic

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/blackbox"
	"repro/internal/dwcs"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// schedScenario is one shape of the scheduler task: coupled or decoupled,
// paced or work-conserving, with a hang and a crash landing mid-run.
type schedScenario struct {
	name string
	cfg  SchedulerConfig
	hogs int // the dispatch after which a 40 ms HangHog spawns, mid-burst
	// crash is the dispatch after which the card crashes 100 µs later,
	// inside the protocol-transmit burst, and resets 20 ms after that.
	crash int
}

var schedScenarios = []schedScenario{
	{name: "coupled, paced", cfg: SchedulerConfig{EligibleEarly: 5 * sim.Millisecond}, hogs: 20, crash: 45},
	{name: "coupled, work-conserving", cfg: SchedulerConfig{WorkConserving: true}, hogs: 30, crash: 70},
	{name: "decoupled, queue 2", cfg: SchedulerConfig{WorkConserving: true, DispatchQueue: 2}, hogs: 25, crash: 60},
	{name: "decoupled, paced", cfg: SchedulerConfig{EligibleEarly: 5 * sim.Millisecond, DispatchQueue: 2}, hogs: 15, crash: 40},
}

// schedulerRun drives one scheduler card through sc for 1.5 s: two lossy
// streams fed at their rates in bursts of 3 and 2 frames, so the hang and
// the crash make deadline drops; stream 1's frames own card memory
// (released when the wire is done), stream 2's only carry an address. It
// returns the log of every received frame, every blackbox drop and the
// card's counters.
func schedulerRun(t *testing.T, sc schedScenario) string {
	r := newRig(t, true)
	t.Cleanup(r.eng.Close)
	ext, err := r.card.LoadScheduler(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := blackbox.New(blackbox.Config{Name: r.card.Name, Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ext.AttachBlackbox(rec)
	for _, spec := range []dwcs.StreamSpec{streamSpec(1, 10*sim.Millisecond), streamSpec(2, 15*sim.Millisecond)} {
		spec.BufCap = 8
		if err := ext.AddStream(spec); err != nil {
			t.Fatal(err)
		}
	}
	var log strings.Builder
	dispatches := 0
	ext.OnDispatch = func(p *dwcs.Packet) {
		dispatches++
		switch dispatches {
		case sc.hogs:
			r.card.HangHog(40 * sim.Millisecond)
		case sc.crash:
			r.eng.After(100*sim.Microsecond, r.card.Crash)
			r.eng.After(20*sim.Millisecond, r.card.Reset)
		}
	}
	log.WriteString("  recv:")
	r.client.OnFrame = func(p *netsim.Packet) {
		fmt.Fprintf(&log, " %d/%d.%d@%d", p.Dispatched/sim.Microsecond, p.StreamID, p.Seq, r.eng.Now()/sim.Microsecond)
	}
	refused := 0
	r.eng.Every(30*sim.Millisecond, func() {
		if r.eng.Now() > sim.Second {
			return
		}
		for i := 0; i < 3; i++ {
			addr, err := r.card.Mem.Alloc(1200)
			if err != nil {
				t.Fatal(err)
			}
			if ext.Enqueue(1, dwcs.Packet{Bytes: 1200, Payload: FrameBuf{r.card.Mem, addr}}) != nil {
				r.card.Mem.Free(addr)
				refused++
			}
		}
		for i := 0; i < 2; i++ {
			if ext.Enqueue(2, dwcs.Packet{Bytes: 900, Payload: AddrPayload("client-1")}) != nil {
				refused++
			}
		}
	})
	r.eng.RunUntil(1500 * sim.Millisecond)
	log.WriteString("\n  drops:")
	for _, e := range rec.Events() {
		if e.Kind == blackbox.KindDrop {
			fmt.Fprintf(&log, " %d/%d.%d", e.At/sim.Microsecond, e.Stream, e.Seq)
		}
	}
	k := r.card.Kernel
	return fmt.Sprintf("%s: sent=%d dropped=%d refused=%d wire=%d recv=%d mem=%d switches=%d busy=%d crashes=%d\n%s\n",
		sc.name, ext.Sent, ext.Dropped, refused, r.card.FramesSent, r.client.Received, r.card.Mem.Used(),
		k.Switches, k.BusyTime, r.card.Crashes, log.String())
}

// TestSchedulerTaskPaths pins the scheduler and dispatcher tasks — coupled
// and decoupled, paced and work-conserving — with deadline drops, the
// decoupled hand-off's back-pressure sleep, a HangHog that preempts at a
// burst end and a crash inside a burst, to testdata/scheduler.golden: every
// received frame's dispatch and arrival time, every deadline drop, and the
// card's counters.
func TestSchedulerTaskPaths(t *testing.T) {
	var got strings.Builder
	for _, sc := range schedScenarios {
		got.WriteString(schedulerRun(t, sc))
	}
	if strings.Contains(got.String(), "dropped=0 ") {
		t.Errorf("a scenario has no deadline drops:\n%s", got.String())
	}
	const golden = "testdata/scheduler.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("scheduler task behaviour left the golden.\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
