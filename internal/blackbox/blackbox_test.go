package blackbox

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// feed replays a fixed event sequence with a trigger mid-stream, the way a
// chaos run does, and returns the full dump.
func feed(t *testing.T) string {
	t.Helper()
	rec, err := New(Config{Name: "ni-0", Bytes: 1 << 10, MaxIncidents: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec.StateFn = func() string { return "ni-0: used 0/1048576" }
	for i := 0; i < 40; i++ { // 1 KiB ring holds 16 events: plenty of wraparound
		rec.Record(Event{At: sim.Time(i) * sim.Millisecond, Kind: KindDecision,
			Stream: 1 + i%3, Seq: int64(i)})
	}
	rec.Record(Event{At: 41 * sim.Millisecond, Kind: KindRefusal, Stream: 9,
		A: 278528, Note: "addStream refused"})
	rec.Trigger(41*sim.Millisecond, "budget-refusal")
	rec.Record(Event{At: 50 * sim.Millisecond, Kind: KindWatchdog, Note: "deadman"})
	rec.Trigger(50*sim.Millisecond, "watchdog")
	rec.Trigger(60*sim.Millisecond, "extra") // beyond MaxIncidents: suppressed
	return rec.DumpAll()
}

func TestIdenticalRunsDumpByteIdentical(t *testing.T) {
	a, b := feed(t), feed(t)
	if a != b {
		t.Fatalf("identical runs produced different dumps:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, "=== incident 1: budget-refusal at 41.000ms ===") ||
		!strings.Contains(a, "=== incident 2: watchdog at 50.000ms ===") {
		t.Fatalf("dump missing incident headers:\n%s", a)
	}
	if !strings.Contains(a, "3 trigger(s), 1 suppressed") {
		t.Fatalf("dump trailer should count 3 triggers / 1 suppressed:\n%s", a)
	}
	if !strings.Contains(a, "state:") || !strings.Contains(a, "ni-0: used") {
		t.Fatalf("incident should embed the budget state:\n%s", a)
	}
}

// The ring is the bound: recording far past capacity overwrites the oldest
// slots in order and never grows it. (The ring's budget charge is made where
// the recorder is put on a card: nic's TestAttachBlackboxRecordsAndTriggers.)
func TestRingBoundedByCapacity(t *testing.T) {
	rec, err := New(Config{Name: "ni-0", Bytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(rec.Capacity()) * EventBytes; rec.RingBytes() != want {
		t.Fatalf("RingBytes = %d, want %d", rec.RingBytes(), want)
	}
	for i := 0; i < 10*rec.Capacity(); i++ {
		rec.Record(Event{At: sim.Time(i), Kind: KindDecision, Seq: int64(i)})
	}
	if got := len(rec.Events()); got != rec.Capacity() {
		t.Fatalf("live events = %d, want capacity %d", got, rec.Capacity())
	}
	if rec.Overwritten != int64(9*rec.Capacity()) {
		t.Fatalf("Overwritten = %d, want %d", rec.Overwritten, 9*rec.Capacity())
	}
	// Oldest → newest ordering survives wraparound.
	evs := rec.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("ring out of order at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{})
	if r.Trigger(0, "x") != nil || r.Events() != nil || r.DumpAll() != "" {
		t.Fatal("nil recorder should no-op")
	}
	if r.Now() != 0 {
		t.Fatal("nil recorder should read time zero")
	}
	r.Instrument(nil)
}

// EventsSince with a filter is the unfiltered read with the other kinds left
// out: the same cursor, the same count of events lost to wraparound (every
// kind counts), and nothing allocated when no event passes.
func TestEventsSinceFiltered(t *testing.T) {
	rec, err := New(Config{Name: "ni-0", Bytes: 16 * EventBytes})
	if err != nil {
		t.Fatal(err)
	}
	incident := func(k Kind) bool { return k == KindRefusal || k == KindWatchdog }
	for i := 1; i <= 40; i++ {
		k := KindDecision
		switch i % 10 {
		case 3:
			k = KindRefusal
		case 7:
			k = KindWatchdog
		}
		rec.Record(Event{At: sim.Time(i), Kind: k, Seq: int64(i)})
	}
	for _, since := range []int64{0, 20, 24, 30, 39, 40} {
		all, newest, lost := rec.EventsSince(since, nil)
		kept, newestF, lostF := rec.EventsSince(since, incident)
		if newestF != newest || lostF != lost {
			t.Fatalf("since %d: filtered read newest=%d lost=%d, unfiltered %d and %d", since, newestF, lostF, newest, lost)
		}
		var want []Event
		for _, e := range all {
			if incident(e.Kind) {
				want = append(want, e)
			}
		}
		if len(kept) != len(want) {
			t.Fatalf("since %d: %d events kept, want %d", since, len(kept), len(want))
		}
		for i := range want {
			if kept[i] != want[i] {
				t.Fatalf("since %d: event %d is %+v, want %+v", since, i, kept[i], want[i])
			}
		}
	}
	if _, _, lost := rec.EventsSince(0, incident); lost != 24 {
		t.Fatalf("lost = %d, want the 24 overwritten events of every kind", lost)
	}
	none := func(Kind) bool { return false }
	if n := testing.AllocsPerRun(100, func() { rec.EventsSince(0, none) }); n != 0 {
		t.Fatalf("a read that keeps nothing allocates %v", n)
	}
}
