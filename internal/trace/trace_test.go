package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestRecordAndEvents(t *testing.T) {
	eng := sim.NewEngine(1)
	l := New(eng, 16)
	eng.At(10*sim.Microsecond, func() {
		l.Record(KindEnqueue, "ni0/dwcs", 1, 0, "")
	})
	eng.At(20*sim.Microsecond, func() {
		l.RecordArg(KindDispatch, "ni0/dwcs", 1, 0, "qdelay=%v", Dur(1500*sim.Microsecond))
	})
	eng.Run()
	evs := l.Events()
	if len(evs) != 2 || l.Len() != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].At != 10*sim.Microsecond || evs[0].Kind != KindEnqueue {
		t.Fatalf("first = %+v", evs[0])
	}
	if evs[1].Note != "qdelay=1.500ms" {
		t.Fatalf("note = %q", evs[1].Note)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	eng := sim.NewEngine(1)
	l := New(eng, 4)
	for i := 0; i < 10; i++ {
		l.Record(KindUser, "x", i, -1, "")
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d", len(evs))
	}
	for i, e := range evs {
		if e.Stream != 6+i {
			t.Fatalf("retained wrong window: %+v", evs)
		}
	}
	if l.Dropped != 6 {
		t.Fatalf("dropped = %d", l.Dropped)
	}
}

func TestFilters(t *testing.T) {
	eng := sim.NewEngine(1)
	l := New(eng, 0) // default capacity
	l.Record(KindDrop, "a", 1, 5, "")
	l.Record(KindDispatch, "a", 2, 6, "")
	l.Record(KindDrop, "b", 2, 7, "")
	if got := l.ByKind(KindDrop); len(got) != 2 {
		t.Fatalf("ByKind = %d", len(got))
	}
	if got := l.ByStream(2); len(got) != 2 {
		t.Fatalf("ByStream = %d", len(got))
	}
}

func TestDisabledAndNil(t *testing.T) {
	eng := sim.NewEngine(1)
	l := New(eng, 8)
	l.Enabled = false
	l.Record(KindUser, "x", -1, -1, "")
	if l.Len() != 0 {
		t.Fatal("disabled log recorded")
	}
	var nilLog *Log
	nilLog.Record(KindUser, "x", -1, -1, "") // must not panic
	nilLog.RecordArg(KindUser, "x", -1, -1, "%d", Int(1))
	if nilLog.On() || l.On() {
		t.Fatal("nil or disabled log reports On")
	}
}

func TestDumpAndSummary(t *testing.T) {
	eng := sim.NewEngine(1)
	l := New(eng, 8)
	l.Record(KindMiss, "ni0", 3, 9, "deadline passed")
	l.Record(KindMiss, "ni0", 3, 10, "")
	l.Record(KindIO, "disk0", -1, -1, "read 8k")
	var sb strings.Builder
	if err := l.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "miss") || !strings.Contains(out, "s3#9") ||
		!strings.Contains(out, "deadline passed") {
		t.Fatalf("dump: %s", out)
	}
	sum := l.Summary()
	if !strings.Contains(sum, "miss=2") || !strings.Contains(sum, "io=1") {
		t.Fatalf("summary: %s", sum)
	}
}

func TestKindString(t *testing.T) {
	if KindDispatch.String() != "dispatch" {
		t.Error("kind name")
	}
	if Kind(200).String() != "Kind(200)" {
		t.Error("unknown kind name")
	}
}

// Property: the ring retains exactly the last min(n, cap) events in order.
func TestRingRetentionProperty(t *testing.T) {
	f := func(n uint8, capSeed uint8) bool {
		cap := int(capSeed)%32 + 1
		eng := sim.NewEngine(1)
		l := New(eng, cap)
		for i := 0; i < int(n); i++ {
			l.Record(KindUser, "x", i, -1, "")
		}
		evs := l.Events()
		want := int(n)
		if want > cap {
			want = cap
		}
		if len(evs) != want {
			return false
		}
		for i, e := range evs {
			if e.Stream != int(n)-want+i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeVisitsChronologicallyAfterWrap(t *testing.T) {
	eng := sim.NewEngine(1)
	l := New(eng, 4)
	for i := 0; i < 6; i++ {
		i := i
		eng.At(sim.Time(i)*sim.Microsecond, func() {
			l.Record(KindUser, "src", i, int64(i), "")
		})
	}
	eng.Run()
	var seen []int
	l.Range(func(e Event) bool {
		seen = append(seen, e.Stream)
		return true
	})
	if len(seen) != 4 {
		t.Fatalf("visited %d events, want 4", len(seen))
	}
	for i, want := range []int{2, 3, 4, 5} {
		if seen[i] != want {
			t.Fatalf("range order = %v, want [2 3 4 5]", seen)
		}
	}
}

func TestRangeEarlyExit(t *testing.T) {
	eng := sim.NewEngine(1)
	l := New(eng, 8)
	for i := 0; i < 5; i++ {
		l.Record(KindUser, "src", i, -1, "")
	}
	n := 0
	l.Range(func(Event) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("visited %d events after early exit, want 2", n)
	}
	// Early exit must also work on the wrapped (full) half of the ring.
	for i := 5; i < 10; i++ {
		l.Record(KindUser, "src", i, -1, "")
	}
	n = 0
	l.Range(func(Event) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("visited %d events, want 1", n)
	}
}

func TestRangeNilLog(t *testing.T) {
	var l *Log
	l.Range(func(Event) bool {
		t.Fatal("nil log visited an event")
		return true
	})
}

func TestRecordClampsOutOfRangeKind(t *testing.T) {
	eng := sim.NewEngine(1)
	l := New(eng, 8)
	l.Record(Kind(200), "src", 1, -1, "bogus kind")
	l.Record(numKinds, "src", 2, -1, "first invalid value")
	evs := l.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	for _, e := range evs {
		if e.Kind != KindUser {
			t.Errorf("kind = %v, want KindUser (clamped)", e.Kind)
		}
	}
	if got := l.Summary(); !strings.Contains(got, "user=2") {
		t.Errorf("summary = %q, want user=2", got)
	}
	if got := l.ByKind(KindUser); len(got) != 2 {
		t.Errorf("ByKind(KindUser) = %d events, want 2", len(got))
	}
}

// A deferred note is text only once somebody reads it, and reads the same
// through every reader; recording one allocates nothing.
func TestRecordArgFormatsOnRead(t *testing.T) {
	eng := sim.NewEngine(1)
	l := New(eng, 4)
	l.RecordArg(KindEnqueue, "ni0/dwcs", 1, -1, "%dB", Int(1500))
	l.RecordArg(KindDispatch, "ni0/dwcs", 1, 7, "qdelay=%v", Dur(2*sim.Millisecond))
	l.Record(KindDrop, "ni0/dwcs", 1, 8, "100% literal") // no argument: never a format
	want := []string{"1500B", "qdelay=2.000ms", "100% literal"}
	for i, e := range l.Events() {
		if e.Note != want[i] {
			t.Errorf("Events()[%d].Note = %q, want %q", i, e.Note, want[i])
		}
	}
	if got := l.ByKind(KindEnqueue); len(got) != 1 || got[0].Note != "1500B" {
		t.Errorf("ByKind(enqueue) = %+v", got)
	}
	if got := l.ByStream(1); len(got) != 3 || got[1].Note != "qdelay=2.000ms" {
		t.Errorf("ByStream(1) = %+v", got)
	}
	var sb strings.Builder
	if err := l.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		if !strings.Contains(sb.String(), w) {
			t.Errorf("dump missing %q:\n%s", w, sb.String())
		}
	}

	seq := int64(0)
	if n := testing.AllocsPerRun(1000, func() { // wraps the ring many times over
		l.RecordArg(KindEnqueue, "ni0/dwcs", 1, -1, "%dB", Int(seq))
		l.RecordArg(KindDispatch, "ni0/dwcs", 1, seq, "qdelay=%v", Dur(sim.Time(seq)))
		seq++
	}); n != 0 {
		t.Errorf("RecordArg allocates %v per frame, want 0", n)
	}
}

// BenchmarkTraceRecord is the card's two events per frame into a full ring.
func BenchmarkTraceRecord(b *testing.B) {
	l := New(sim.NewEngine(1), 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.RecordArg(KindEnqueue, "ni00/dwcs", i&127, -1, "%dB", Int(int64(i)))
		l.RecordArg(KindDispatch, "ni00/dwcs", i&127, int64(i), "qdelay=%v", Dur(sim.Time(i)))
	}
}
