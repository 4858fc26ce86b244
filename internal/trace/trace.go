// Package trace is a lightweight structured event log for the simulated
// server: substrates record what happened and when (simulated time), and
// tools dump, filter, or summarize the log. It is the reproduction's
// equivalent of the instrumentation the paper says it "built ... to measure
// desired performance parameters at the scheduler card or at the remote
// client end" (§4.1).
//
// The log is a bounded ring: old events are overwritten once the capacity
// is reached, like an on-card trace buffer would be. Recording stores the
// event's fields; a note with an argument (RecordArg) becomes text only when
// a reader asks for it.
package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// Kind classifies events.
type Kind uint8

// Event kinds.
const (
	KindEnqueue Kind = iota
	KindDispatch
	KindDrop
	KindMiss
	KindIO
	KindBus
	KindNet
	// KindHandoff marks a stream placement handoff crossing this card: a
	// migration export, import, or re-add. Seq carries the frame cursor the
	// new placement starts from, so card-local traces can be stitched to the
	// fleet's span epochs.
	KindHandoff
	KindUser
	numKinds
)

var kindNames = [numKinds]string{
	"enqueue", "dispatch", "drop", "miss", "io", "bus", "net", "handoff", "user",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one trace record.
type Event struct {
	At     sim.Time
	Kind   Kind
	Source string // component, e.g. "ni0/dwcs"
	Stream int    // stream id, -1 when not stream-related
	Seq    int64  // sequence number, -1 when not applicable
	Note   string
}

// String renders one line.
func (e Event) String() string {
	b := fmt.Sprintf("%12v %-8s %-14s", e.At, e.Kind, e.Source)
	if e.Stream >= 0 {
		b += fmt.Sprintf(" s%d", e.Stream)
	}
	if e.Seq >= 0 {
		b += fmt.Sprintf("#%d", e.Seq)
	}
	if e.Note != "" {
		b += " " + e.Note
	}
	return b
}

// Arg is the one value a deferred note formats: RecordArg stores it beside
// the format and a reader applies the format, so the record path builds no
// string and boxes nothing.
type Arg struct {
	kind argKind
	v    int64
}

type argKind uint8

const (
	argNone argKind = iota // the note is literal text
	argInt
	argDur
)

// Int is an integer argument (%d).
func Int(n int64) Arg { return Arg{argInt, n} }

// Dur is a simulated-time argument (%v renders it as sim.Time does).
func Dur(d sim.Time) Arg { return Arg{argDur, int64(d)} }

// record is an Event as the ring holds it: note is still the format when
// argKind is set.
type record struct {
	at       sim.Time
	seq, arg int64
	stream   int
	source   string
	note     string
	kind     Kind
	argKind  argKind
}

// event renders the record as readers see it.
func (r *record) event() Event {
	e := Event{At: r.at, Kind: r.kind, Source: r.source, Stream: r.stream, Seq: r.seq, Note: r.note}
	switch r.argKind {
	case argInt:
		e.Note = fmt.Sprintf(r.note, r.arg)
	case argDur:
		e.Note = fmt.Sprintf(r.note, sim.Time(r.arg))
	}
	return e
}

// Log is a bounded event ring.
type Log struct {
	eng    *sim.Engine
	events []record
	next   int
	full   bool

	// Dropped counts events lost to the bound (always 0 until the ring
	// wraps; afterwards it counts overwrites).
	Dropped int64
	// Enabled gates recording; a disabled log costs one branch per Record.
	Enabled bool
}

// New returns an enabled log of the given capacity.
func New(eng *sim.Engine, capacity int) *Log {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Log{eng: eng, events: make([]record, capacity), Enabled: true}
}

// On reports whether a Record would be kept, for the rare caller whose note
// takes work to build. A nil log is off.
func (l *Log) On() bool { return l != nil && l.Enabled }

// Record appends an event at the current simulated time. Out-of-range kinds
// are clamped to KindUser so they can't skew per-kind tallies (Summary) or
// dodge ByKind filters.
func (l *Log) Record(kind Kind, source string, stream int, seq int64, note string) {
	l.RecordArg(kind, source, stream, seq, note, Arg{})
}

// RecordArg is Record with a note formatted from one argument — when the
// event is read, not now: an event overwritten before anyone looks never
// pays for its text.
func (l *Log) RecordArg(kind Kind, source string, stream int, seq int64, format string, arg Arg) {
	if l == nil || !l.Enabled {
		return
	}
	if kind >= numKinds {
		kind = KindUser
	}
	if l.full {
		l.Dropped++
	}
	l.events[l.next] = record{
		at: l.eng.Now(), seq: seq, arg: arg.v, stream: stream,
		source: source, note: format, kind: kind, argKind: arg.kind,
	}
	l.next++
	if l.next == len(l.events) {
		l.next = 0
		l.full = true
	}
}

// Len returns the number of retained events.
func (l *Log) Len() int {
	if l.full {
		return len(l.events)
	}
	return l.next
}

// Events returns retained events in chronological order.
func (l *Log) Events() []Event {
	out := make([]Event, 0, l.Len())
	l.Range(func(e Event) bool {
		out = append(out, e)
		return true
	})
	return out
}

// Range visits retained events in chronological order without copying the
// ring. fn returning false stops the walk.
func (l *Log) Range(fn func(Event) bool) {
	if l == nil {
		return
	}
	first, n := 0, l.next
	if l.full {
		first, n = l.next, len(l.events)
	}
	for i := 0; i < n; i++ {
		if !fn(l.events[(first+i)%len(l.events)].event()) {
			return
		}
	}
}

// Filter returns retained events matching the predicate.
func (l *Log) Filter(keep func(Event) bool) []Event {
	var out []Event
	l.Range(func(e Event) bool {
		if keep(e) {
			out = append(out, e)
		}
		return true
	})
	return out
}

// ByKind returns retained events of one kind.
func (l *Log) ByKind(k Kind) []Event {
	return l.Filter(func(e Event) bool { return e.Kind == k })
}

// ByStream returns retained events of one stream.
func (l *Log) ByStream(id int) []Event {
	return l.Filter(func(e Event) bool { return e.Stream == id })
}

// Dump writes the retained events to w, one per line.
func (l *Log) Dump(w io.Writer) error {
	var err error
	l.Range(func(e Event) bool {
		_, err = fmt.Fprintln(w, e)
		return err == nil
	})
	return err
}

// Summary tallies retained events by kind.
func (l *Log) Summary() string {
	var counts [numKinds]int
	for i := range l.events[:l.Len()] {
		counts[l.events[i].kind]++
	}
	var parts []string
	for k, n := range counts {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", Kind(k), n))
		}
	}
	if l.Dropped > 0 {
		parts = append(parts, fmt.Sprintf("overwritten=%d", l.Dropped))
	}
	return strings.Join(parts, " ")
}
