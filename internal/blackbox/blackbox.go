// Package blackbox is a per-card flight recorder: a fixed-size, memory-bounded
// ring of the most recent scheduler decisions, span segments, overload-ladder
// transitions, faults, and metric snapshots, dumped as a deterministic incident
// report when something goes wrong. The design constraint is the paper's own:
// the i960 RD has 4 MB of on-board RAM (§3.1.2), and diagnostic state is
// card-resident like everything else, so the ring's bytes are charged against
// the card's overload budget (ClassBlackbox) exactly like stream state or
// frame buffers. The charge is made where the recorder is put on a card
// (nic.AttachBlackbox), and a card too full for the ring refuses it there.
//
// The recorder is the card's one event stream and watches nothing itself:
// every emitter — the scheduler, the overload budget and ladder, the SLO
// monitor, the watchdog's bite, the chaos injector — records its own event
// at the moment it happens and makes its own Trigger decision. Every dump is
// a pure function of the simulated event sequence, so two identical runs
// produce byte-identical incident reports at any host worker count.
package blackbox

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// EventBytes is the accounting cost of one ring slot. The Go-side Event struct
// is close to this, and the modeled card would store a packed 64-byte record;
// the charge is what matters, not the host representation.
const EventBytes = 64

// Kind classifies ring events.
type Kind int

// Ring event kinds.
const (
	// KindDecision is a scheduler dispatch: stream A won this service slot.
	KindDecision Kind = iota
	// KindDrop is a frame dropped or shed by the scheduler or ladder.
	KindDrop
	// KindSpan is a completed pipeline stage segment (queue wait, tx, ...).
	KindSpan
	// KindLadder is a degradation-ladder rung transition.
	KindLadder
	// KindSnapshot marks a telemetry registry snapshot (A = values written).
	KindSnapshot
	// KindFault is a chaos-plan injection or recovery crossing the card.
	KindFault
	// KindWatchdog is a deadman bite.
	KindWatchdog
	// KindRefusal is a budget admission refusal (A = projected bytes).
	KindRefusal
	// KindSLO is an SLO health-state transition (A = from, B = to).
	KindSLO
	// KindMigrate is a live-migration export or import crossing this card
	// (A/B = window position at the hop, Seq = frame cursor).
	KindMigrate
	// KindDomainFault is a correlated failure-domain event touching this
	// card (host crash, network partition, rolling drain).
	KindDomainFault
)

// String names the kind in dumps; fixed-width-ish short names keep the
// incident report compact and diffable.
func (k Kind) String() string {
	switch k {
	case KindDecision:
		return "decision"
	case KindDrop:
		return "drop"
	case KindSpan:
		return "span"
	case KindLadder:
		return "ladder"
	case KindSnapshot:
		return "snapshot"
	case KindFault:
		return "fault"
	case KindWatchdog:
		return "watchdog"
	case KindRefusal:
		return "refusal"
	case KindSLO:
		return "slo"
	case KindMigrate:
		return "migrate"
	case KindDomainFault:
		return "domain-fault"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one ring slot. A and B are kind-specific payloads (bytes, rungs,
// durations) so the slot stays fixed-size; Note carries a short label and is
// part of the modeled 64 bytes, not extra.
type Event struct {
	At     sim.Time
	Kind   Kind
	Stream int
	Seq    int64
	A, B   int64
	Note   string
}

// String renders one ring line.
func (e Event) String() string {
	s := fmt.Sprintf("%v %s", e.At, e.Kind)
	if e.Stream != 0 {
		s += fmt.Sprintf(" stream=%d", e.Stream)
	}
	if e.Seq != 0 {
		s += fmt.Sprintf(" seq=%d", e.Seq)
	}
	if e.A != 0 {
		s += fmt.Sprintf(" a=%d", e.A)
	}
	if e.B != 0 {
		s += fmt.Sprintf(" b=%d", e.B)
	}
	if e.Note != "" {
		s += " " + e.Note
	}
	return s
}

// Config sizes a Recorder.
type Config struct {
	// Name labels the card the recorder flies on.
	Name string
	// Bytes is the ring's memory budget; capacity is Bytes / EventBytes.
	// Zero selects 16 KiB (256 events) — small against a 4 MB card.
	Bytes int64
	// MaxIncidents bounds retained dumps; beyond it triggers are counted as
	// suppressed instead of allocating. Zero selects 4.
	MaxIncidents int
}

// Incident is one captured dump: the ring contents at trigger time plus the
// card state the wiring layer chose to attach.
type Incident struct {
	Seq    int // 1-based trigger ordinal
	At     sim.Time
	Reason string
	Events []Event // oldest → newest
	State  string  // StateFn output at trigger time
}

// Dump renders the incident as a deterministic, byte-stable report.
func (inc *Incident) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== incident %d: %s at %v ===\n", inc.Seq, inc.Reason, inc.At)
	fmt.Fprintf(&b, "ring: %d event(s)\n", len(inc.Events))
	for _, e := range inc.Events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	if inc.State != "" {
		b.WriteString("state:\n")
		for _, line := range strings.Split(strings.TrimRight(inc.State, "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}

// Recorder is the flight recorder proper. Not safe for concurrent use — like
// the rest of the card model it lives on the deterministic engine loop.
type Recorder struct {
	cfg  Config
	ring []Event
	head int // next write position
	n    int // live events in ring

	// StateFn, when set, is sampled at every trigger and embedded in the
	// incident — typically the budget ledger, ladder rung, and registry
	// values of the card at that instant.
	StateFn func() string
	// Clock is the card's clock: emitters that keep no time of their own
	// (the overload budget and ladder, the SLO monitor) stamp their events
	// with Now. Nil stamps them at zero.
	Clock interface{ Now() sim.Time }

	incidents []Incident

	// Recorded counts all events ever offered; Overwritten counts ring slots
	// lost to wraparound; Triggers counts Trigger calls; Suppressed counts
	// triggers beyond MaxIncidents that produced no retained dump.
	Recorded    int64
	Overwritten int64
	Triggers    int64
	Suppressed  int64
}

// New builds a recorder.
func New(cfg Config) (*Recorder, error) {
	if cfg.Bytes <= 0 {
		cfg.Bytes = 16 << 10
	}
	if cfg.MaxIncidents <= 0 {
		cfg.MaxIncidents = 4
	}
	capacity := int(cfg.Bytes / EventBytes)
	if capacity < 1 {
		return nil, fmt.Errorf("blackbox: %s: %d bytes holds no %d-byte events",
			cfg.Name, cfg.Bytes, EventBytes)
	}
	cfg.Bytes = int64(capacity) * EventBytes // charge exactly what the ring holds
	return &Recorder{cfg: cfg, ring: make([]Event, capacity)}, nil
}

// Name returns the recorder's card label.
func (r *Recorder) Name() string { return r.cfg.Name }

// RingBytes returns the bytes charged for the ring.
func (r *Recorder) RingBytes() int64 { return r.cfg.Bytes }

// Now reads the card's clock; zero without one.
func (r *Recorder) Now() sim.Time {
	if r == nil || r.Clock == nil {
		return 0
	}
	return r.Clock.Now()
}

// Capacity returns the ring capacity in events.
func (r *Recorder) Capacity() int { return len(r.ring) }

// Record appends an event, overwriting the oldest slot when full. Nil-safe so
// call sites can wire a recorder unconditionally.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.Recorded++
	if r.n == len(r.ring) {
		r.Overwritten++
	} else {
		r.n++
	}
	r.ring[r.head] = e
	r.head = (r.head + 1) % len(r.ring)
}

// Events returns the live ring contents oldest → newest.
func (r *Recorder) Events() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Event, 0, r.n)
	start := (r.head - r.n + len(r.ring)) % len(r.ring)
	for i := 0; i < r.n; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// EventsSince returns the live ring events whose recording ordinal is greater
// than since (ordinals are 1-based over every event ever offered, i.e. the
// Recorded counter at the time the event was written) and whose kind keep
// accepts (every kind for a nil keep), along with the newest ordinal to pass
// back on the next call and the count of events after since, of any kind,
// that were already lost to ring wraparound. This is the incremental-scrape
// interface: a remote observer that polls faster than the ring wraps sees
// every event exactly once; one that polls too slowly learns how much history
// it missed instead of silently getting a gap. Only the kept events are
// copied, and none at all allocates nothing.
func (r *Recorder) EventsSince(since int64, keep func(Kind) bool) (events []Event, newest int64, lost int64) {
	if r == nil {
		return nil, since, 0
	}
	newest = r.Recorded
	if newest <= since {
		return nil, newest, 0
	}
	oldest := r.Recorded - int64(r.n) + 1 // ordinal of the oldest live event
	if since+1 < oldest {
		lost = oldest - since - 1
		since = oldest - 1
	}
	want := int(newest - since)
	start := (r.head - want + len(r.ring)) % len(r.ring)
	for i := 0; i < want; i++ {
		if e := &r.ring[(start+i)%len(r.ring)]; keep == nil || keep(e.Kind) {
			events = append(events, *e)
		}
	}
	return events, newest, lost
}

// Trigger captures an incident: ring contents plus StateFn output, stamped
// with at and reason. Beyond MaxIncidents the trigger is counted but the dump
// suppressed — incident storage is bounded like everything else on the card.
// The ring is NOT cleared: overlapping incidents share their history, which
// is what you want when a watchdog bite follows the refusal that caused it.
func (r *Recorder) Trigger(at sim.Time, reason string) *Incident {
	if r == nil {
		return nil
	}
	r.Triggers++
	if len(r.incidents) >= r.cfg.MaxIncidents {
		r.Suppressed++
		return nil
	}
	inc := Incident{
		Seq:    len(r.incidents) + 1,
		At:     at,
		Reason: reason,
		Events: r.Events(),
	}
	if r.StateFn != nil {
		inc.State = r.StateFn()
	}
	r.incidents = append(r.incidents, inc)
	return &r.incidents[len(r.incidents)-1]
}

// Incidents returns the retained dumps in trigger order.
func (r *Recorder) Incidents() []Incident {
	if r == nil {
		return nil
	}
	return r.incidents
}

// DumpAll renders every retained incident plus a recorder trailer; this is
// the artifact reprogen writes and CI uploads on failure.
func (r *Recorder) DumpAll() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "blackbox %s: ring %d×%dB=%dB, %d recorded, %d overwritten, %d trigger(s), %d suppressed\n",
		r.cfg.Name, len(r.ring), EventBytes, r.cfg.Bytes,
		r.Recorded, r.Overwritten, r.Triggers, r.Suppressed)
	for i := range r.incidents {
		b.WriteString(r.incidents[i].Dump())
	}
	return b.String()
}

// Instrument registers the recorder's counters under the "blackbox"
// component so incident activity shows up in metrics.csv alongside the
// overload and scheduler series the run-diff engine compares.
func (r *Recorder) Instrument(reg *telemetry.Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.CounterFunc("blackbox", "events_recorded_total",
		"ring events offered to the flight recorder", func() int64 { return r.Recorded })
	reg.CounterFunc("blackbox", "ring_overwritten_total",
		"ring slots lost to wraparound", func() int64 { return r.Overwritten })
	reg.CounterFunc("blackbox", "incident_triggers_total",
		"incident triggers fired", func() int64 { return r.Triggers })
	reg.CounterFunc("blackbox", "incidents_suppressed_total",
		"triggers beyond the retained-incident cap", func() int64 { return r.Suppressed })
	reg.GaugeFunc("blackbox", "ring_bytes",
		"budget bytes charged for the event ring", func() float64 { return float64(r.cfg.Bytes) })
}
