// Package slo turns the reproduction's QoS mechanisms into monitored
// objectives. DWCS already *encodes* each stream's contract — the (x,y)
// window says x of every y packets may be lost or late (§2) — so the loss SLO
// is not invented, it is read off the stream spec: the error budget is x/y.
// Latency objectives come from the PR 3 pipeline spans: a stream whose
// queue-stage wait exceeds its bound is missing its playout deadline even if
// nothing was dropped.
//
// Evaluation is SRE-style multi-window burn rate. A stream's burn is its
// windowed loss ratio divided by its budget (burn 1.0 = spending exactly the
// budget; burn 2.0 = spending it twice as fast). A short window catches
// fast burns, a long window confirms they are real; both must agree before
// the state machine escalates past warn, which keeps one unlucky window from
// paging. Health runs ok → warn → burning → violated per stream, and a card's
// health is its worst stream — the early failover signal the cluster monitor
// consumes ahead of heartbeat loss.
//
// Everything is sampled on the simulation engine at a fixed cadence from
// cumulative counters, so the monitor is a pure function of simulated time:
// byte-identical tables at any worker count.
package slo

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dwcs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// State is a stream's (or card's) SLO health.
type State int

// Health states, ordered by severity.
const (
	StateOK State = iota
	StateWarn
	StateBurning
	StateViolated
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateWarn:
		return "warn"
	case StateBurning:
		return "burning"
	case StateViolated:
		return "violated"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Objective is one stream's service-level objective.
type Objective struct {
	Stream int
	Name   string
	// LossTarget is the error budget as a fraction of attempts: x/y from the
	// stream's DWCS window. Zero means no loss is tolerated — any windowed
	// loss burns at +Inf and escalates immediately.
	LossTarget float64
	// LatencyTarget bounds the queue-stage wait; zero disables the latency
	// objective for the stream.
	LatencyTarget sim.Time
}

// FromSpec derives a stream's objective from its DWCS spec: the loss budget
// is the spec's (x,y) window ratio, the latency bound is supplied by the
// caller (typically a small multiple of the stream period).
func FromSpec(spec dwcs.StreamSpec, latency sim.Time) Objective {
	target := 0.0
	if spec.Loss.Den != 0 {
		target = float64(spec.Loss.Num) / float64(spec.Loss.Den)
	} else if spec.Loss.Num != 0 {
		target = float64(spec.Loss.Num) // zero Den normalizes to 1
	}
	return Objective{
		Stream:        spec.ID,
		Name:          spec.Name,
		LossTarget:    target,
		LatencyTarget: latency,
	}
}

// Config tunes the monitor's windows and thresholds.
type Config struct {
	// ShortWindow catches fast burns (default 2s); LongWindow confirms them
	// (default 8s). EvalEvery is the sampling cadence (default 500ms) and
	// also the bucket width, so LongWindow/EvalEvery buckets are retained.
	ShortWindow sim.Time
	LongWindow  sim.Time
	EvalEvery   sim.Time
	// WarnBurn enters warn when the short-window burn reaches it (default 1:
	// spending exactly the budget). PageBurn enters burning when BOTH windows
	// reach it (default 2: spending the budget twice over).
	WarnBurn float64
	PageBurn float64
	// ViolateSustain is how many consecutive burning evaluations harden the
	// state to violated (default 4), and symmetrically how many consecutive
	// clean evaluations step the state back down one rung.
	ViolateSustain int
}

func (c *Config) defaults() {
	if c.ShortWindow <= 0 {
		c.ShortWindow = 2 * sim.Second
	}
	if c.LongWindow <= 0 {
		c.LongWindow = 8 * sim.Second
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 500 * sim.Millisecond
	}
	if c.WarnBurn <= 0 {
		c.WarnBurn = 1
	}
	if c.PageBurn <= 0 {
		c.PageBurn = 2
	}
	if c.ViolateSustain <= 0 {
		c.ViolateSustain = 4
	}
	if c.LongWindow < c.ShortWindow {
		c.LongWindow = c.ShortWindow
	}
}

// bucket is one EvalEvery-wide sample of a stream's deltas.
type bucket struct {
	attempts int64
	losses   int64
	latMax   sim.Time // worst queue-stage latency observed in the bucket
}

// stream is the monitor's per-stream ledger.
type stream struct {
	obj   Objective
	stats func() (attempts, losses int64) // cumulative; a drop is a restart

	prevAttempts int64
	prevLosses   int64
	latMax       sim.Time // accumulating for the current bucket

	buckets []bucket // ring: LongWindow/EvalEvery entries
	next    int
	filled  int

	state       State
	hot         int // consecutive evals meeting the burning condition
	cool        int // consecutive clean evals
	shortBurn   float64
	longBurn    float64
	latBreach   bool
	Transitions int64
}

// Monitor evaluates a set of stream objectives on one card.
type Monitor struct {
	Name string
	Cfg  Config

	// OnChange observes every per-stream state transition; the flight
	// recorder hangs KindSLO events and the slo-burn trigger here.
	OnChange func(stream int, from, to State)

	streams []*stream
	byID    map[int]*stream
	stop    func()

	Evals       int64
	Transitions int64
	Violations  int64 // transitions into StateViolated
}

// NewMonitor builds a monitor; cfg zero values select the defaults.
func NewMonitor(name string, cfg Config) *Monitor {
	cfg.defaults()
	return &Monitor{Name: name, Cfg: cfg, byID: make(map[int]*stream)}
}

// Track registers a stream objective with its cumulative counter source:
// total service attempts and total losses so far
// (dwcs.StreamStats.Attempts/Losses). A reading below the previous one is
// taken as a counter restart. Tracking order fixes table order for equal
// IDs; streams render sorted by ID.
func (m *Monitor) Track(obj Objective, stats func() (attempts, losses int64)) {
	n := int(m.Cfg.LongWindow / m.Cfg.EvalEvery)
	if n < 1 {
		n = 1
	}
	s := &stream{obj: obj, stats: stats, buckets: make([]bucket, n)}
	m.streams = append(m.streams, s)
	m.byID[obj.Stream] = s
}

// TrackStream tracks spec's loss objective (latency bounds the queue wait, 0
// for none) against its live counters in sched. The reading freezes at the
// last sighting while the stream is off the scheduler (Stats errors after
// removal) and holds through a counter rewind (a re-added stream restarts at
// zero) until attempts pass it again, so attempts never run backwards.
func (m *Monitor) TrackStream(spec dwcs.StreamSpec, latency sim.Time, sched *dwcs.Scheduler) {
	id := spec.ID
	var lastA, lastL int64
	m.Track(FromSpec(spec, latency), func() (int64, int64) {
		if st, err := sched.Stats(id); err == nil {
			if a := st.Attempts(); a >= lastA {
				lastA, lastL = a, st.Losses()
			}
		}
		return lastA, lastL
	})
}

// ObserveSegment feeds a completed pipeline span. Only queue-stage segments
// of tracked streams count against the latency objective; everything else is
// ignored, so the monitor can be wired directly as a SpanLog fan-out.
func (m *Monitor) ObserveSegment(seg telemetry.Segment) {
	if m == nil || seg.Stage != telemetry.StageQueue {
		return
	}
	s, ok := m.byID[seg.Stream]
	if !ok {
		return
	}
	if d := seg.End - seg.Start; d > s.latMax {
		s.latMax = d
	}
}

// window sums the most recent span of buckets.
func (s *stream) window(span, evalEvery sim.Time) (attempts, losses int64, latMax sim.Time) {
	n := int(span / evalEvery)
	if n < 1 {
		n = 1
	}
	if n > s.filled {
		n = s.filled
	}
	for i := 0; i < n; i++ {
		b := s.buckets[(s.next-1-i+len(s.buckets))%len(s.buckets)]
		attempts += b.attempts
		losses += b.losses
		if b.latMax > latMax {
			latMax = b.latMax
		}
	}
	return attempts, losses, latMax
}

// burn converts a windowed loss ratio into budget-relative spend.
func burn(attempts, losses int64, target float64) float64 {
	if attempts == 0 || losses == 0 {
		return 0
	}
	ratio := float64(losses) / float64(attempts)
	if target <= 0 {
		// No budget at all: any loss is an immediate maximal burn. 1e9
		// stands in for +Inf so the arithmetic stays finite and printable.
		return 1e9
	}
	return ratio / target
}

// Eval takes one sample of every stream and advances the state machines.
// Exposed for tests; Start schedules it on the engine.
func (m *Monitor) Eval() {
	m.Evals++
	for _, s := range m.streams {
		attempts, losses := s.stats()
		b := bucket{
			attempts: attempts - s.prevAttempts,
			losses:   losses - s.prevLosses,
			latMax:   s.latMax,
		}
		// A reading below the previous one is a counter restart (a stream
		// re-added with fresh counters): everything counted since the restart
		// is the reading itself — Prometheus's counter-reset rule.
		if attempts < s.prevAttempts || losses < s.prevLosses {
			b.attempts, b.losses = attempts, losses
		}
		s.prevAttempts, s.prevLosses = attempts, losses
		s.latMax = 0
		s.buckets[s.next] = b
		s.next = (s.next + 1) % len(s.buckets)
		if s.filled < len(s.buckets) {
			s.filled++
		}

		sa, sl, slat := s.window(m.Cfg.ShortWindow, m.Cfg.EvalEvery)
		la, ll, _ := s.window(m.Cfg.LongWindow, m.Cfg.EvalEvery)
		s.shortBurn = burn(sa, sl, s.obj.LossTarget)
		s.longBurn = burn(la, ll, s.obj.LossTarget)
		s.latBreach = s.obj.LatencyTarget > 0 && slat > s.obj.LatencyTarget

		burning := (s.shortBurn >= m.Cfg.PageBurn && s.longBurn >= m.Cfg.PageBurn) || s.latBreach
		warn := s.shortBurn >= m.Cfg.WarnBurn || s.latBreach

		next := s.state
		switch {
		case burning:
			s.hot++
			s.cool = 0
			if s.state >= StateBurning && s.hot >= m.Cfg.ViolateSustain {
				next = StateViolated
			} else if s.state < StateBurning {
				next = StateBurning
			}
		case warn:
			s.hot = 0
			s.cool = 0
			if s.state < StateWarn {
				next = StateWarn
			}
		default:
			s.hot = 0
			s.cool++
			if s.state > StateOK && s.cool >= m.Cfg.ViolateSustain {
				next = s.state - 1
				s.cool = 0
			}
		}
		if next != s.state {
			from := s.state
			s.state = next
			s.Transitions++
			m.Transitions++
			if next == StateViolated {
				m.Violations++
			}
			if m.OnChange != nil {
				m.OnChange(s.obj.Stream, from, next)
			}
		}
	}
}

// Start schedules periodic evaluation on eng; Stop cancels it.
func (m *Monitor) Start(eng *sim.Engine) {
	if m.stop != nil {
		return
	}
	m.stop = eng.Every(m.Cfg.EvalEvery, m.Eval)
}

// Stop cancels periodic evaluation.
func (m *Monitor) Stop() {
	if m.stop != nil {
		m.stop()
		m.stop = nil
	}
}

// StreamState returns a tracked stream's current health.
func (m *Monitor) StreamState(id int) State {
	if s, ok := m.byID[id]; ok {
		return s.state
	}
	return StateOK
}

// Health is the card's health: the worst tracked stream.
func (m *Monitor) Health() State {
	worst := StateOK
	for _, s := range m.streams {
		if s.state > worst {
			worst = s.state
		}
	}
	return worst
}

// StreamSample is one tracked stream's structured health snapshot — the
// scrape-friendly form of one Table row.
type StreamSample struct {
	Stream      int
	Name        string
	State       State
	ShortBurn   float64
	LongBurn    float64
	Transitions int64
}

// Sample returns per-stream structured health, sorted by stream ID. It is
// the machine-readable Table: the fleet scrape plane ships these rows over
// the DVCM link instead of parsing rendered text.
func (m *Monitor) Sample() []StreamSample {
	if m == nil {
		return nil
	}
	out := make([]StreamSample, 0, len(m.streams))
	for _, s := range m.streams {
		out = append(out, StreamSample{
			Stream:      s.obj.Stream,
			Name:        s.obj.Name,
			State:       s.state,
			ShortBurn:   s.shortBurn,
			LongBurn:    s.longBurn,
			Transitions: s.Transitions,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	return out
}

// Tracked reports whether the monitor already tracks stream id — migration
// targets use this to avoid double-tracking a stream that returns to a card
// it previously lived on.
func (m *Monitor) Tracked(id int) bool {
	if m == nil {
		return false
	}
	_, ok := m.byID[id]
	return ok
}

// Instrument registers the monitor's series under the "slo" component.
func (m *Monitor) Instrument(reg *telemetry.Registry) {
	if m == nil || reg == nil {
		return
	}
	reg.GaugeFunc("slo", "health",
		"card health: worst stream state (0 ok … 3 violated)",
		func() float64 { return float64(m.Health()) })
	reg.CounterFunc("slo", "evals_total",
		"SLO evaluation passes", func() int64 { return m.Evals })
	reg.CounterFunc("slo", "transitions_total",
		"stream health-state transitions", func() int64 { return m.Transitions })
	reg.CounterFunc("slo", "violations_total",
		"transitions into violated", func() int64 { return m.Violations })
}

// Table renders per-stream health, sorted by stream ID — deterministic and
// diffable, the slo.txt artifact.
func (m *Monitor) Table() string {
	rows := make([]*stream, len(m.streams))
	copy(rows, m.streams)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].obj.Stream < rows[j].obj.Stream })
	var b strings.Builder
	fmt.Fprintf(&b, "slo %s: health=%s, %d eval(s), %d transition(s), %d violation(s)\n",
		m.Name, m.Health(), m.Evals, m.Transitions, m.Violations)
	fmt.Fprintf(&b, "%-4s %-14s %-9s %10s %10s %10s %6s\n",
		"id", "name", "state", "short_burn", "long_burn", "loss_tgt", "trans")
	for _, s := range rows {
		fmt.Fprintf(&b, "%-4d %-14s %-9s %10.2f %10.2f %10.4f %6d\n",
			s.obj.Stream, s.obj.Name, s.state, s.shortBurn, s.longBurn,
			s.obj.LossTarget, s.Transitions)
	}
	return b.String()
}
