package overload

import (
	"repro/internal/blackbox"
	"repro/internal/mpeg"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Backpressure is the hysteresis gate between the transmit queue and the
// frame sources. It engages when queue depth reaches High and stays engaged
// until depth drains to Low, so throughput doesn't oscillate around a single
// threshold.
type Backpressure struct {
	High int // engage at this transmit-queue depth
	Low  int // release once depth drains to this

	engaged  bool
	Engages  int64
	Releases int64
}

// Update feeds the current queue depth and returns whether sources are gated.
func (bp *Backpressure) Update(depth int) bool {
	if bp.engaged {
		if depth <= bp.Low {
			bp.engaged = false
			bp.Releases++
		}
	} else if depth >= bp.High && bp.High > 0 {
		bp.engaged = true
		bp.Engages++
	}
	return bp.engaged
}

// Engaged reports the current gate state without feeding a sample.
func (bp *Backpressure) Engaged() bool { return bp.engaged }

// Rung is a step of the graceful-degradation ladder. Rungs are cumulative:
// at RungDropBP the scheduler is still shedding within loss tolerance and
// still dropping B frames.
type Rung int

// Ladder rungs, mildest first. I frames are never dropped at the source —
// losing one corrupts the whole GOP — so past RungDropBP the ladder revokes
// whole streams instead.
const (
	RungNone   Rung = iota
	RungShed        // shed queued frames within DWCS (x,y) loss tolerance
	RungDropB       // downgrade: drop B frames at the source
	RungDropBP      // downgrade further: drop B and P frames
	RungRevoke      // revoke admission of the lowest-value streams
	numRungs
)

// String names the rung for reports.
func (r Rung) String() string {
	switch r {
	case RungNone:
		return "none"
	case RungShed:
		return "shed"
	case RungDropB:
		return "drop-B"
	case RungDropBP:
		return "drop-BP"
	case RungRevoke:
		return "revoke"
	}
	return "rung?"
}

// Ladder walks the degradation rungs one step at a time: pressure must hold
// at or above EscalateAt for Sustain consecutive evaluations to climb, and at
// or below ClearAt for Sustain evaluations to step back down. The dead band
// between the two thresholds freezes the ladder where it is.
type Ladder struct {
	EscalateAt float64 // pressure at/above which the ladder climbs
	ClearAt    float64 // pressure at/below which it steps back down
	Sustain    int     // consecutive evaluations required either way

	rung        Rung
	hot, cool   int
	Transitions int64
	Evals       [numRungs]int64 // evaluations spent at each rung
	// Rec is the card's flight recorder: every transition is recorded.
	Rec *blackbox.Recorder
}

// NewLadder returns a ladder with the default thresholds.
func NewLadder() *Ladder {
	return &Ladder{EscalateAt: 0.90, ClearAt: 0.75, Sustain: 3}
}

// Rung returns the current rung.
func (l *Ladder) Rung() Rung { return l.rung }

// Evaluate feeds one pressure sample and returns the (possibly new) rung.
func (l *Ladder) Evaluate(pressure float64) Rung {
	switch {
	case pressure >= l.EscalateAt:
		l.cool = 0
		l.hot++
		if l.hot >= l.Sustain && l.rung < RungRevoke {
			l.step(l.rung + 1)
		}
	case pressure <= l.ClearAt:
		l.hot = 0
		l.cool++
		if l.cool >= l.Sustain && l.rung > RungNone {
			l.step(l.rung - 1)
		}
	default:
		l.hot, l.cool = 0, 0
	}
	l.Evals[l.rung]++
	return l.rung
}

func (l *Ladder) step(to Rung) {
	from := l.rung
	l.rung = to
	l.hot, l.cool = 0, 0
	l.Transitions++
	l.Rec.Record(blackbox.Event{At: l.Rec.Now(), Kind: blackbox.KindLadder,
		A: int64(from), B: int64(to), Note: from.String() + " -> " + to.String()})
}

// Hooks are the card-side actions a Controller drives. All are optional;
// a nil hook simply disables that rung's mechanism.
type Hooks struct {
	// QueueDepth returns the transmit-path backlog in frames (the
	// scheduler rings).
	QueueDepth func() int
	// ShedTolerant sheds up to max queued frames whose streams still have
	// DWCS loss budget, returning how many were shed.
	ShedTolerant func(max int) int
	// Revoke revokes admission of the one lowest-value stream, reporting
	// whether a stream was revoked.
	Revoke func() bool
	// Reinstate reverses the oldest revocation once pressure has cleared,
	// reporting whether a stream came back.
	Reinstate func() bool
}

// Controller bundles budget, backpressure, and ladder for one scheduler NI
// and evaluates them on the simulation clock.
type Controller struct {
	Budget *Budget
	BP     *Backpressure
	Ladder *Ladder
	Hooks  Hooks

	// QueueCap is the transmit-queue depth treated as full pressure (1.0).
	QueueCap int
	// EvalEvery is the controller's evaluation period.
	EvalEvery sim.Time
	// PollEvery is how long a gated producer sleeps before re-testing.
	PollEvery sim.Time
	// ShedPerEval caps frames shed per evaluation so rung 1 degrades
	// output gradually instead of flushing queues in one tick.
	ShedPerEval int

	// Rung action counters.
	ShedTolerantFrames int64
	ShedBFrames        int64
	ShedPFrames        int64
	Revoked            int64
	Reinstated         int64
	SourceStalls       int64

	stop func()
	tel  *telemetry.Registry
}

// NewController returns a controller with default policy over a budget of
// size bytes (<= 0 selects the 4 MB card default).
func NewController(name string, size int64) *Controller {
	return &Controller{
		Budget:      NewBudget(name, size),
		BP:          &Backpressure{High: 192, Low: 96},
		Ladder:      NewLadder(),
		QueueCap:    256,
		EvalEvery:   100 * sim.Millisecond,
		PollEvery:   10 * sim.Millisecond,
		ShedPerEval: 8,
	}
}

// Start schedules periodic evaluation on eng. Idempotent via Stop.
func (c *Controller) Start(eng *sim.Engine) {
	if c.stop != nil {
		return
	}
	c.stop = eng.Every(c.EvalEvery, c.Evaluate)
}

// Stop cancels periodic evaluation.
func (c *Controller) Stop() {
	if c.stop != nil {
		c.stop()
		c.stop = nil
	}
}

// Pressure is the controller's scalar load signal: the worse of budget
// occupancy (vs the high-water mark) and transmit-queue fill.
func (c *Controller) Pressure() float64 {
	p := c.Budget.Occupancy()
	if c.QueueCap > 0 && c.Hooks.QueueDepth != nil {
		if q := float64(c.Hooks.QueueDepth()) / float64(c.QueueCap); q > p {
			p = q
		}
	}
	return p
}

// Evaluate runs one control step: sample pressure, update backpressure and
// the ladder, then apply the current rung's action. Revocation proceeds one
// stream per evaluation; so does reinstatement, once the ladder has stepped
// below RungRevoke and pressure sits at or below the clear threshold.
func (c *Controller) Evaluate() {
	depth := 0
	if c.Hooks.QueueDepth != nil {
		depth = c.Hooks.QueueDepth()
	}
	c.BP.Update(depth)
	p := c.Pressure()
	rung := c.Ladder.Evaluate(p)
	if rung >= RungShed && c.Hooks.ShedTolerant != nil {
		c.ShedTolerantFrames += int64(c.Hooks.ShedTolerant(c.ShedPerEval))
	}
	if rung >= RungRevoke && c.Hooks.Revoke != nil {
		if c.Hooks.Revoke() {
			c.Revoked++
		}
	}
	if rung < RungRevoke && p <= c.Ladder.ClearAt && c.Revoked > c.Reinstated && c.Hooks.Reinstate != nil {
		if c.Hooks.Reinstate() {
			c.Reinstated++
		}
	}
}

// AllowSource reports whether a producer may fetch its next frame of n
// bytes: backpressure must be clear and the budget must have headroom.
// A false return counts one source stall.
func (c *Controller) AllowSource(n int64) bool {
	if c.BP.Engaged() || !c.Budget.HeadroomFor(n) {
		c.SourceStalls++
		return false
	}
	return true
}

// AdmitFrame applies the ladder's downgrade policy to one source frame.
// B frames drop at RungDropB and above; P frames at RungDropBP and above;
// I frames always pass (revocation handles streams beyond saving).
func (c *Controller) AdmitFrame(t mpeg.FrameType) bool {
	rung := c.Ladder.Rung()
	if t == mpeg.BFrame && rung >= RungDropB {
		c.ShedBFrames++
		return false
	}
	if t == mpeg.PFrame && rung >= RungDropBP {
		c.ShedPFrames++
		return false
	}
	return true
}

// Instrument registers the controller's counters and gauges under the
// "overload" component; registries sum sources per (component, name), so a
// cluster of controllers aggregates naturally. Idempotent per controller.
func (c *Controller) Instrument(reg *telemetry.Registry) {
	if reg == nil || c.tel != nil {
		return
	}
	c.tel = reg
	b := c.Budget
	reg.GaugeFunc("overload", "budget_used_bytes", "accounted NI memory", func() float64 { return float64(b.Used()) })
	reg.GaugeFunc("overload", "budget_peak_bytes", "peak accounted NI memory", func() float64 { return float64(b.Peak()) })
	reg.GaugeFunc("overload", "budget_size_bytes", "absolute NI memory budget", func() float64 { return float64(b.Size()) })
	reg.GaugeFunc("overload", "ladder_rung", "current degradation rung", func() float64 { return float64(c.Ladder.Rung()) })
	reg.CounterFunc("overload", "admission_rejects_total", "setups refused at high water", func() int64 { return b.Rejects })
	reg.CounterFunc("overload", "budget_breaches_total", "accounted bytes over absolute budget", func() int64 { return b.Breaches })
	reg.CounterFunc("overload", "shed_tolerant_total", "frames shed within loss tolerance", func() int64 { return c.ShedTolerantFrames })
	reg.CounterFunc("overload", "shed_b_frames_total", "B frames dropped at source", func() int64 { return c.ShedBFrames })
	reg.CounterFunc("overload", "shed_p_frames_total", "P frames dropped at source", func() int64 { return c.ShedPFrames })
	reg.CounterFunc("overload", "revoked_total", "streams revoked under pressure", func() int64 { return c.Revoked })
	reg.CounterFunc("overload", "reinstated_total", "revoked streams readmitted", func() int64 { return c.Reinstated })
	reg.CounterFunc("overload", "backpressure_engages_total", "backpressure gate closures", func() int64 { return c.BP.Engages })
	reg.CounterFunc("overload", "backpressure_releases_total", "backpressure gate openings", func() int64 { return c.BP.Releases })
	reg.CounterFunc("overload", "source_stalls_total", "producer fetches gated", func() int64 { return c.SourceStalls })
	reg.CounterFunc("overload", "ladder_transitions_total", "degradation rung changes", func() int64 { return c.Ladder.Transitions })
}
