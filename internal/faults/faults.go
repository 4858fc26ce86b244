// Package faults is the deterministic fault-injection subsystem: a seeded,
// schedulable chaos plan for the reproduction's hardware substrate. The
// paper's headline result is that the NI-resident scheduler is immune to
// *host load* (Figures 6–10); this package extends that robustness story to
// *faults* — NI card crashes with delayed resets, SAN link outages and
// loss bursts, disk stalls, and RTOS task hangs — so the recovery machinery
// (rtos watchdogs, cluster heartbeat failover, dvcmnet retries, host
// fallback scheduling) can be exercised under a reproducible schedule.
//
// A Plan is a time-ordered list of Events, either hand-written or generated
// from a seed by Generate. Arm schedules the plan on a sim.Engine against an
// Injector, which maps each event onto the concrete testbed (crash this
// card, darken that link). The same seed and spec always produce the same
// plan, and the same plan armed on the same testbed always replays the same
// run — chaos here is an input, never a source of nondeterminism.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Kind enumerates the injectable fault classes.
type Kind int

// Fault kinds.
const (
	// CardCrash halts an NI card's kernel (firmware wedge / hardware
	// fault); recovery is a card reset, typically initiated by a watchdog
	// after the event's Duration.
	CardCrash Kind = iota
	// LinkDown takes a SAN link completely dark for Duration.
	LinkDown
	// LossBurst drops every Factor-th packet on a link for Duration.
	LossBurst
	// DiskStall multiplies a disk's access time by Factor for Duration
	// (layered on the existing disk.Degrade mechanism).
	DiskStall
	// TaskHang runs a runaway highest-priority task on a card's kernel for
	// Duration, starving every other task (priority-inversion hang).
	TaskHang
	// MemLeak gradually erodes an NI card's overload memory budget: Factor
	// KB leak per second for Duration, reclaimed in full on recovery.
	// Appended after TaskHang so plans generated before the kind existed
	// keep their exact RNG consumption schedule.
	MemLeak
	// HostCrash is a correlated failure: the host machine dies and takes
	// every NI card on its PCI bus with it. Target names the host domain;
	// the injector resolves member cards through the cluster topology.
	// Recovery is the host (and its cards) coming back after Duration.
	HostCrash
	// NetPartition severs a declared set of inter-partition channels for
	// Duration — a switch failure isolating whole card groups. Target
	// names the switch domain.
	NetPartition
	// RollingDrain is planned maintenance: the target host's cards are
	// drained (streams migrated off live, no heartbeat alarm) and the host
	// returns after Duration. Drain is not death — the monitor must treat
	// it as such.
	RollingDrain
	// ControllerCrash kills a DVCM controller replica outright for
	// Duration: its poll/migration/journal traffic stops, inbound messages
	// are dropped, and its in-flight job queue is wiped. Target names the
	// replica ("ctl-a", "ctl-b"). Appended after RollingDrain to keep the
	// generation RNG schedule stable.
	ControllerCrash
	// ControllerPartition isolates a controller replica from its peer for
	// Duration — the split-brain fault. Only the controller↔controller
	// links are severed; both replicas can still reach every card, which is
	// exactly the scenario leader-epoch fencing exists for. Target names
	// either replica; the pair link is symmetric.
	ControllerPartition

	// kindEnd is a sentinel one past the last defined kind, for
	// exhaustiveness tests (every kind must have a String name and a slot
	// in Generate's fixed draw order). Keep it last.
	kindEnd
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case CardCrash:
		return "card-crash"
	case LinkDown:
		return "link-down"
	case LossBurst:
		return "loss-burst"
	case DiskStall:
		return "disk-stall"
	case TaskHang:
		return "task-hang"
	case MemLeak:
		return "mem-leak"
	case HostCrash:
		return "host-crash"
	case NetPartition:
		return "net-partition"
	case RollingDrain:
		return "rolling-drain"
	case ControllerCrash:
		return "ctrl-crash"
	case ControllerPartition:
		return "ctrl-partition"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scheduled fault: it strikes Target at At and — for kinds with
// a recovery action — clears at At+Duration.
type Event struct {
	At       sim.Time
	Duration sim.Time
	Kind     Kind
	Target   string // card, link, or disk name the injector resolves
	Factor   int64  // LossBurst: drop every k-th; DiskStall: slowdown ×k
}

// String renders the event for plan listings and reports.
func (e Event) String() string {
	s := fmt.Sprintf("%v %s %s", e.At, e.Kind, e.Target)
	if e.Duration > 0 {
		s += fmt.Sprintf(" for %v", e.Duration)
	}
	if e.Factor > 1 {
		s += fmt.Sprintf(" ×%d", e.Factor)
	}
	return s
}

// Injector maps plan events onto a concrete testbed. Inject fires at
// e.At; Recover fires at e.At+e.Duration for events with Duration > 0.
// CardCrash recovery is the *reset completing* — an injector whose cards
// recover through a watchdog instead should ignore Recover for that kind.
type Injector interface {
	Inject(e Event)
	Recover(e Event)
}

// InjectorFuncs adapts two functions to Injector; either may be nil.
type InjectorFuncs struct {
	OnInject  func(e Event)
	OnRecover func(e Event)
}

// Inject implements Injector.
func (f InjectorFuncs) Inject(e Event) {
	if f.OnInject != nil {
		f.OnInject(e)
	}
}

// Recover implements Injector.
func (f InjectorFuncs) Recover(e Event) {
	if f.OnRecover != nil {
		f.OnRecover(e)
	}
}

// Plan is a deterministic chaos schedule. The zero value is an empty plan
// (no faults); experiments treat chaos as strictly opt-in.
type Plan struct {
	Seed   int64 // seed the plan was generated from (0 for hand-written)
	Events []Event
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Validate checks event sanity: non-negative times, targets present, and
// factors meaningful for the kinds that use them.
func (p *Plan) Validate() error {
	for i, e := range p.Events {
		if e.At < 0 || e.Duration < 0 {
			return fmt.Errorf("faults: event %d: negative time (%v/%v)", i, e.At, e.Duration)
		}
		if e.Target == "" {
			return fmt.Errorf("faults: event %d: empty target", i)
		}
		switch e.Kind {
		case LossBurst:
			if e.Factor < 1 {
				return fmt.Errorf("faults: event %d: loss-burst factor %d", i, e.Factor)
			}
		case DiskStall:
			if e.Factor < 2 {
				return fmt.Errorf("faults: event %d: disk-stall factor %d", i, e.Factor)
			}
		case MemLeak:
			if e.Factor < 1 {
				return fmt.Errorf("faults: event %d: mem-leak factor %d", i, e.Factor)
			}
			if e.Duration <= 0 {
				return fmt.Errorf("faults: event %d: mem-leak needs a duration", i)
			}
		case HostCrash, NetPartition, RollingDrain, ControllerCrash, ControllerPartition:
			// Correlated and control-plane faults without an end are a dead
			// fleet, not chaos: recovery behavior is the thing under test,
			// so a window is mandatory.
			if e.Duration <= 0 {
				return fmt.Errorf("faults: event %d: %v needs a duration", i, e.Kind)
			}
		}
	}
	return nil
}

// Sort orders events by (At, Kind, Target) so hand-assembled plans arm in a
// deterministic order regardless of construction order.
func (p *Plan) Sort() {
	sort.SliceStable(p.Events, func(i, j int) bool {
		a, b := p.Events[i], p.Events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Target < b.Target
	})
}

// String lists the plan one event per line.
func (p *Plan) String() string {
	if p.Empty() {
		return "faults: empty plan\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "faults: plan seed=%d, %d event(s)\n", p.Seed, len(p.Events))
	for _, e := range p.Events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// Record is one injection or recovery that actually fired, for reports.
type Record struct {
	At      sim.Time
	Event   Event
	Recover bool
}

// Log collects fired records in schedule order.
type Log struct {
	Records []Record
}

// String renders the log.
func (l *Log) String() string {
	var b strings.Builder
	for _, r := range l.Records {
		verb := "inject"
		if r.Recover {
			verb = "recover"
		}
		fmt.Fprintf(&b, "  %v %s %s %s\n", r.At, verb, r.Event.Kind, r.Event.Target)
	}
	return b.String()
}

// Arm validates the plan and schedules every event on eng against inj.
// The optional log (may be nil) records each injection and recovery as it
// fires. Events already in the past panic via sim.Engine, like any other
// mis-scheduled callback.
func (p *Plan) Arm(eng *sim.Engine, inj Injector, log *Log) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for _, e := range p.Events {
		e := e
		eng.At(e.At, func() {
			if log != nil {
				log.Records = append(log.Records, Record{At: eng.Now(), Event: e})
			}
			inj.Inject(e)
		})
		if e.Duration > 0 {
			eng.At(e.At+e.Duration, func() {
				if log != nil {
					log.Records = append(log.Records, Record{At: eng.Now(), Event: e, Recover: true})
				}
				inj.Recover(e)
			})
		}
	}
	return nil
}

// Spec bounds plan generation: how many faults of each kind to draw, over
// which targets, inside [Start, Start+Span). Durations and factors are drawn
// uniformly from the given ranges by the plan's own seeded RNG.
type Spec struct {
	Start, Span sim.Time

	Cards       []string // CardCrash / TaskHang targets
	Links       []string // LinkDown / LossBurst targets
	Disks       []string // DiskStall targets
	Hosts       []string // HostCrash / RollingDrain targets (host domains)
	Switches    []string // NetPartition targets (switch domains)
	Controllers []string // ControllerCrash / ControllerPartition targets (replicas)
	Counts      map[Kind]int

	MinDuration, MaxDuration sim.Time
	MinFactor, MaxFactor     int64
}

// Generate draws a reproducible plan from seed under spec. The same (seed,
// spec) always yields the identical plan; the engine's RNG is untouched.
func Generate(seed int64, spec Spec) (*Plan, error) {
	if spec.Span <= 0 {
		return nil, fmt.Errorf("faults: generation span must be positive")
	}
	if spec.MinDuration <= 0 {
		spec.MinDuration = sim.Second
	}
	if spec.MaxDuration < spec.MinDuration {
		spec.MaxDuration = spec.MinDuration
	}
	if spec.MinFactor < 2 {
		spec.MinFactor = 2
	}
	if spec.MaxFactor < spec.MinFactor {
		spec.MaxFactor = spec.MinFactor
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed}
	draw := func(kind Kind, targets []string, n int) error {
		if n == 0 {
			return nil
		}
		if len(targets) == 0 {
			return fmt.Errorf("faults: %v requested with no targets", kind)
		}
		for i := 0; i < n; i++ {
			at := spec.Start + sim.Time(rng.Int63n(int64(spec.Span)))
			dur := spec.MinDuration
			if spec.MaxDuration > spec.MinDuration {
				dur += sim.Time(rng.Int63n(int64(spec.MaxDuration - spec.MinDuration)))
			}
			factor := spec.MinFactor
			if spec.MaxFactor > spec.MinFactor {
				factor += rng.Int63n(spec.MaxFactor - spec.MinFactor)
			}
			p.Events = append(p.Events, Event{
				At: at, Duration: dur, Kind: kind,
				Target: targets[rng.Intn(len(targets))], Factor: factor,
			})
		}
		return nil
	}
	// Fixed kind order keeps the RNG consumption schedule stable; new kinds
	// append at the end so pre-existing (seed, spec) plans are byte-stable.
	for _, kind := range []Kind{CardCrash, LinkDown, LossBurst, DiskStall, TaskHang, MemLeak,
		HostCrash, NetPartition, RollingDrain, ControllerCrash, ControllerPartition} {
		var targets []string
		switch kind {
		case CardCrash, TaskHang, MemLeak:
			targets = spec.Cards
		case LinkDown, LossBurst:
			targets = spec.Links
		case DiskStall:
			targets = spec.Disks
		case HostCrash, RollingDrain:
			targets = spec.Hosts
		case NetPartition:
			targets = spec.Switches
		case ControllerCrash, ControllerPartition:
			targets = spec.Controllers
		}
		if err := draw(kind, targets, spec.Counts[kind]); err != nil {
			return nil, err
		}
	}
	p.Sort()
	return p, p.Validate()
}
