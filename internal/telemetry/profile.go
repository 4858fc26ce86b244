package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cpu"
)

// ProfileEntry is the accumulated cycle cost of one (component, operation)
// pair.
type ProfileEntry struct {
	Component, Operation string
	Ops                  int64 // charged operations (0 for pure raw-cycle charges)
	Cycles               int64
}

// Profiler attributes every cycle a cpu.Meter charges to the (component,
// operation) context active at charge time — the "where did the 65 µs go"
// view of the paper's microbenchmark totals. Attach with
// meter.Observe(prof); code sets context via meter.SetContext. A nil
// *Profiler is valid and records nothing.
type Profiler struct {
	// entries is scanned, not indexed: the pairs are the few contexts the
	// substrates name in code, and comparing two of those literals is a
	// length and pointer check.
	entries []*ProfileEntry
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler { return &Profiler{} }

// entry finds the accumulator of one (component, operation) pair.
func (p *Profiler) entry(component, operation string) *ProfileEntry {
	for _, e := range p.entries {
		if e.Component == component && e.Operation == operation {
			return e
		}
	}
	return nil
}

// ObserveCycles implements cpu.CycleObserver. Charges arriving with no
// context are pooled under ("unattributed", "other") so the profiled total
// always reconciles exactly with the meter's cycle count.
func (p *Profiler) ObserveCycles(component, operation string, ops, cycles int64) {
	if p == nil {
		return
	}
	if component == "" {
		component = "unattributed"
	}
	if operation == "" {
		operation = "other"
	}
	e := p.entry(component, operation)
	if e == nil {
		e = &ProfileEntry{Component: component, Operation: operation}
		p.entries = append(p.entries, e)
	}
	e.Ops += ops
	e.Cycles += cycles
}

// Entries returns the attribution table sorted by descending cycles, ties
// by (component, operation).
func (p *Profiler) Entries() []ProfileEntry {
	if p == nil {
		return nil
	}
	out := make([]ProfileEntry, 0, len(p.entries))
	for _, e := range p.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		if out[i].Component != out[j].Component {
			return out[i].Component < out[j].Component
		}
		return out[i].Operation < out[j].Operation
	})
	return out
}

// Cycles returns the accumulated cycles of one (component, operation) pair.
func (p *Profiler) Cycles(component, operation string) int64 {
	if p == nil {
		return 0
	}
	if e := p.entry(component, operation); e != nil {
		return e.Cycles
	}
	return 0
}

// Total returns all attributed cycles. When the profiler observed every
// charge on a meter, Total equals the meter's cycle count exactly.
func (p *Profiler) Total() int64 {
	var t int64
	if p == nil {
		return 0
	}
	for _, e := range p.entries {
		t += e.Cycles
	}
	return t
}

// Table renders the attribution table. model, when non-nil, adds a µs
// column at that processor's clock.
func (p *Profiler) Table(model *cpu.Model) string {
	var b strings.Builder
	title := "cycle attribution"
	if model != nil {
		title += " (" + model.Name + ")"
	}
	b.WriteString(title + "\n")
	if model != nil {
		fmt.Fprintf(&b, "%-14s %-12s %12s %14s %12s %8s\n",
			"component", "operation", "ops", "cycles", "us", "share")
	} else {
		fmt.Fprintf(&b, "%-14s %-12s %12s %14s %8s\n",
			"component", "operation", "ops", "cycles", "share")
	}
	total := p.Total()
	for _, e := range p.Entries() {
		share := 0.0
		if total > 0 {
			share = 100 * float64(e.Cycles) / float64(total)
		}
		if model != nil {
			fmt.Fprintf(&b, "%-14s %-12s %12d %14d %12.2f %7.1f%%\n",
				e.Component, e.Operation, e.Ops, e.Cycles,
				model.Duration(e.Cycles).Microseconds(), share)
		} else {
			fmt.Fprintf(&b, "%-14s %-12s %12d %14d %7.1f%%\n",
				e.Component, e.Operation, e.Ops, e.Cycles, share)
		}
	}
	if model != nil {
		fmt.Fprintf(&b, "%-14s %-12s %12s %14d %12.2f %7.1f%%\n",
			"total", "", "", total, model.Duration(total).Microseconds(), 100.0)
	} else {
		fmt.Fprintf(&b, "%-14s %-12s %12s %14d %7.1f%%\n", "total", "", "", total, 100.0)
	}
	return b.String()
}
