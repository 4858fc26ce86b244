package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/nic"
	"repro/internal/sim"
)

// ScalingPoint is one stream-count measurement of the paper's future-work
// study ("Experimentation is underway for studying bandwidth allocations
// for a large number of streams", §6).
type ScalingPoint struct {
	Streams       int
	Selector      dwcs.SelectorKind
	CyclesPerDec  int64
	MicrosPerDec  float64 // at the i960 RD's 66 MHz
	DecisionsPerS float64 // sustainable decision rate on the NI
}

// RunStreamScaling measures per-decision scheduling cost on the i960 RD as
// the stream count grows, for both the embedded linear scan and the
// Figure 4(a) heap structure.
func RunStreamScaling(counts []int) ([]ScalingPoint, *Result) {
	res := &Result{
		ID:    "Scaling",
		Title: "Decision cost vs stream count (future-work study, §6)",
	}
	// Every (selector, count) cell is an independent simulation; measure
	// the whole matrix across the worker pool, then report in the fixed
	// selector-major order so the table is byte-identical to a
	// sequential sweep.
	type cell struct {
		sel dwcs.SelectorKind
		n   int
	}
	var cells []cell
	for _, sel := range []dwcs.SelectorKind{dwcs.Scan, dwcs.Heaps, dwcs.SortedList, dwcs.Calendar} {
		for _, n := range counts {
			cells = append(cells, cell{sel, n})
		}
	}
	// Every cell preloads six packets per stream, read from one shared set.
	packets := make([]dwcs.Packet, 6*slices.Max(counts))
	for i := range packets {
		packets[i] = dwcs.Packet{Bytes: 1000}
	}
	jobs := make([]func() ScalingPoint, len(cells))
	for i, c := range cells {
		c := c
		jobs[i] = func() ScalingPoint { return measureScaling(c.sel, c.n, packets[:6*c.n]) }
	}
	points := Collect(jobs)
	for _, p := range points {
		res.Add(fmt.Sprintf("%s, %d streams", p.Selector, p.Streams), "µs/decision", 0, p.MicrosPerDec)
	}
	// Each selector's growth, read off the points the table prints.
	n := len(counts)
	var growth []string
	for i := 0; i < len(points); i += n {
		first, last := points[i], points[i+n-1]
		growth = append(growth, fmt.Sprintf("%s %.2f×", first.Selector, last.MicrosPerDec/first.MicrosPerDec))
	}
	res.Note("decision cost at %d streams over that at %d: %s — the scalability argument behind Figure 4(a)",
		counts[n-1], counts[0], strings.Join(growth, ", "))
	return points, res
}

func measureScaling(sel dwcs.SelectorKind, streams int, packets []dwcs.Packet) ScalingPoint {
	card := nic.New(sim.NewEngine(1), nic.Config{Name: "scale", CacheOn: true})
	specs := make([]dwcs.StreamSpec, streams)
	for s := range specs {
		specs[s] = dwcs.StreamSpec{
			ID:     s,
			Period: sim.Second,
			Loss:   fixed.New(int64(s%3), int64(s%3)+2),
			Lossy:  true,
			BufCap: 8,
		}
	}
	decisions := drainPass{
		meter: card.Meter,
		sched: card.NewBenchScheduler(nic.SchedulerConfig{
			Selector: sel,
			// The calendar queue requires the deadline-primary variant; use it
			// for every selector so the comparison is apples to apples.
			Precedence:     dwcs.EDFFirst,
			WorkConserving: true,
		}),
		specs:   specs,
		packets: packets,
	}.run()
	cycles := card.Meter.Cycles() / int64(decisions)
	us := card.Meter.Model.Duration(cycles).Microseconds()
	return ScalingPoint{
		Streams:       streams,
		Selector:      sel,
		CyclesPerDec:  cycles,
		MicrosPerDec:  us,
		DecisionsPerS: 1e6 / us,
	}
}
