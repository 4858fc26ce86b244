// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each Run* function builds the corresponding testbed from
// the substrate packages, executes it deterministically, and returns the
// measured values alongside the paper's reported numbers so cmd/reprogen,
// the test suite, and the bench workloads all share one source of truth.
//
// The reproduction criterion is *shape*, not absolute equality (DESIGN.md
// §5): the simulated substrate is calibrated from the paper's own
// measurements, so headline values land close, but what the tests enforce
// is who wins, by roughly what factor, and where the crossovers fall.
package experiments

import (
	"fmt"
	"strings"
)

// Row is one paper-vs-measured comparison line.
type Row struct {
	Name     string
	Unit     string
	Paper    float64 // value reported in the paper (0 if none)
	Measured float64
}

// DevPct returns the relative deviation from the paper value in percent.
func (r Row) DevPct() float64 {
	if r.Paper == 0 {
		return 0
	}
	return 100 * (r.Measured - r.Paper) / r.Paper
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string // "Table 1", "Figure 7", ...
	Title string
	Rows  []Row
	Notes []string
}

// Add appends a comparison row.
func (res *Result) Add(name, unit string, paper, measured float64) {
	res.Rows = append(res.Rows, Row{Name: name, Unit: unit, Paper: paper, Measured: measured})
}

// Note appends a free-form note rendered under the table.
func (res *Result) Note(format string, args ...any) {
	res.Notes = append(res.Notes, fmt.Sprintf(format, args...))
}

// String renders the result as an aligned text table.
func (res *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", res.ID, res.Title)
	w := 0
	for _, r := range res.Rows {
		if len(r.Name) > w {
			w = len(r.Name)
		}
	}
	fmt.Fprintf(&b, "  %-*s  %12s  %12s  %8s  %s\n", w, "metric", "paper", "measured", "dev", "unit")
	for _, r := range res.Rows {
		paper := "—"
		dev := "—"
		if r.Paper != 0 {
			paper = fmt.Sprintf("%.2f", r.Paper)
			dev = fmt.Sprintf("%+.1f%%", r.DevPct())
		}
		fmt.Fprintf(&b, "  %-*s  %12s  %12.2f  %8s  %s\n", w, r.Name, paper, r.Measured, dev, r.Unit)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(&b, "  · %s\n", n)
	}
	return b.String()
}
