// Package rundiff is the regression engine behind `tracetool -diff`: it
// compares two artifact directories written by reprogen, clustersim or
// dwcsd (a pinned baseline and a fresh run) against a relative threshold and
// renders a verdict. The reader table (artifacts) turns each artifact file
// into named series, rank columns read as their rank; the rule set (rule)
// gives every series its direction, whether any change to it is significant
// regardless of the threshold, and its note; compareMaps is the only
// comparison. Every reader is total: malformed input, non-finite numbers
// included, returns an error wrapping ErrParse, never a panic, because CI
// feeds this whatever a broken run left behind. Findings are ordered by
// (file, series), so reports are themselves byte-stable artifacts.
package rundiff

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// ErrParse wraps every malformed-artifact error so tracetool can map the
// whole class onto its parse-error exit code.
var ErrParse = errors.New("rundiff: malformed artifact")

// Severity classifies one compared series.
type Severity int

// Finding severities. A series regresses or improves when it moves in its
// worse or better direction past the threshold, or at all where any change
// is significant (a ladder rung); an informational series is only info.
const (
	SevInfo Severity = iota
	SevImprovement
	SevRegression
)

// String names the severity.
func (s Severity) String() string {
	return [...]string{"info", "improvement", "REGRESSION"}[s]
}

// Options tunes the comparison.
type Options struct {
	// Threshold is the relative change that counts as significant (default
	// 0.10 = 10%; 0.50 in WallClock mode). Smaller changes are elided.
	Threshold float64
	// WallClock selects sim-vs-real conformance mode: a side was measured on
	// a wall clock, so the default threshold widens to 0.50 and per-stage
	// max latency and stages instrumented on one side only are
	// informational. Drops, burns and latency percentiles still regress.
	WallClock bool
}

// Finding is one compared series.
type Finding struct {
	File     string
	Series   string
	A, B     float64 // the series in run A and run B
	Delta    float64 // relative change (B-A)/A; ±Inf collapsed to ±1e9
	Severity Severity
	Note     string
}

// Report is the full comparison result.
type Report struct {
	DirA, DirB string
	Mode       string // "" for exact runs, "conformance" under Options.WallClock
	Findings   []Finding
	Compared   []string // files present in both dirs and diffed
	MissingA   []string // required files present only in B
	MissingB   []string // required files present only in A
	Skipped    []string // optional files present on one side, noted and skipped
}

// Regression reports whether any finding regressed.
func (r *Report) Regression() bool { return r.counts()[SevRegression] > 0 }

func (r *Report) counts() (n [3]int) {
	for _, f := range r.Findings {
		n[f.Severity]++
	}
	return n
}

// Table renders the human report.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run-diff %s → %s\n", r.DirA, r.DirB)
	if r.Mode != "" {
		fmt.Fprintf(&b, "mode: %s (wall-clock tolerances; max latency informational)\n", r.Mode)
	}
	fmt.Fprintf(&b, "compared: %s\n", strings.Join(r.Compared, ", "))
	if len(r.MissingA) > 0 {
		fmt.Fprintf(&b, "only in %s: %s\n", r.DirB, strings.Join(r.MissingA, ", "))
	}
	if len(r.MissingB) > 0 {
		fmt.Fprintf(&b, "only in %s: %s\n", r.DirA, strings.Join(r.MissingB, ", "))
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(&b, "skipped: %s\n", s)
	}
	if len(r.Findings) == 0 {
		b.WriteString("no significant differences\n")
	} else {
		fmt.Fprintf(&b, "%-12s %-11s %-38s %14s %14s %8s\n",
			"file", "verdict", "series", "a", "b", "delta")
		for _, f := range r.Findings {
			note := ""
			if f.Note != "" {
				note = "  " + f.Note
			}
			fmt.Fprintf(&b, "%-12s %-11s %-38s %14.3f %14.3f %+7.1f%%%s\n",
				f.File, f.Severity, f.Series, f.A, f.B, 100*f.Delta, note)
		}
	}
	n := r.counts()
	fmt.Fprintf(&b, "verdict: %d regression(s), %d improvement(s), %d info\n",
		n[SevRegression], n[SevImprovement], n[SevInfo])
	return b.String()
}

// JSON renders a machine-readable verdict. Hand-assembled so field order is
// fixed and output is byte-stable.
func (r *Report) JSON() string {
	var b strings.Builder
	n := r.counts()
	b.WriteString("{\n")
	fmt.Fprintf(&b, "  \"dir_a\": %q,\n  \"dir_b\": %q,\n", r.DirA, r.DirB)
	if r.Mode != "" {
		fmt.Fprintf(&b, "  \"mode\": %q,\n", r.Mode)
	}
	fmt.Fprintf(&b, "  \"regression\": %v,\n", n[SevRegression] > 0)
	fmt.Fprintf(&b, "  \"regressions\": %d,\n  \"improvements\": %d,\n  \"info\": %d,\n",
		n[SevRegression], n[SevImprovement], n[SevInfo])
	b.WriteString("  \"findings\": [\n")
	for i, f := range r.Findings {
		sep := ","
		if i == len(r.Findings)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    {\"file\": %q, \"series\": %q, \"a\": %s, \"b\": %s, \"delta\": %s, \"severity\": %q}%s\n",
			f.File, f.Series, trimFloat(f.A), trimFloat(f.B), trimFloat(f.Delta), f.Severity, sep)
	}
	b.WriteString("  ]\n}\n")
	return b.String()
}

func trimFloat(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }

// relDelta computes (b-a)/a with a==0 handled: 0→0 is 0, 0→x is ±1e9
// (a finite stand-in for Inf that still prints).
func relDelta(a, b float64) float64 {
	switch {
	case a == b:
		return 0
	case a == 0:
		return math.Copysign(1e9, b)
	}
	return (b - a) / a
}

// DiffDirs walks the reader table over two artifact directories. A file
// absent from both is not compared; a required file present on one side
// only is listed as missing, an optional one is noted and skipped.
func DiffDirs(dirA, dirB string, opt Options) (*Report, error) {
	r, threshold := &Report{DirA: dirA, DirB: dirB}, 0.10
	if opt.WallClock {
		r.Mode, threshold = "conformance", 0.50
	}
	if opt.Threshold <= 0 {
		opt.Threshold = threshold
	}
	for _, art := range artifacts {
		pa, pb := filepath.Join(dirA, art.name), filepath.Join(dirB, art.name)
		da, errA := os.ReadFile(pa)
		db, errB := os.ReadFile(pb)
		if errA != nil || errB != nil {
			only, missing := dirA, &r.MissingB
			if errA != nil {
				only, missing = dirB, &r.MissingA
			}
			switch {
			case errA != nil && errB != nil: // absent from both runs
			case art.optional:
				r.Skipped = append(r.Skipped, fmt.Sprintf("%s (optional, only in %s)", art.name, only))
			default:
				*missing = append(*missing, art.name)
			}
			continue
		}
		sa, err := art.read(string(da))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pa, err)
		}
		sb, err := art.read(string(db))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pb, err)
		}
		r.Compared = append(r.Compared, art.name)
		r.Findings = append(r.Findings, compareMaps(art, sa, sb, opt)...)
	}
	if len(r.Compared) == 0 {
		return nil, fmt.Errorf("%w: no comparable artifacts in %s and %s", ErrParse, dirA, dirB)
	}
	slices.SortFunc(r.Findings, func(x, y Finding) int {
		return cmp.Or(strings.Compare(x.File, y.File), strings.Compare(x.Series, y.Series))
	})
	return r, nil
}

// compareMaps is the comparison: every series both sides carry (every
// series either side carries, zero-filled, for a sparse artifact) is
// classified under its rule, and the significant changes become findings.
func compareMaps(art artifact, a, b map[string]float64, opt Options) []Finding {
	var keys []string
	for k := range a {
		if _, ok := b[k]; ok || art.sparse {
			keys = append(keys, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok && art.sparse {
			keys = append(keys, k)
		}
	}
	var out []Finding
	for _, k := range keys {
		av, bv := a[k], b[k]
		d := relDelta(av, bv)
		dir, always, note := rule(art, k, a, b, opt)
		if d == 0 || (!always && math.Abs(d) < opt.Threshold) {
			continue
		}
		sev := SevInfo
		if dir != neutral {
			sev = SevImprovement
			if (d > 0) == (dir == worseUp) {
				sev = SevRegression
			}
		}
		out = append(out, Finding{File: art.name, Series: k, A: av, B: bv,
			Delta: d, Severity: sev, Note: note})
	}
	return out
}
