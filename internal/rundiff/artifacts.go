package rundiff

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// artifact is one row of the reader table.
type artifact struct {
	name     string
	optional bool // a run kind may lack it: noted and skipped, not missing
	sparse   bool // a series absent on one side is zero there (event counts)
	read     func(text string) (map[string]float64, error)
	// cols holds the columns (series-name suffix after the last '.') whose
	// rule is not the default: worse up, past the threshold, no note. worse,
	// when set, makes a series informational unless it names one of them.
	cols  map[string]colRule
	worse []string
}

// colRule is a column's rule (see rule). Rungs, health and state ranks and
// violation and breach counts are always significant: they move in discrete
// steps whose relative size means nothing, and zero breaches is an invariant.
type colRule struct {
	dir    direction
	always bool
	note   string
	ranks  []string // a rank column's names: the note names both ranks
}

// direction says which way a series gets worse.
type direction int

const (
	worseUp direction = iota
	worseDown
	neutral // informational either way
)

// Rank columns read as their index here, so a step down the list is an
// escalation. Rollup health extends the SLO states with dark: a card the
// controller lost sight of is worse than any answered state.
var (
	rungs   = []string{"none", "shed", "drop-B", "drop-BP", "revoke"}
	healths = []string{"ok", "warn", "burning", "violated", "dark"}
	states  = healths[:4]
)

// artifacts is the reader table. Every instrumented run, simulated or real,
// writes stages.txt and metrics.csv; slo.txt comes from diagnostics runs and
// dwcsd, ladder.txt from overload sweeps, cycles.txt only from the simulator
// (a host CPU has no cycle meter), rollup.txt and timeline.txt from fleet
// runs. A new artifact file is one row here.
var artifacts = []artifact{
	// Counts follow the offered load, which legitimately differs across
	// configs; rule adds the two conformance-mode stage rules.
	{name: "stages.txt", read: readStages, cols: map[string]colRule{
		"count": {dir: neutral, note: "count drift is informational"}}},
	{name: "metrics.csv", read: ReadMetrics, worse: []string{"drop", "reject",
		"breach", "stall", "violation", "shed", "late", "miss", "overwritten",
		"suppressed", "leak", "fail", "detected", "retries", "engage"}},
	{name: "slo.txt", optional: true, read: readSLO, cols: map[string]colRule{
		"rank":       {always: true, ranks: states}, // health.rank, the worst stream
		"state_rank": {always: true}, "violations": {always: true}}},
	{name: "ladder.txt", optional: true, read: readLadder, cols: map[string]colRule{
		"max_rung": {always: true, ranks: rungs}, "breaches": {always: true},
		"admits": {dir: worseDown}, "reins": {dir: worseDown}}},
	{name: "cycles.txt", optional: true, read: readCycles},
	// Card and stream counts follow the config, and budget occupancy is
	// load, not badness.
	{name: "rollup.txt", optional: true, read: readRollup, cols: map[string]colRule{
		"health": {always: true, ranks: healths}, "breaches": {always: true},
		"goodput_mb": {dir: worseDown}, "cards": {dir: neutral},
		"streams": {dir: neutral}, "mem_pct": {dir: neutral}}},
	// A kind that appears only in the candidate run (0 → n) must surface.
	{name: "timeline.txt", optional: true, sparse: true, read: timelineCounts,
		worse: []string{"fault", "dark", "shed", "degrade", "abort", "lost",
			"wiped", "gap", "refused"}},
}

// rule is the rule set. For one series of art it gives the direction in
// which it gets worse (by default up), whether any change to it is
// significant regardless of the threshold, and its finding's note. a and b
// are both sides' series, for the rules that read a sibling or name a rank.
func rule(art artifact, series string, a, b map[string]float64, opt Options) (direction, bool, string) {
	col := series[strings.LastIndexByte(series, '.')+1:]
	if art.name == "stages.txt" && opt.WallClock {
		// A stage only one side instruments carries no signal (a sim chaos
		// run measures disk/bus, the real daemon tx/wire): its zero side
		// would read as ±1e9 on every column.
		stage, _, _ := strings.Cut(series, ".")
		if (a[stage+".count"] == 0) != (b[stage+".count"] == 0) {
			return neutral, false, "stage instrumented on one side only"
		}
		// On a wall clock one preempted goroutine makes an arbitrary max;
		// the percentiles carry the conformance signal.
		if col == "max_us" {
			return neutral, false, "wall-clock max is noisy"
		}
	}
	if art.worse != nil && !slices.ContainsFunc(art.worse,
		func(w string) bool { return strings.Contains(series, w) }) {
		return neutral, false, ""
	}
	c := art.cols[col]
	if c.ranks != nil {
		c.note = c.ranks[int(a[series])] + " → " + c.ranks[int(b[series])]
	}
	return c.dir, c.always, c.note
}

// line is one data line of an artifact: its 1-based number, text and fields.
type line struct {
	n    int
	text string
	f    []string
}

func (l line) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrParse, l.n, fmt.Sprintf(format, args...))
}

// num parses one numeric field. A non-finite value is malformed: it would
// compare as a change in either direction and cannot be written as JSON.
func (l line) num(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, l.errorf("%q is not a finite number", s)
	}
	return v, nil
}

// rank reads s as its index in names, into out as series.
func (l line) rank(out map[string]float64, series, s string, names []string) error {
	r := slices.Index(names, s)
	if r < 0 {
		return l.errorf("unknown %s %q", series, s)
	}
	out[series] = float64(r)
	return nil
}

// cols reads a line of len(names) fields: each field named in names, by
// field index, goes into out as key.name. An unnamed field is not read; one
// named "-" is read but not kept.
func (l line) cols(out map[string]float64, key string, names ...string) error {
	if len(l.f) != len(names) {
		return l.errorf("%d field(s), want %d: %q", len(l.f), len(names), l.text)
	}
	for i, name := range names {
		if name == "" {
			continue
		}
		v, err := l.num(l.f[i])
		if err != nil {
			return err
		}
		if name != "-" {
			out[key+"."+name] = v
		}
	}
	return nil
}

// readTable reads a whitespace-aligned table artifact: every line that is
// not blank and does not start with a skip prefix (title, column header) is
// a row, read into the series by row. A table with no series is malformed.
func readTable(text string, row func(line, map[string]float64) error, skip ...string) (map[string]float64, error) {
	out := make(map[string]float64)
	for i, s := range strings.Split(text, "\n") {
		s = strings.TrimSpace(s)
		if s == "" || slices.ContainsFunc(skip, func(p string) bool { return strings.HasPrefix(s, p) }) {
			continue
		}
		if err := row(line{i + 1, s, strings.Fields(s)}, out); err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: table has no rows", ErrParse)
	}
	return out, nil
}

// readStages reads a telemetry StageTable dump: `stage count total_ms
// mean_us p50_us p95_us max_us` rows. total_ms is count × mean, not
// compared.
func readStages(text string) (map[string]float64, error) {
	return readTable(text, func(l line, out map[string]float64) error {
		return l.cols(out, l.f[0], "", "count", "-", "mean_us", "p50_us", "p95_us", "max_us")
	}, "per-stage", "stage ")
}

// sloHeader is slo.Monitor's table header.
var sloHeader = regexp.MustCompile(`^slo [^:]*: health=([^,]*),.* (\S+) violation\(s\)$`)

// readSLO reads an slo.Monitor table: a header `slo <name>: health=<state>,
// N eval(s), N transition(s), N violation(s)`, then `id name state
// short_burn long_burn loss_tgt trans` rows. The card's health reads as
// health.rank, stream id's state as s<id>.state_rank.
func readSLO(text string) (map[string]float64, error) {
	return readTable(text, func(l line, out map[string]float64) error {
		if h := sloHeader.FindStringSubmatch(l.text); h != nil {
			v, err := l.num(h[2])
			if err != nil {
				return err
			}
			out["violations"] = v
			return l.rank(out, "health.rank", h[1], states)
		}
		if _, ok := out["health.rank"]; !ok {
			return l.errorf("stream row before the slo header: %q", l.text)
		}
		if err := l.cols(out, "s"+l.f[0], "", "", "", "short_burn", "long_burn", "", "transitions"); err != nil {
			return err
		}
		return l.rank(out, "s"+l.f[0]+".state_rank", l.f[2], states)
	}, "id ")
}

// readLadder reads an overload ladder/admission summary. The load label
// holds spaces ("no web load"), so rows read right to left: ten counter
// columns, then max_rung and mult; the rest is the label. A cell's series
// are keyed "<label> ×<mult>".
func readLadder(text string) (map[string]float64, error) {
	return readTable(text, func(l line, out map[string]float64) error {
		n := len(l.f) - 10
		if n < 3 {
			return l.errorf("%d field(s), want >= 13", len(l.f))
		}
		mult := l.f[n-2]
		if _, err := strconv.Atoi(mult); err != nil {
			return l.errorf("mult %q: %v", mult, err)
		}
		cell := strings.Join(l.f[:n-2], " ") + " ×" + mult
		if err := l.rank(out, cell+".max_rung", l.f[n-1], rungs); err != nil {
			return err
		}
		return l.cols(out, cell, append(make([]string, n), "trans", "shed", "dropB",
			"dropP", "revok", "reins", "rejects", "admits", "breaches", "bp_engag")...)
	}, "overload ladder", "load ")
}

// readCycles reads a cycle-attribution table into cycles per
// component/operation: `component operation ops cycles [us] share%` rows
// and a total row, which is skipped.
func readCycles(text string) (map[string]float64, error) {
	return readTable(text, func(l line, out map[string]float64) error {
		if len(l.f) != 5 && len(l.f) != 6 {
			return l.errorf("%d field(s), want 5 or 6: %q", len(l.f), l.text)
		}
		v, err := l.num(l.f[3])
		if err != nil {
			return err
		}
		out[l.f[0]+"/"+l.f[1]] = v
		return nil
	}, "cycle attribution", "component ", "total")
}

// readRollup reads a fleet rollup: `scope host sw cards streams health
// goodput_mb burn mem_pct breaches rung` rows for cards, hosts, switch
// domains and the fleet. A scope is keyed with its switch domain, so a
// finding names the blast radius: "ni03[sw0].goodput_mb", "h01[sw0]", "sw1".
func readRollup(text string) (map[string]float64, error) {
	return readTable(text, func(l line, out map[string]float64) error {
		key := l.f[0]
		if len(l.f) > 2 && l.f[2] != "-" && l.f[2] != key {
			key += "[" + l.f[2] + "]"
		}
		if err := l.cols(out, key, "", "", "", "cards", "streams", "",
			"goodput_mb", "burn", "mem_pct", "breaches", "rung"); err != nil {
			return err
		}
		return l.rank(out, key+".health", l.f[5], healths)
	}, "fleet rollup", "scope ")
}

// ReadMetrics reads a telemetry SnapshotsCSV dump into the last value of
// each component.metric series: the end-of-run state, which is what the
// cumulative counters and terminal gauges mean.
func ReadMetrics(text string) (map[string]float64, error) {
	rows := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if strings.TrimSpace(rows[0]) != "time_ms,component,metric,value" {
		return nil, fmt.Errorf("%w: header %q, want time_ms,component,metric,value",
			ErrParse, rows[0])
	}
	out := make(map[string]float64)
	for i, row := range rows[1:] {
		if strings.TrimSpace(row) == "" {
			continue
		}
		l := line{i + 2, row, strings.Split(row, ",")}
		if len(l.f) != 4 || l.f[1] == "" || l.f[2] == "" {
			return nil, l.errorf("want time_ms,component,metric,value: %q", row)
		}
		if _, err := l.num(l.f[0]); err != nil {
			return nil, err
		}
		v, err := l.num(l.f[3])
		if err != nil {
			return nil, err
		}
		out[l.f[1]+"."+l.f[2]] = v // snapshots are time-ordered: last write wins
	}
	return out, nil
}

// TimelineRow is one event of an incident timeline artifact.
type TimelineRow struct {
	Src, Kind string
	Detail    string // the free-form note, stream=/seq= prefixes included
	Line      string // the line as written
}

// ReadTimeline reads an incident timeline artifact, the fixed-column form
// fleetobs.Timeline.Render writes (t, src, host, sw, kind, detail): its
// column header line and one row per event.
func ReadTimeline(text string) (columns string, rows []TimelineRow, err error) {
	ls := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(ls) < 2 || !strings.HasPrefix(ls[0], "incident timeline:") {
		return "", nil, fmt.Errorf("%w: not an incident timeline (header %q)", ErrParse, ls[0])
	}
	for i, s := range ls[2:] {
		f := strings.Fields(s)
		if len(f) < 5 {
			return "", nil, line{n: i + 3}.errorf("%d field(s), want >= 5", len(f))
		}
		rows = append(rows, TimelineRow{Src: f[1], Kind: f[4],
			Detail: strings.Join(f[5:], " "), Line: s})
	}
	return ls[1], rows, nil
}

// timelineCounts reads a timeline as its event count per kind.
func timelineCounts(text string) (map[string]float64, error) {
	_, rows, err := ReadTimeline(text)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, r := range rows {
		out["count."+r.Kind]++
	}
	return out, nil
}
