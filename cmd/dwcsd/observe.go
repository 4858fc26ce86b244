// Observability bundle for the real daemon: the same registry + span log +
// flight recorder + SLO monitor the simulated NI carries, driven off the
// wall clock instead of the deterministic engine. The simulator mutates all
// of these from a single engine goroutine; the daemon has concurrent actors
// (the send half's pacing loop, the receive half, Prometheus scrapes, the
// signal handler), so every touch goes through one mutex. The pieces
// themselves are unchanged — that is the point: a real run writes the exact
// artifact directory format sim runs produce, and internal/rundiff consumes
// it unmodified.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/blackbox"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// snapEvery is the wall-clock cadence of registry snapshots; each snapshot
// is one row per series in metrics.csv.
const snapEvery = 500 * time.Millisecond

// obs is the daemon's observability bundle, built by newObs.
type obs struct {
	mu  sync.Mutex
	reg *telemetry.Registry
	mon *slo.Monitor
	rec *blackbox.Recorder

	clk      *wallClock // nanoseconds since the bundle was built
	where    string
	dir      string // artifact directory; "" disables writing
	lastSnap sim.Time
	lastEval sim.Time
}

// newObs builds the bundle. name labels the card-equivalent (the run's
// role: "dwcsd" serve, "dwcsd-recv", "dwcsd-soak"); artifactsDir enables
// the -artifacts mode when non-empty.
func newObs(name, artifactsDir string) *obs {
	o := &obs{
		reg:   telemetry.New(),
		mon:   slo.NewMonitor(name, slo.Config{}),
		clk:   newWallClock(time.Now()),
		where: name,
		dir:   artifactsDir,
	}
	// Config zero values select the defaults, which always hold ≥1 event,
	// so the error path is unreachable here.
	o.rec, _ = blackbox.New(blackbox.Config{Name: name})
	// Every recorded span feeds the SLO monitor's latency objective, same
	// fan-out the simulated card uses.
	o.reg.Spans.Observer = o.mon.ObserveSegment
	// Incidents embed the registry values at the moment of the trigger.
	o.rec.StateFn = o.reg.ValuesText
	o.rec.Instrument(o.reg)
	o.mon.Instrument(o.reg)
	// OnChange fires inside mon.Eval, which tick() calls with o.mu held —
	// so this hook must not re-lock.
	o.mon.OnChange = func(stream int, from, to slo.State) {
		at := o.now()
		o.rec.Record(blackbox.Event{At: at, Kind: blackbox.KindSLO,
			Stream: stream, A: int64(from), B: int64(to),
			Note: from.String() + "->" + to.String()})
		if to == slo.StateViolated {
			o.rec.Trigger(at, fmt.Sprintf("slo violated: stream %d", stream))
		}
	}
	return o
}

// now maps the wall clock onto sim.Time: nanoseconds since the bundle was
// built, the same epoch the pacing loop uses.
func (o *obs) now() sim.Time {
	return o.clk.Now()
}

// trigger captures an incident (ring contents + registry state).
func (o *obs) trigger(reason string) {
	o.mu.Lock()
	o.rec.Trigger(o.now(), reason)
	o.mu.Unlock()
}

// tick advances the periodic machinery: registry snapshots (metrics.csv
// rows) and SLO evaluations. The receive half calls it once per poll;
// cheap when nothing is due.
func (o *obs) tick() {
	at := o.now()
	o.mu.Lock()
	o.tickLocked(at)
	o.mu.Unlock()
}

// tickLocked runs whichever of the snapshot and the SLO evaluation is due at
// `at` and returns when the next one is. Caller holds o.mu.
func (o *obs) tickLocked(at sim.Time) (next sim.Time) {
	if at-o.lastSnap >= sim.Time(snapEvery) {
		o.reg.Snapshot(at)
		o.lastSnap = at
	}
	if at-o.lastEval >= o.mon.Cfg.EvalEvery {
		o.mon.Eval()
		o.lastEval = at
	}
	return min(o.lastSnap+sim.Time(snapEvery), o.lastEval+o.mon.Cfg.EvalEvery)
}

// render returns the Prometheus exposition under the lock — the -metrics
// endpoint's scrape path.
func (o *obs) render() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.reg.PrometheusText()
}

// writeArtifacts renders the run into the same artifact directory format
// reprogen's sim runs write — stages.txt, metrics.csv, slo.txt,
// incidents.txt, metrics.prom — so `tracetool -diff simdir realdir` works
// unchanged. A final snapshot and eval run first so short runs still
// produce at least one metrics row and one SLO sample.
func (o *obs) writeArtifacts() error {
	if o.dir == "" {
		return nil
	}
	o.mu.Lock()
	at := o.now()
	o.mon.Eval()
	o.reg.Snapshot(at)
	files := []struct{ name, body string }{
		{"stages.txt", o.reg.Spans.StageTable()},
		{"metrics.csv", o.reg.SnapshotsCSV()},
		{"slo.txt", o.mon.Table()},
		{"incidents.txt", o.rec.DumpAll()},
		{"metrics.prom", o.reg.PrometheusText()},
	}
	o.mu.Unlock()
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(o.dir, f.name), []byte(f.body), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "dwcsd: artifacts written to %s\n", o.dir)
	return nil
}

// streamComponent names the per-stream metric component: series land as
// repro_dwcsd_s<id>_*{component="dwcsd_s<id>"} so one scrape config covers
// any stream count without label cardinality surprises in the registry.
func streamComponent(id int) string { return fmt.Sprintf("dwcsd_s%d", id) }
