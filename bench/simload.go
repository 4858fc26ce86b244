package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// Shapes of the simulator workloads. The fleet runs 120 simulated seconds
// on purpose: frames per host second fall as the simulated run gets longer
// (about a fifth between 30 and 120 sim-s on the sizing box), and a short
// run would hide that growth.
const (
	fleetCards     = 64
	fleetPerCard   = 2
	fleetSimSec    = 60
	fleetObsSimSec = 30
	// The warm-up of a set-up probe runs long enough that set-up is mostly
	// simulator work and not the cost of starting a process.
	fleetWarmSimSec = 5
)

// scaled divides a shape by the smoke-test scale and keeps it at least floor.
func scaled(n, scale, floor int) int { return max(n/scale, floor) }

// repOut is what one repetition of a simulator workload hands back.
type repOut struct {
	units  int64    // work units completed: one regeneration, or frames received
	arts   []string // rendered artifacts, digested in this order
	breach int64    // invariant violations the run itself counted (want 0)
}

func digest(arts []string) string {
	h := sha256.New()
	for _, a := range arts {
		fmt.Fprintf(h, "%d:", len(a))
		h.Write([]byte(a))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// simWorkload is a workload that runs inside the bench process.
type simWorkload struct {
	unit string
	// procs is the GOMAXPROCS the workload runs at: 1 for the sequential
	// workloads, W for the parallel fleet. Sequential means one P as well as
	// one worker: on a 2-vCPU VM the Go runtime's cross-P garbage-collector
	// coordination makes the same single-worker fleet run about 1.4x slower
	// and two to three times noisier at GOMAXPROCS=2 than at 1, and that is
	// the runtime, not the simulator. sim.multi_p_cost tracks the effect.
	procs int
	// minReps is how many repetitions a run makes at least, and the count
	// after which peak RSS is read. The simulator keeps some memory per run
	// it has made (repro_eval: about 2 MB per regeneration), so RSS read at
	// the end of a time-boxed loop would measure how many repetitions the
	// box managed; read after a fixed amount of work it measures the program.
	minReps int
	// warm runs the workload once at a small shape. It is the body of the
	// set-up probe: clip generation, topology build and first-use costs.
	warm func(seed int64)
	// rep runs one full-shape repetition, recording a span per layer call.
	rep func(seed int64, tr *tracer) repOut
}

// simWorkloads builds the four simulator workloads. scale > 1 shrinks them
// for the smoke test; w is the worker count of the parallel variant.
func simWorkloads(scale, w int) map[string]simWorkload {
	fleet := func(workers int) simWorkload {
		run := func(seed int64, simSec int, tr *tracer) repOut {
			var r *cluster.FleetResult
			tr.do("cluster.RunFleet", func() {
				r = cluster.RunFleet(cluster.FleetConfig{
					Cards: scaled(fleetCards, scale, 4), StreamsPerCard: fleetPerCard,
					Dur: sim.Time(simSec) * sim.Second, Workers: workers, Seed: seed,
				})
			})
			return repOut{units: r.TotalRecv, arts: []string{r.Summary, r.Table, r.Pulse, r.CSV}}
		}
		return simWorkload{
			unit:    "simulated frames received",
			procs:   workers,
			minReps: 2,
			warm:    func(seed int64) { run(seed, fleetWarmSimSec, nil) },
			rep: func(seed int64, tr *tracer) repOut {
				return run(seed, scaled(fleetSimSec, scale, 2), tr)
			},
		}
	}
	obs := func(seed int64, simSec int, tr *tracer) repOut {
		var a *experiments.FleetObsArtifacts
		tr.do("experiments.RunFleetObs", func() {
			a = experiments.RunFleetObs(experiments.FleetObsConfig{
				Cards: scaled(fleetCards, scale, 8), Dur: sim.Time(simSec) * sim.Second,
				Workers: 1, FaultSeed: seed,
			})
		})
		c := a.Chaos
		return repOut{units: c.Recv, breach: a.Breaches + c.ViolOutside,
			arts: []string{a.Rollup, a.Timeline, a.TopK, a.ScrapeStats, a.Stitched, a.Summary,
				c.Plan, c.Summary, c.Table, c.MigLog, c.Violations, c.CSV}}
	}
	wls := map[string]simWorkload{
		"repro_eval": {
			unit:    "full regenerations",
			procs:   1,
			minReps: 30,
			warm:    func(int64) { reproEval(nil) },
			rep:     func(_ int64, tr *tracer) repOut { return reproEval(tr) },
		},
		"fleet64_seq": fleet(1),
		"fleet64_par": fleet(w),
		"fleet64_obs": {
			unit:    "simulated frames received",
			procs:   1,
			minReps: 2,
			warm:    func(seed int64) { obs(seed, 6, nil) },
			rep: func(seed int64, tr *tracer) repOut {
				return obs(seed, scaled(fleetObsSimSec, scale, 6), tr)
			},
		},
	}
	if scale > 1 {
		for name, wl := range wls {
			wl.minReps = 1
			wls[name] = wl
		}
	}
	return wls
}

// reproEval is the job set of `reprogen` with every opt-in run at its
// Makefile shape, sequential (DefaultWorkers = 1), rendered to text.
func reproEval(tr *tracer) repOut {
	experiments.DefaultWorkers = 1
	var (
		results []*experiments.Result
		host    *experiments.HostFigures
		ni      *experiments.NIFigures
		tel     *experiments.TelemetryArtifacts
		diag    *experiments.DiagnosticsArtifacts
		ov      *experiments.OverloadArtifacts
		fr      *experiments.FaultRecovery
	)
	table := func(name string, run func() *experiments.Result) {
		tr.do(name, func() { results = append(results, run()) })
	}
	table("experiments.table1", experiments.RunTable1)
	table("experiments.table2", experiments.RunTable2)
	table("experiments.table3", experiments.RunTable3)
	table("experiments.table4", experiments.RunTable4)
	table("experiments.table5", experiments.RunTable5)
	table("experiments.headline", experiments.RunHeadline)
	table("experiments.scaling", func() *experiments.Result {
		_, r := experiments.RunStreamScaling([]int{4, 16, 64, 256})
		return r
	})
	tr.do("experiments.hostfigs", func() { host = experiments.RunHostFigures(100 * sim.Second) })
	tr.do("experiments.nifigs", func() { ni = experiments.RunNIFigures(50 * sim.Second) })
	tr.do("experiments.telemetry", func() {
		tel = experiments.RunTelemetry(experiments.TelemetryConfig{Dur: 20 * sim.Second})
	})
	tr.do("experiments.diagnostics", func() {
		diag = experiments.RunDiagnostics(experiments.DiagnosticsConfig{Dur: 20 * sim.Second})
	})
	tr.do("experiments.overload", func() {
		ov = experiments.RunOverload(experiments.OverloadConfig{Dur: 10 * sim.Second, Workers: 1})
	})
	tr.do("experiments.faults", func() {
		fr = experiments.RunFaultRecovery(experiments.FaultConfig{Dur: 100 * sim.Second})
	})

	var text strings.Builder
	tr.do("experiments.render", func() {
		results = append(results, fr.Result(),
			host.Figure6(), host.Figure7(), host.Figure8(),
			ni.Figure9(), ni.Figure10(), experiments.JitterComparison(host, ni), ov.Table)
		for _, r := range results {
			text.WriteString(r.String())
		}
		curves := []*experiments.StreamCurves{host.Runs[0], host.Runs[45], host.Runs[60], ni.NoLoad, ni.Loaded60}
		for _, c := range curves {
			text.WriteString(c.Util.CSV())
			names := make([]string, 0, len(c.BW))
			for name := range c.BW {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				text.WriteString(c.BW[name].CSV())
				text.WriteString(c.QDelay[name].CSV())
			}
		}
	})
	return repOut{units: 1, arts: []string{text.String(),
		string(tel.TraceJSON), tel.Prom, tel.CSV, tel.StageTable, tel.Folded, tel.CycleTable, tel.Summary,
		diag.Incidents, diag.SLO, diag.MetricsCSV, diag.Stages, diag.Plan, diag.Summary,
		ov.Ladder, ov.CSV, ov.Summary}}
}

// fleetCrossCheck holds the sequential and the parallel fleet to the same
// bytes. It runs at a short shape so every run of either workload can afford
// it; the suite also compares the two workloads' full-shape digests.
func fleetCrossCheck(m *measured, seed int64, w int) {
	arts := func(workers int) string {
		r := cluster.RunFleet(cluster.FleetConfig{
			Cards: 8, StreamsPerCard: fleetPerCard, Dur: 2 * sim.Second, Workers: workers, Seed: seed,
		})
		return digest([]string{r.Summary, r.Table, r.Pulse, r.CSV})
	}
	m.check(arts(1) == arts(w), fmt.Sprintf("fleet artifacts differ between Workers=1 and Workers=%d", w))
}

// repSample is the cost of one repetition. The artifacts are digested and
// dropped at once, so the bench's own bookkeeping does not grow the heap it
// is measuring.
type repSample struct {
	wall    time.Duration
	cpu     time.Duration
	allocMB float64
	units   int64
	breach  int64
	digest  string
}

// timeRep runs one repetition and measures it from outside.
func timeRep(wl simWorkload, seed int64, tr *tracer) repSample {
	// Collect first, so every repetition starts from the same heap and sees
	// the same number of collector cycles, whatever the one before left.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, _ := selfUsage()
	t0 := time.Now()
	out := wl.rep(seed, tr)
	wall := time.Since(t0)
	cpu1, _ := selfUsage()
	runtime.ReadMemStats(&after)
	return repSample{
		wall:    wall,
		cpu:     cpu1.sub(cpu0).total(),
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		units:   out.units,
		breach:  out.breach,
		digest:  digest(out.arts),
	}
}

// measureSim repeats a simulator workload for the measuring time and fills
// in the end-to-end metrics and the output checks.
func measureSim(m *measured, wl simWorkload, seed int64, seconds float64, tr *tracer) []repSample {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.procs))
	var reps []repSample
	var rss float64
	start := time.Now()
	for len(reps) < wl.minReps || time.Since(start).Seconds() < seconds {
		// A traced pass alternates traced and untraced repetitions, so the
		// tracing overhead is read off the same run.
		use := tr
		if len(reps)%2 == 1 {
			use = nil
		}
		reps = append(reps, timeRep(wl, seed, use))
		if len(reps) == wl.minReps {
			_, rss = selfUsage()
		}
	}
	first := reps[0].digest
	var walls, cpuPerUnit, allocs []float64
	for i, r := range reps {
		walls = append(walls, r.wall.Seconds())
		cpuPerUnit = append(cpuPerUnit, inUs(r.cpu)/float64(r.units))
		allocs = append(allocs, r.allocMB)
		m.check(r.units > 0, "repetition produced no work")
		m.check(r.breach == 0, fmt.Sprintf("repetition %d: %d invariant breaches", i, r.breach))
		if i > 0 {
			m.check(r.digest == first, fmt.Sprintf("repetition %d: artifacts differ from the first", i))
		}
	}
	m.set("work_per_s", float64(reps[0].units)/median(walls))
	m.set("cpu_us_per_unit", median(cpuPerUnit))
	m.set("peak_rss_mb", rss)
	m.set("bench.alloc_mb", median(allocs))
	m.note("unit", "%s", wl.unit)
	m.note("gomaxprocs", "%d", wl.procs)
	m.note("repetitions", "%d", len(reps))
	m.note("peak_rss_read_after_repetition", "%d", wl.minReps)
	m.note("wall_s_median", "%.4f", median(walls))
	m.note("alloc_mb", "%.3f", median(allocs))
	m.note("artifact_sha256", "%s", first)
	return reps
}
