// Command bench is the repository's one layered benchmark: it measures the
// single-card simulator, the 64-card fleet and the real UDP daemon end to
// end, and each layer a frame crosses from outside. BENCHMARK.json at the
// repository root names the workloads and metrics; bench/README.md is the
// glossary.
//
//	go run ./bench                                   # every workload, then one traced pass
//	go run ./bench -workload dwcsd_burst -seconds 12 # one workload, one JSON result line
//	go run ./bench -workload fleet64_seq -trace 1    # its per-layer metrics and trace file
//	go run ./bench -compare A.json B.json            # verdict per (metric, workload); exit 3 on "worse"
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed feeds cluster.FleetConfig.Seed and the fleet-obs FaultSeed.
const defaultSeed = 1960

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	scale    int // 1, or more to shrink every shape; only the smoke test sets it
}

// setupRuns is how many times a run sets up to take the median; the smoke
// test sets up once.
func (o options) setupRuns() int { return max(setupProbeRuns/o.scale, 1) }

// simSetupRuns is the same for the simulator workloads, whose set-up is a
// 0.1–0.3 s process: short enough that start-up jitter needs more samples.
func (o options) simSetupRuns() int { return max(2*setupProbeRuns/o.scale-1, 1) }

func main() {
	o := options{scale: 1}
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print one JSON result line (default: the whole suite)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed: fleet topology seed and fleet-obs fault seed; repro_eval is paper-pinned and the dwcsd_* shapes are seedless")
	flag.Float64Var(&o.seconds, "seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics, spans written to -out")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for the daemon binary, trace-<workload>.json and results.json")
	workloads := flag.String("workloads", "", "suite mode: comma-separated subset of workloads")
	runs := flag.Int("runs", 1, "suite mode: untraced runs per workload")
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments")
	setupProbe := flag.String("setup-probe", "", "internal: warm this simulator workload up once and exit")
	flag.Parse()

	if err := run(o, *workloads, *runs, *compare, *setupProbe); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if err == errWorse {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run(o options, subset string, runs int, compare bool, setupProbe string) error {
	if setupProbe != "" {
		// Nothing but the warm-up: this process's wall time is setup_s.
		wl, ok := simWorkloads(1, workers())[setupProbe]
		if !ok {
			return fmt.Errorf("no simulator workload %q", setupProbe)
		}
		runtime.GOMAXPROCS(wl.procs)
		wl.warm(o.seed)
		return nil
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	env := readEnvironment()
	switch {
	case compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two results files")
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1), os.Stdout)
	case o.workload != "":
		if !spec.workload(o.workload) {
			return fmt.Errorf("no workload %q in %s", o.workload, benchmarkFile)
		}
		return runOne(spec, env, o)
	default:
		return runSuite(spec, env, o, subset, runs)
	}
}

// runOne measures one workload and prints the contract's result line last.
func runOne(spec *benchSpec, env environment, o options) error {
	fmt.Println(env)
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, o.trace)
	m, err := measure(env, o)
	if err != nil {
		return err
	}
	res, err := m.result(spec.metrics(o.trace != 0))
	if err != nil {
		return err
	}
	printMeasured(m, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printMeasured lists the facts that are not metrics, one "info" line the
// suite can parse, then every metric by name with its unit.
func printMeasured(m *measured, res *result) {
	info, _ := json.Marshal(m.info)
	fmt.Printf("info: %s\n", info)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Printf("  %-36s %14.6g %s\n", name, v.Value, v.Unit)
	}
}

// measure runs the workload with tracing off, or the traced pass.
func measure(env environment, o options) (*measured, error) {
	m := newMeasured()
	var tr *tracer
	if o.trace != 0 {
		tr = newTracer(o.workload)
		if err := tracedCommon(m, env, o, tr); err != nil {
			return nil, err
		}
	}
	var err error
	if wl, ok := simWorkloads(o.scale, env.W)[o.workload]; ok {
		err = measureSimWorkload(m, env, o, wl, tr)
	} else {
		err = measureDaemonWorkload(m, o, tr)
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		path, err := tr.write(o.out)
		if err != nil {
			return nil, err
		}
		m.note("trace_file", "%s", path)
	}
	if m.attempted == 0 {
		return nil, fmt.Errorf("workload %s attempted nothing", o.workload)
	}
	return m, nil
}

// measureSimWorkload is the run of one in-process simulator workload.
func measureSimWorkload(m *measured, env environment, o options, wl simWorkload, tr *tracer) error {
	setup, n, err := simSetup(o)
	if err != nil {
		return err
	}
	m.set("setup_s", setup)
	m.note("setup_samples", "%d", n)
	if o.workload == "fleet64_seq" || o.workload == "fleet64_par" {
		fleetCrossCheck(m, o.seed, env.W)
	}
	reps := measureSim(m, wl, o.seed, o.seconds, tr)
	if tr != nil {
		if err := tracedSim(m, o, reps, tr); err != nil {
			return err
		}
	}
	m.set("delivered_share", float64(m.attempted-m.failed)/float64(m.attempted))
	return nil
}

// simSetup measures set-up for a simulator workload: a fresh child of this
// binary starts, runs the workload's warm-up once (clip generation,
// topology build, first-use costs) and exits; setup_s is the median wall
// time from exec to exit over several children.
func simSetup(o options) (float64, int, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	var walls []float64
	for i := 0; i < o.simSetupRuns(); i++ {
		cmd := exec.Command(self, "-setup-probe", o.workload, "-seed", fmt.Sprint(o.seed))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, 0, fmt.Errorf("set-up probe: %w", err)
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls), len(walls), nil
}
