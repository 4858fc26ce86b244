package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// runSuite is `go run ./bench`: every workload with tracing off, each in a
// fresh child of this binary so heap and peak RSS are per workload, then one
// traced pass per workload for the per-layer numbers. It prints every metric
// by name with its unit and sample count, and writes results.json for
// -compare.
func runSuite(spec *benchSpec, env environment, o options, subset string, runs int) error {
	fmt.Println(env)
	fmt.Printf("seed=%d (fleet topology and fault plan; repro_eval is paper-pinned, dwcsd_* shapes are seedless) seconds=%g runs=%d\n",
		o.seed, o.seconds, runs)
	var names []string
	for _, w := range spec.Workloads {
		if subset == "" || slices.Contains(strings.Split(subset, ","), w.Name) {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("-workloads %q selects nothing", subset)
	}
	file := resultsFile{Env: env, Seconds: o.seconds}
	for _, trace := range []int{0, 1} {
		for _, name := range names {
			n := runs
			if trace == 1 {
				n = 1
			}
			for i := 0; i < n; i++ {
				rec, err := runChild(o, name, trace)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				file.Runs = append(file.Runs, *rec)
			}
		}
	}

	failed := report(spec, &file, names, os.Stdout)
	path := filepath.Join(o.out, "results.json")
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d output check(s) failed", failed)
	}
	return nil
}

// runChild runs one workload in a fresh process and parses its last two
// lines: the info object and the result object.
func runChild(o options, workload string, trace int) (*runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace), "-out", o.out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	fmt.Printf("--- %s trace=%d\n", workload, trace)
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	rec := &runRecord{Workload: workload, Trace: trace, Seed: o.seed}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, "info: "); ok {
			if err := json.Unmarshal([]byte(rest), &rec.Info); err != nil {
				return nil, fmt.Errorf("info line: %w", err)
			}
		}
	}
	return rec, nil
}

// report prints the suite's tables and the cross-workload checks, and
// returns how many checks failed.
func report(spec *benchSpec, file *resultsFile, names []string, w io.Writer) (failed int64) {
	fmt.Fprintf(w, "\n== end-to-end (tracing off; median over n runs)\n")
	for _, name := range names {
		var rec *runRecord
		for i := range file.Runs {
			if r := &file.Runs[i]; r.Workload == name && r.Trace == 0 {
				rec = r
				failed += r.Result.Failed
			}
		}
		if rec == nil {
			continue
		}
		fmt.Fprintf(w, "%s  [unit of work: %s; repetitions/run: %s; set-up samples/run: %s; artifacts sha256: %.16s]\n",
			name, rec.Info["unit"], orDash(rec.Info["repetitions"]), rec.Info["setup_samples"], orDash(rec.Info["artifact_sha256"]))
		for _, ms := range spec.EndToEnd {
			vs := file.values(name, ms.Name)
			fmt.Fprintf(w, "  %-18s %14.6g %-6s n=%d spread=%.1f%%\n", ms.Name, median(vs), ms.Unit, len(vs), 100*spreadShare(vs))
		}
	}

	fmt.Fprintf(w, "\n== per layer (traced pass)\n")
	for _, name := range names {
		for _, r := range file.Runs {
			if r.Workload != name || r.Trace != 1 {
				continue
			}
			fmt.Fprintf(w, "%s  [trace: %s]\n", name, r.Info["trace_file"])
			for _, ms := range spec.PerLayer {
				fmt.Fprintf(w, "  %-36s %14.6g %s\n", ms.Name, r.Result.Metrics[ms.Name].Value, ms.Unit)
			}
		}
	}

	// Checks that need two workloads: the sequential and the parallel fleet
	// must render the same bytes at the full shape, and a workload's digest
	// must repeat across its runs.
	fmt.Fprintf(w, "\n== cross-workload\n")
	digests := map[string]string{}
	for _, r := range file.Runs {
		d := r.Info["artifact_sha256"]
		if d == "" || r.Trace != 0 {
			continue
		}
		if prev, ok := digests[r.Workload]; ok && prev != d {
			fmt.Fprintf(w, "FAILED: %s artifacts differ between runs\n", r.Workload)
			failed++
		}
		digests[r.Workload] = d
	}
	seq, par := digests["fleet64_seq"], digests["fleet64_par"]
	if seq != "" && par != "" {
		if seq == par {
			fmt.Fprintf(w, "fleet64_seq and fleet64_par artifacts are byte-identical (sha256 %.16s)\n", seq)
		} else {
			fmt.Fprintf(w, "FAILED: fleet64_seq and fleet64_par artifacts differ\n")
			failed++
		}
	}
	ratio := func(label, a, b, metric string) {
		va, vb := file.values(a, metric), file.values(b, metric)
		if len(va) > 0 && len(vb) > 0 {
			fmt.Fprintf(w, "%s = %.3f (%s of %s over %s)\n", label, median(va)/median(vb), metric, a, b)
		}
	}
	ratio("parallel speed-up at full shape", "fleet64_par", "fleet64_seq", "work_per_s")
	ratio("observability cost in CPU per frame", "fleet64_obs", "fleet64_seq", "cpu_us_per_unit")
	return failed
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
