package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// runRecord is one single-workload run as the suite stores it.
type runRecord struct {
	Workload string            `json:"workload"`
	Trace    int               `json:"trace"`
	Seed     int64             `json:"seed"`
	Result   result            `json:"result"`
	Info     map[string]string `json:"info"`
}

// resultsFile is what `go run ./bench` writes and -compare reads.
type resultsFile struct {
	Env     environment `json:"env"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one end-to-end metric's readings on one workload.
func (f *resultsFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if v, ok := r.Result.Metrics[metric]; ok {
				vs = append(vs, v.Value)
			}
		}
	}
	return vs
}

// errWorse makes the process exit with code 3.
var errWorse = errors.New("at least one metric is worse than its bound allows")

type verdict string

const (
	better     verdict = "better"
	within     verdict = "within bound"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge applies one metric's bound to the readings of a base (a) and a
// candidate (b). worsening is the candidate's median relative to the
// base's, signed so that positive is worse. A worsening past the bound is
// "worse". Otherwise, when either side's inter-quartile spread is wider
// than the bound the pair cannot be called unchanged: it is "unresolved"
// unless every candidate reading beats every base reading.
func judge(ms metricSpec, a, b []float64) (v verdict, worsening, spread float64) {
	ma, mb := median(a), median(b)
	worsening = (mb - ma) / ma
	lowerIsBetter := ms.Better == "lower"
	if !lowerIsBetter {
		worsening = -worsening
	}
	spread = max(spreadShare(a), spreadShare(b))
	allBetter := len(a) >= 2 && len(b) >= 2
	for _, x := range b {
		for _, y := range a {
			if (lowerIsBetter && x >= y) || (!lowerIsBetter && x <= y) {
				allBetter = false
			}
		}
	}
	switch {
	case worsening > ms.Bound:
		return worse, worsening, spread
	case allBetter:
		return better, worsening, spread
	case spread > ms.Bound:
		return unresolved, worsening, spread
	case worsening < -spread && len(a) >= 2 && len(b) >= 2:
		return better, worsening, spread
	}
	return within, worsening, spread
}

// compareFiles prints one row per (end-to-end metric, workload) pair and
// returns errWorse when any row is "worse".
func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s  %s\nB: %s  %s\n", pathA, a.Env, pathB, b.Env)
	fmt.Fprintf(w, "%-14s %-18s %6s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "unit", "A median", "B median", "worsening", "spread", "bound", "verdict")
	bad := false
	for _, wl := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			va, vb := a.values(wl.Name, ms.Name), b.values(wl.Name, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worsening, spread := judge(ms, va, vb)
			bad = bad || v == worse
			fmt.Fprintf(w, "%-14s %-18s %6s %14.6g %14.6g %+8.2f%% %7.2f%% %6.0f%%  %s (n=%d,%d)\n",
				wl.Name, ms.Name, ms.Unit, median(va), median(vb), 100*worsening, 100*spread, 100*ms.Bound, v, len(va), len(vb))
		}
	}
	if bad {
		return errWorse
	}
	return nil
}
