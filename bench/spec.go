package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is the contract at the root of the repository. The bench
// reads it at run time so the metric names, units, directions and bounds
// exist in exactly one place: a measurement the file does not name is not
// reported, and a name the file lists without a measurement is an error.
const benchmarkFile = "BENCHMARK.json"

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory or, for `go test`
// (which runs in the package directory), one level up.
func loadSpec() (*benchSpec, error) {
	var lastErr error
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, benchmarkFile))
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("run from the repository root: %w", lastErr)
}

func (s *benchSpec) workload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metrics returns the list a run with the given trace mode must report.
func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measured collects what a run observed, keyed by metric name, plus the
// facts that are information and not metrics (sample counts, digests).
type measured struct {
	vals      map[string]float64
	info      map[string]string
	attempted int64
	failed    int64
}

func newMeasured() *measured {
	return &measured{vals: map[string]float64{}, info: map[string]string{}}
}

func (m *measured) set(name string, v float64) { m.vals[name] = v }

func (m *measured) note(key, format string, args ...any) {
	m.info[key] = fmt.Sprintf(format, args...)
}

// check counts one output check into attempted/failed.
func (m *measured) check(ok bool, what string) {
	m.attempted++
	if !ok {
		m.failed++
		fmt.Fprintln(os.Stderr, "bench: check failed:", what)
	}
}

// result renders the contract line: every metric the spec lists for this
// trace mode, each with the unit the spec gives it.
func (m *measured) result(specs []metricSpec) (*result, error) {
	r := &result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]value, len(specs)),
	}
	for _, ms := range specs {
		v, ok := m.vals[ms.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is listed in %s but was not measured", ms.Name, benchmarkFile)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is not finite", ms.Name)
		}
		r.Metrics[ms.Name] = value{Value: v, Unit: ms.Unit}
	}
	return r, nil
}
