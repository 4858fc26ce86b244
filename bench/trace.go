package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the bench made into a layer. Parent is the index
// of the span that was open when this one started, -1 at the top.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off mode: do() then only calls through, so the untraced run pays
// one nil check per layer call and nothing else.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
	counts   map[string]int64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), counts: map[string]int64{}}
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload})
	t.open = append(t.open, id)
	t.spans[id].StartNs = time.Since(t.t0).Nanoseconds()
	fn()
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// count records work done at a layer boundary, next to the spans.
func (t *tracer) count(name string, n int64) {
	if t != nil {
		t.counts[name] += n
	}
}

// self returns each span's self time: its duration minus the part its
// direct children cover.
func (t *tracer) self() []int64 {
	if t == nil {
		return nil
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// selfNs sums self time per span name over the spans from index first on.
func (t *tracer) selfNs(first int) map[string]int64 {
	byName := map[string]int64{}
	for i, ns := range t.self() {
		if i >= first {
			byName[t.spans[i].Name] += ns
		}
	}
	return byName
}

// calls counts spans per name.
func (t *tracer) calls() map[string]int64 {
	n := map[string]int64{}
	if t != nil {
		for _, s := range t.spans {
			n[s.Name]++
		}
	}
	return n
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string           `json:"workload"`
	Spans    []span           `json:"spans"`
	Counts   map[string]int64 `json:"counts"`
	SelfNs   map[string]int64 `json:"self_ns"`
	Calls    map[string]int64 `json:"calls"`
}

// write stores the trace as DIR/trace-<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	data, err := json.Marshal(traceFile{
		Workload: t.workload, Spans: t.spans, Counts: t.counts,
		SelfNs: t.selfNs(0), Calls: t.calls(),
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
