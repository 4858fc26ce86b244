// Package telemetry is the reproduction's deterministic observability
// subsystem — the instrumentation the paper "built ... to measure desired
// performance parameters at the scheduler card or at the remote client end"
// (§4.1), grown into three pillars:
//
//   - Causal spans (span.go): per-frame simulated-time segments from disk
//     read through bus DMA, scheduler queue, transmit stack, wire, and
//     client playout, aggregated into per-stage latency tables and
//     folded-stack output for flamegraph tools.
//   - A metrics registry (this file): counters, gauges, and fixed-bucket
//     histograms registered by component, snapshotted at simulated-time
//     intervals, and exported as Prometheus text and CSV (export.go).
//   - A cycle-cost profiler (profile.go): a cpu.CycleObserver that
//     attributes every charged processor cycle to a (component, operation)
//     pair, reconciling against the paper's Table 2/3 microbenchmarks.
//
// Everything is driven by simulated time and plain counters — no wall
// clock, no goroutines, no map-order dependence in any export — so every
// artifact is byte-identical across runs and worker counts. A nil *Registry
// is valid everywhere and records nothing, so instrumented substrates call
// it unconditionally (the same convention as a nil *cpu.Meter); with
// telemetry off the cost is one nil check per event.
package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered time series. Direct values (counter/gauge/
// buckets) come from handle method calls on the hot path; fns are lazy
// sources evaluated at snapshot/export time, so existing substrate counters
// can be surfaced without touching their update paths. Multiple fns under
// one (component, name) sum — several cards or segments aggregate into one
// component-level series.
type metric struct {
	kind            metricKind
	component, name string
	help            string

	counter    int64
	counterFns []func() int64

	gauge    float64
	gaugeFns []func() float64

	bounds  []float64 // histogram upper bounds, ascending
	buckets []int64   // len(bounds)+1; last is +Inf overflow
	hSum    float64
	hCount  int64
}

func (m *metric) counterValue() int64 {
	v := m.counter
	for _, fn := range m.counterFns {
		v += fn()
	}
	return v
}

func (m *metric) gaugeValue() float64 {
	v := m.gauge
	for _, fn := range m.gaugeFns {
		v += fn()
	}
	return v
}

// Counter is a monotonically increasing metric handle. A nil *Counter is
// valid and discards updates.
type Counter struct{ m *metric }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.m.counter += n
	}
}

// Value returns the current count (direct plus lazy sources).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.m.counterValue()
}

// Gauge is a point-in-time value handle. A nil *Gauge is valid.
type Gauge struct{ m *metric }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.m.gauge = v
	}
}

// Value returns the current value (direct plus lazy sources).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.m.gaugeValue()
}

// Histogram is a fixed-bucket distribution handle. Bucket boundaries are
// set at registration and never change, so exports are deterministic. A nil
// *Histogram is valid.
type Histogram struct{ m *metric }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	m := h.m
	m.hCount++
	m.hSum += v
	for i, b := range m.bounds {
		if v <= b {
			m.buckets[i]++
			return
		}
	}
	m.buckets[len(m.bounds)]++
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.m.hCount
}

// Sum returns the running sum of observed samples; Sum/Count is the mean,
// which is how the real daemon's receiver reports mean inter-arrival gap
// from the same fixed-bucket histogram it exports.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.m.hSum
}

// Bounds returns the histogram's fixed upper bucket bounds (nil-safe).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.m.bounds
}

// LatencyBucketsMs is the shared fixed bucket set (milliseconds) for
// queueing and delivery latency histograms.
var LatencyBucketsMs = []float64{
	0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000,
}

// JitterBucketsMs is the shared fixed bucket set (milliseconds) for
// inter-arrival jitter histograms: finer than LatencyBucketsMs below 1 ms
// because a paced media stream's arrival gaps cluster around its period,
// and the interesting signal is sub-period dispersion.
var JitterBucketsMs = []float64{
	0.1, 0.25, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000,
}

// snapValue is one metric's value captured by a snapshot.
type snapValue struct {
	component, name string
	value           float64
}

// snapshot is the registry state at one simulated instant.
type snapshot struct {
	at     sim.Time
	values []snapValue
}

// Registry is the root of the telemetry subsystem: the metric store plus
// the span log. A cycle Profiler is not part of it: one is attached to a
// meter only where its table is rendered. Construct with New; a nil
// *Registry is valid and inert.
type Registry struct {
	// Spans is the causal span log.
	Spans *SpanLog

	// EpochOf, when set, resolves the serving epoch of a stream at span
	// recording time — the hook the fleet wires so spans recorded before and
	// after a live migration stay one stitchable identity. It must return -1
	// for streams whose placement this substrate does not know (the stitcher
	// then assigns the segment by frame cursor). Unset means epoch 0: a
	// single-card run has exactly one placement.
	EpochOf func(stream int) int

	metrics []*metric // registration order
	byKey   map[string]*metric
	snaps   []snapshot
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{
		Spans: &SpanLog{},
		byKey: make(map[string]*metric),
	}
}

// lookup finds or creates the metric for (component, name). Re-registering
// an existing key returns the same metric, so several instances of a
// substrate share one aggregated series; a kind clash is a programming
// error.
func (r *Registry) lookup(kind metricKind, component, name, help string) *metric {
	key := component + "\x00" + name
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s/%s registered as %v and %v", component, name, m.kind, kind))
		}
		return m
	}
	m := &metric{kind: kind, component: component, name: name, help: help}
	r.byKey[key] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(component, name, help string) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{r.lookup(kindCounter, component, name, help)}
}

// CounterFunc registers a lazy counter source; multiple sources under one
// (component, name) sum at read time.
func (r *Registry) CounterFunc(component, name, help string, fn func() int64) {
	if r == nil {
		return
	}
	m := r.lookup(kindCounter, component, name, help)
	m.counterFns = append(m.counterFns, fn)
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(component, name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{r.lookup(kindGauge, component, name, help)}
}

// GaugeFunc registers a lazy gauge source; multiple sources sum.
func (r *Registry) GaugeFunc(component, name, help string, fn func() float64) {
	if r == nil {
		return
	}
	m := r.lookup(kindGauge, component, name, help)
	m.gaugeFns = append(m.gaugeFns, fn)
}

// HistogramMetric registers (or finds) a histogram with the given fixed
// ascending bucket bounds (nil uses LatencyBucketsMs).
func (r *Registry) HistogramMetric(component, name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(kindHistogram, component, name, help)
	if m.bounds == nil {
		if bounds == nil {
			bounds = LatencyBucketsMs
		}
		m.bounds = bounds
		m.buckets = make([]int64, len(bounds)+1)
	}
	return &Histogram{m}
}

// Span records one causal span segment (nil-safe sugar for Spans.Record).
func (r *Registry) Span(stream int, seq int64, stage Stage, where string, start, end sim.Time) {
	if r == nil {
		return
	}
	epoch := 0
	if r.EpochOf != nil {
		epoch = r.EpochOf(stream)
	}
	r.Spans.Record(Segment{Stream: stream, Seq: seq, Epoch: epoch, Stage: stage, Where: where, Start: start, End: end})
}

// sorted returns the metrics ordered by (component, name) — the canonical
// export order, independent of registration order.
func (r *Registry) sorted() []*metric {
	out := append([]*metric(nil), r.metrics...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].component != out[j].component {
			return out[i].component < out[j].component
		}
		return out[i].name < out[j].name
	})
	return out
}

// Components returns the distinct instrumented component names, sorted.
func (r *Registry) Components() []string {
	if r == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for _, m := range r.metrics {
		if !seen[m.component] {
			seen[m.component] = true
			out = append(out, m.component)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot captures every metric's current value at simulated time `at`,
// appending one row set to the time-series dump (SnapshotsCSV). Histograms
// contribute their running count and sum. It returns how many values the
// row set holds.
func (r *Registry) Snapshot(at sim.Time) int {
	if r == nil {
		return 0
	}
	s := snapshot{at: at}
	for _, m := range r.sorted() {
		switch m.kind {
		case kindCounter:
			s.values = append(s.values, snapValue{m.component, m.name, float64(m.counterValue())})
		case kindGauge:
			s.values = append(s.values, snapValue{m.component, m.name, m.gaugeValue()})
		case kindHistogram:
			s.values = append(s.values, snapValue{m.component, m.name + "_count", float64(m.hCount)})
			s.values = append(s.values, snapValue{m.component, m.name + "_sum", m.hSum})
		}
	}
	r.snaps = append(r.snaps, s)
	return len(s.values)
}

// ValuesText renders every metric's current value as compact sorted
// "component.name value" lines — the registry snapshot an incident dump
// embeds. Histograms contribute their count and sum, like SnapshotsCSV.
func (r *Registry) ValuesText() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, m := range r.sorted() {
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s.%s %d\n", m.component, m.name, m.counterValue())
		case kindGauge:
			fmt.Fprintf(&b, "%s.%s %s\n", m.component, m.name, formatFloat(m.gaugeValue()))
		case kindHistogram:
			fmt.Fprintf(&b, "%s.%s_count %d\n", m.component, m.name, m.hCount)
			fmt.Fprintf(&b, "%s.%s_sum %s\n", m.component, m.name, formatFloat(m.hSum))
		}
	}
	return b.String()
}

// SnapshotEvery snapshots the registry once per period of simulated time.
func (r *Registry) SnapshotEvery(eng *sim.Engine, period sim.Time) (stop func()) {
	if r == nil {
		return func() {}
	}
	return eng.Every(period, func() { r.Snapshot(eng.Now()) })
}

// Snapshots reports how many snapshots have been taken.
func (r *Registry) Snapshots() int {
	if r == nil {
		return 0
	}
	return len(r.snaps)
}
