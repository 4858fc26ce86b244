package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/nic"
	"repro/internal/sim"
)

func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero reference", name)
	}
	if math.Abs(got-want)/math.Abs(want) > relTol {
		t.Errorf("%s = %.2f, want %.2f ±%.0f%%", name, got, want, relTol*100)
	}
}

func TestResultRendering(t *testing.T) {
	res := &Result{ID: "Table X", Title: "demo"}
	res.Add("metric", "µs", 100, 110)
	res.Add("no-paper", "µs", 0, 5)
	res.Note("note %d", 7)
	out := res.String()
	for _, want := range []string{"Table X", "metric", "+10.0%", "note 7", "—"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	if res.Rows[0].DevPct() != 10 {
		t.Errorf("DevPct = %v", res.Rows[0].DevPct())
	}
	if res.Rows[1].DevPct() != 0 {
		t.Errorf("DevPct without paper value = %v", res.Rows[1].DevPct())
	}
}

func TestTable1Shape(t *testing.T) {
	soft := RunMicrobench(cpu.SoftFP, false, nic.StoreDRAM)
	fix := RunMicrobench(cpu.FixedPoint, false, nic.StoreDRAM)
	if soft.Frames != 151 || fix.Frames != 151 {
		t.Fatalf("frames = %d/%d, want 151", soft.Frames, fix.Frames)
	}
	within(t, "softFP avg sched", soft.AvgSched.Microseconds(), 129.67, 0.15)
	within(t, "fixed avg sched", fix.AvgSched.Microseconds(), 108.48, 0.15)
	within(t, "softFP avg no-sched", soft.AvgNoSched.Microseconds(), 34.6, 0.15)
	within(t, "fixed avg no-sched", fix.AvgNoSched.Microseconds(), 30.35, 0.15)
	// Fixed-point saves ≈20 µs per decision (paper ≈21 µs).
	saving := (soft.AvgSched - fix.AvgSched).Microseconds()
	if saving < 15 || saving > 27 {
		t.Errorf("fixed-point saving = %.1f µs, want ≈21", saving)
	}
	if soft.AvgSched <= soft.AvgNoSched || fix.AvgSched <= fix.AvgNoSched {
		t.Error("scheduling must cost more than dispatch-only")
	}
}

func TestTable2ShapeAndCacheBenefit(t *testing.T) {
	softOn := RunMicrobench(cpu.SoftFP, true, nic.StoreDRAM)
	fixOn := RunMicrobench(cpu.FixedPoint, true, nic.StoreDRAM)
	softOff := RunMicrobench(cpu.SoftFP, false, nic.StoreDRAM)
	fixOff := RunMicrobench(cpu.FixedPoint, false, nic.StoreDRAM)
	within(t, "softFP cache-on avg sched", softOn.AvgSched.Microseconds(), 115.20, 0.15)
	within(t, "fixed cache-on avg sched", fixOn.AvgSched.Microseconds(), 94.60, 0.15)
	// Cache saves ≈14 µs per frame (paper 14.47 / 13.88).
	for _, c := range []struct {
		name    string
		on, off Microbench
	}{{"softFP", softOn, softOff}, {"fixed", fixOn, fixOff}} {
		d := (c.off.AvgSched - c.on.AvgSched).Microseconds()
		if d < 8 || d > 20 {
			t.Errorf("%s cache benefit = %.2f µs, want ≈14", c.name, d)
		}
	}
	// Scheduler overhead ≈66.8 µs (the paper's NI headline).
	within(t, "NI scheduling overhead", fixOn.Overhead().Microseconds(), 66.82, 0.12)
}

func TestTable3HardwareQueueComparable(t *testing.T) {
	hw := RunMicrobench(cpu.FixedPoint, true, nic.StoreHardwareQueue)
	dram := RunMicrobench(cpu.FixedPoint, true, nic.StoreDRAM)
	// §4.2.1: "comparable" — within a few percent either way.
	ratio := float64(hw.AvgSched) / float64(dram.AvgSched)
	if ratio < 0.85 || ratio > 1.1 {
		t.Fatalf("hw-queue/DRAM avg sched ratio = %.3f, want ≈1", ratio)
	}
	// With the cache disabled the register file must win: its accesses
	// generate no external bus cycles.
	hwOff := RunMicrobench(cpu.FixedPoint, false, nic.StoreHardwareQueue)
	dramOff := RunMicrobench(cpu.FixedPoint, false, nic.StoreDRAM)
	if hwOff.AvgSched >= dramOff.AvgSched {
		t.Errorf("cache-off: hw queue (%v) should beat DRAM (%v)", hwOff.AvgSched, dramOff.AvgSched)
	}
}

func TestHeadlineComparable(t *testing.T) {
	res := RunHeadline()
	host := res.Rows[0].Measured
	ni := res.Rows[1].Measured
	within(t, "host overhead", host, 50, 0.15)
	within(t, "NI overhead", ni, 65, 0.15)
	// "Comparable, although the i960 RD is a much slower processor."
	if ni/host > 2 {
		t.Errorf("NI/host overhead ratio = %.2f, want < 2", ni/host)
	}
}

func TestTable4Shape(t *testing.T) {
	res := RunTable4()
	var ufs, vxfs, two, three float64
	for _, r := range res.Rows {
		switch {
		case strings.Contains(r.Name, "(ufs)"):
			ufs = r.Measured
		case strings.Contains(r.Name, "VxWorks fs"):
			vxfs = r.Measured
		case strings.HasPrefix(r.Name, "II:"):
			two = r.Measured
		case strings.HasPrefix(r.Name, "III:"):
			three = r.Measured
		}
	}
	within(t, "Expt I ufs", ufs, 1.0, 0.30)
	within(t, "Expt I VxWorks fs", vxfs, 8.0, 0.20)
	within(t, "Expt II", two, 5.4, 0.10)
	within(t, "Expt III", three, 5.415, 0.10)
	// Orderings the paper's analysis rests on.
	if !(ufs < two && two < vxfs) {
		t.Errorf("ordering violated: ufs=%.2f II=%.2f vxfs=%.2f", ufs, two, vxfs)
	}
	// III − II is the ~15 µs PCI hop.
	delta := (three - two) * 1000 // µs
	if delta < 10 || delta > 40 {
		t.Errorf("III−II = %.1f µs, want ≈15–20", delta)
	}
}

func TestTable5Shape(t *testing.T) {
	res := RunTable5()
	for _, r := range res.Rows {
		if r.Paper == 0 {
			continue
		}
		within(t, r.Name, r.Measured, r.Paper, 0.05)
	}
}

// figureDur keeps the figure tests fast while preserving two full load-
// modulation cycles.
const figureDur = FigureDuration

func TestHostFiguresShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure runs are slow")
	}
	h := RunHostFigures(figureDur)

	// Figure 6: utilization levels.
	within(t, "no-load mean util", h.Runs[0].Util.Mean(), 15, 0.35)
	within(t, "45% mean util", h.Runs[45].Util.Mean(), 45, 0.15)
	within(t, "60% mean util", h.Runs[60].Util.Mean(), 60, 0.15)
	if h.Runs[60].Util.Max() < 80 {
		t.Errorf("60%% run peak util = %.1f, want bursts above 80", h.Runs[60].Util.Max())
	}

	// Figure 7: bandwidth degradation, per stream.
	from, to := PeakWindow(figureDur)
	noLoad := h.Runs[0].SettleBW("s1", figureDur)
	at45 := h.Runs[45].SettleBWWindow("s1", from, to)
	at60 := h.Runs[60].SettleBWWindow("s1", from, to)
	within(t, "no-load settling bw", noLoad, 256000, 0.10)
	if at45 < 0.75*noLoad || at45 >= noLoad {
		t.Errorf("45%% bw = %.0f, want mild degradation from %.0f", at45, noLoad)
	}
	if at60 > 0.65*noLoad {
		t.Errorf("60%% bw = %.0f, want severe degradation from %.0f", at60, noLoad)
	}
	if !(at60 < at45 && at45 < noLoad) {
		t.Errorf("bw must degrade monotonically: %.0f, %.0f, %.0f", noLoad, at45, at60)
	}

	// Drops drive the degradation.
	if h.Runs[0].Dropped != 0 {
		t.Errorf("no-load run dropped %d frames", h.Runs[0].Dropped)
	}
	if h.Runs[60].Dropped <= h.Runs[45].Dropped || h.Runs[45].Dropped == 0 {
		t.Errorf("drops must grow with load: %d vs %d", h.Runs[45].Dropped, h.Runs[60].Dropped)
	}

	// Figure 8: queuing delay grows with load.
	d0 := h.Runs[0].QDelay["s1"].Max()
	d45 := h.Runs[45].QDelay["s1"].Max()
	d60 := h.Runs[60].QDelay["s1"].Max()
	within(t, "no-load max qdelay (ms)", d0.Milliseconds(), 10000, 0.15)
	if d45 < d0 {
		t.Errorf("45%% delay %v below no-load %v", d45, d0)
	}
	if float64(d60) < 1.5*float64(d0) {
		t.Errorf("60%% delay %v, want ≥1.5× no-load %v", d60, d0)
	}
}

func TestNIFiguresImmunity(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure runs are slow")
	}
	dur := 30 * sim.Second
	f := RunNIFigures(dur)

	// Figure 9: settling bandwidth ≈260 kbps, identical with and without
	// 60% host load.
	bw0 := f.NoLoad.SettleBW("s1", dur)
	bw60 := f.Loaded60.SettleBW("s1", dur)
	within(t, "NI settling bw", bw0, 256000, 0.10)
	if math.Abs(bw60-bw0) > 0.01*bw0 {
		t.Errorf("NI bandwidth moved under host load: %.0f vs %.0f", bw60, bw0)
	}
	if f.Loaded60.Dropped != 0 {
		t.Errorf("NI scheduler dropped %d frames under host load", f.Loaded60.Dropped)
	}

	// Figure 10: queuing delay ≈10–11 s, unchanged under load.
	d0 := f.NoLoad.QDelay["s1"].Max()
	d60 := f.Loaded60.QDelay["s1"].Max()
	within(t, "NI max qdelay (ms)", d0.Milliseconds(), 11000, 0.15)
	reldev := math.Abs(float64(d60-d0)) / float64(d0)
	if reldev > 0.02 {
		t.Errorf("NI delay moved under load: %v vs %v", d60, d0)
	}
}

func TestNISameSegmentAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure runs are slow")
	}
	// Placing the web NI's DMA traffic on the scheduler's bus segment (the
	// configuration the paper's Figure 5 avoids) must not help, and the
	// separated configuration must be at least as good. The load × segment
	// cells, (0, sep), (0, same), (60, sep), (60, same), fan out across the
	// worker pool.
	dur := 20 * sim.Second
	loads := []float64{0, 60}
	var cells []func() *StreamCurves
	for _, load := range loads {
		for _, same := range []bool{false, true} {
			cells = append(cells, func() *StreamCurves { return RunNILoad(load, dur, same) })
		}
	}
	runs := Collect(cells)
	for i, load := range loads {
		sep, same := runs[2*i], runs[2*i+1]
		if same.SettleBW("s1", dur) > sep.SettleBW("s1", dur)*1.01 {
			t.Errorf("load %.0f%%: same-segment run outperformed separated run: %.0f vs %.0f",
				load, same.SettleBW("s1", dur), sep.SettleBW("s1", dur))
		}
	}
	// The fanned-out separated 60% cell must agree with the direct run —
	// the fan-out must not perturb per-run determinism.
	direct := RunNILoad(60, dur, false)
	if got, want := runs[2].Sent, direct.Sent; got != want {
		t.Errorf("parallel cell diverged from direct run: sent %d vs %d", got, want)
	}
}

func TestFigureRunsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	a := RunHostLoad(45, 20*sim.Second)
	b := RunHostLoad(45, 20*sim.Second)
	if a.Sent != b.Sent || a.Dropped != b.Dropped {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d", a.Sent, a.Dropped, b.Sent, b.Dropped)
	}
}

func TestStreamScalingShape(t *testing.T) {
	points, res := RunStreamScaling([]int{4, 32, 128})
	if len(points) != 12 || len(res.Rows) != 12 { // 3 counts × 4 selectors
		t.Fatalf("points = %d", len(points))
	}
	get := func(sel string, n int) ScalingPoint {
		for _, p := range points {
			if p.Selector.String() == sel && p.Streams == n {
				return p
			}
		}
		t.Fatalf("missing point %s/%d", sel, n)
		return ScalingPoint{}
	}
	// The scan grows roughly linearly with the stream count...
	scanRatio := get("scan", 128).MicrosPerDec / get("scan", 4).MicrosPerDec
	if scanRatio < 3 {
		t.Errorf("scan 128/4 cost ratio = %.1f, expected clear growth", scanRatio)
	}
	// ...while the heap stays much flatter and wins at scale.
	heapRatio := get("heaps", 128).MicrosPerDec / get("heaps", 4).MicrosPerDec
	if heapRatio > scanRatio/2 {
		t.Errorf("heap ratio %.1f not clearly flatter than scan %.1f", heapRatio, scanRatio)
	}
	if get("heaps", 128).MicrosPerDec >= get("scan", 128).MicrosPerDec {
		t.Error("heaps should beat scan at 128 streams")
	}
	// At the paper's own scale (4 streams) all four representations are
	// comparable — which is why the embedded code uses the scan.
	base := get("scan", 4).MicrosPerDec
	for _, sel := range []string{"heaps", "sortedList", "calendar"} {
		v := get(sel, 4).MicrosPerDec
		if v > 1.5*base || v < base/2 {
			t.Errorf("at 4 streams %s (%.1f) should be comparable to scan (%.1f)", sel, v, base)
		}
	}
	// The sorted list's O(1) best keeps it competitive throughout.
	if get("sortedList", 128).MicrosPerDec > get("scan", 128).MicrosPerDec {
		t.Error("sorted list should beat the scan at 128 streams")
	}
}

func TestJitterComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	h := RunHostFigures(figureDur)
	n := RunNIFigures(30 * sim.Second)
	res := JitterComparison(h, n)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	host0 := h.Runs[0].Jitter["s1"]
	host60 := h.Runs[60].Jitter["s1"]
	ni0 := n.NoLoad.Jitter["s1"]
	ni60 := n.Loaded60.Jitter["s1"]
	// Host jitter grows with load (§4.2.3).
	if float64(host60) < 1.5*float64(host0) {
		t.Errorf("host jitter did not grow with load: %v → %v", host0, host60)
	}
	// NI jitter is unchanged by host load and below the loaded host's.
	if ni60 != ni0 {
		t.Errorf("NI jitter moved under load: %v vs %v", ni0, ni60)
	}
	if ni60 >= host60 {
		t.Errorf("NI jitter (%v) should undercut loaded host jitter (%v)", ni60, host60)
	}
}
