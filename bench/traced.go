package main

import (
	"path/filepath"
	"strings"
	"time"
)

// Shapes of the short daemon runs a traced pass adds when the traced
// workload itself cannot give a dwcsd.* metric: the receiver-side figures
// need the bench's socket (a sender run at the paced shape), the soak
// figures need a soak.
const (
	probeSenderDur = 2 * time.Second
	probeSoakDur   = time.Second
	probeSoakSize  = 100
)

// probeDur shrinks a probe run for the smoke test, down to a floor that
// still delivers frames.
func probeDur(d time.Duration, o options) time.Duration {
	return max(d/time.Duration(o.scale), 2*setupProbeDur)
}

// tracedCommon is the part of a traced run that is the same for every
// workload: the layer probes and the experiment figures (repro_eval reads
// those off its own spans). It runs before the workload, while the process
// is fresh: the simulator keeps memory per run it has made, and the probes
// that allocate would otherwise cost more after some workloads than others.
func tracedCommon(m *measured, env environment, o options, tr *tracer) error {
	if o.workload != "repro_eval" {
		// Three regenerations in a scratch tracer (one in the smoke test);
		// the medians of their spans are the figures.
		scratch := newTracer(o.workload)
		tr.do("probe.experiments", func() {
			for i := 0; i < max(3/o.scale, 1); i++ {
				reproEval(scratch)
			}
		})
		experimentsMs(m, scratch)
	}
	p := &prober{m: m, tr: tr, env: env, scale: o.scale, outDir: o.out}
	return p.all()
}

// experimentsMs sets experiments.<run>_ms to the median self time of that
// run's spans. Their sum accounts for one regeneration's wall time.
func experimentsMs(m *measured, tr *tracer) {
	byName := map[string][]float64{}
	for i, ns := range tr.self() {
		if name := tr.spans[i].Name; strings.HasPrefix(name, "experiments.") {
			byName[name] = append(byName[name], float64(ns)/1e6)
		}
	}
	var sum float64
	for name, vs := range byName {
		m.set(name+"_ms", median(vs))
		sum += median(vs)
	}
	m.note("experiments_ms_sum", "%.3f", sum)
}

// tracedSim finishes the traced pass of a simulator workload. reps holds
// traced and untraced repetitions in alternation.
func tracedSim(m *measured, o options, reps []repSample, tr *tracer) error {
	var on, off []float64
	for i, r := range reps {
		if i%2 == 0 {
			on = append(on, r.wall.Seconds())
		} else {
			off = append(off, r.wall.Seconds())
		}
	}
	overhead := 0.0
	if len(off) > 0 {
		overhead = 100 * (median(on)/median(off) - 1)
	}
	m.set("bench.trace_overhead_pct", overhead)
	if o.workload == "repro_eval" {
		experimentsMs(m, tr)
	}
	bin, _, err := buildDaemon(filepath.Join(o.out, "bin"))
	if err != nil {
		return err
	}
	sender, err := probeSender(m, o, bin, tr)
	if err != nil {
		return err
	}
	if err := probeSoak(m, o, bin, tr); err != nil {
		return err
	}
	scratch := newTracer(o.workload)
	return replayMetrics(m, replayShape{streams: sender.streams, frames: sender.intact}, sender.cpu, sender.intact, scratch)
}

// probeSender runs the daemon briefly at the paced shape with the scraper
// on and fills in the dwcsd.* metrics a receiver can see.
func probeSender(m *measured, o options, bin string, tr *tracer) (*senderRun, error) {
	var run *senderRun
	var err error
	tr.do("probe.dwcsd_sender", func() { run, err = runSender(bin, pacedStreams, probeDur(probeSenderDur, o), true) })
	if err != nil {
		return nil, err
	}
	processLayers(m, run.childUsage, run.dur, run.intact)
	receiverLayers(m, run)
	return run, nil
}

func probeSoak(m *measured, o options, bin string, tr *tracer) error {
	var run *soakRun
	var err error
	tr.do("probe.dwcsd_soak", func() { run, err = runSoak(bin, probeSoakSize, probeDur(probeSoakDur, o), true) })
	if err != nil {
		return err
	}
	soakLayers(m, run)
	return nil
}

// processLayers are the figures the kernel's accounting of the daemon
// process gives, per frame delivered.
func processLayers(m *measured, u childUsage, dur time.Duration, frames int64) {
	n := float64(frames)
	m.set("dwcsd.user_us_per_frame", inUs(u.cpu.user)/n)
	m.set("dwcsd.sys_us_per_frame", inUs(u.cpu.sys)/n)
	m.set("dwcsd.wakeups_per_frame", float64(u.volCtx)/n)
	m.set("dwcsd.invol_ctxsw_per_s", float64(u.involCt)/dur.Seconds())
	m.set("dwcsd.exit_overrun_ms", inMs(u.wall-dur))
}

// receiverLayers are the figures only the bench's socket can give.
func receiverLayers(m *measured, run *senderRun) {
	errs := sorted(paceErrors(run.arrivals, daemonPeriod))
	m.set("dwcsd.pace_err_ms_p50", quantile(errs, 0.5))
	m.set("dwcsd.pace_err_ms_p90", quantile(errs, 0.9))
	m.set("dwcsd.pace_err_ms_p99", quantile(errs, 0.99))
	m.set("dwcsd.pace_err_ms_max", errs[len(errs)-1])
	m.note("pace_err_samples", "%d", len(errs))
	m.note("pace_err_highest_percentile", "p%g", 100*highestPercentile(len(errs)))
	drains := sorted(burstDrains(run.arrivals))
	m.set("dwcsd.burst_drain_ms_p50", quantile(drains, 0.5))
	m.set("dwcsd.datagrams_per_frame", float64(run.datagrams)/float64(run.intact))
	m.set("dwcsd.sched_drops", float64(run.drops))
	m.set("dwcsd.first_frame_ms", inMs(run.first))
	scrape := 0.0
	if len(run.scrapeMs) > 0 {
		scrape = median(run.scrapeMs)
	}
	m.set("dwcsd.scrape_ms_p50", scrape)
	m.set("dwcsd.scrape_bytes", float64(run.scrapeLen))
	m.note("scrape_samples", "%d", len(run.scrapeMs))
}

func soakLayers(m *measured, run *soakRun) {
	m.set("dwcsd.soak_jitter_ms_p95", run.sum["jitter_ms_p95"])
	m.set("dwcsd.soak_setups_per_s", run.sum["setups"]/run.dur.Seconds())
}

// replayMetrics replays the daemon's data path for the frame count of a
// real run and splits that run's CPU per frame into the part the layers
// account for and the rest.
func replayMetrics(m *measured, shape replayShape, cpu cpuTime, frames int64, tr *tracer) error {
	replay, allocMB, err := layerReplay(shape, tr)
	if err != nil {
		return err
	}
	perFrame := inUs(cpu.total()) / float64(frames)
	m.set("dwcsd.replay_us_per_frame", replay)
	m.set("dwcsd.glue_us_per_frame", perFrame-replay)
	m.note("replay_cpu_us_per_frame", "%.3f", perFrame)
	if _, ok := m.vals["bench.alloc_mb"]; !ok {
		m.set("bench.alloc_mb", allocMB)
	}
	return nil
}

// tracedSender finishes the traced pass of dwcsd_paced or dwcsd_burst:
// plain is the half-length run without the scraper, run the one with it.
func tracedSender(m *measured, o options, bin string, plain, run *senderRun, tr *tracer) error {
	perFrame := func(r *senderRun) float64 { return inUs(r.cpu.total()) / float64(r.intact) }
	m.set("bench.trace_overhead_pct", 100*(perFrame(run)/perFrame(plain)-1))
	processLayers(m, run.childUsage, run.dur, run.intact)
	receiverLayers(m, run)
	if err := probeSoak(m, o, bin, tr); err != nil {
		return err
	}
	return replayMetrics(m, replayShape{streams: run.streams, frames: run.intact}, run.cpu, run.intact, tr)
}

// tracedSoak finishes the traced pass of dwcsd_churn.
func tracedSoak(m *measured, o options, bin string, plain, run *soakRun, tr *tracer) error {
	perFrame := func(r *soakRun) float64 { return inUs(r.cpu.total()) / r.sum["frames_recv"] }
	m.set("bench.trace_overhead_pct", 100*(perFrame(run)/perFrame(plain)-1))
	if _, err := probeSender(m, o, bin, tr); err != nil {
		return err
	}
	// The process figures are the soak's own; the sender probe above only
	// supplies what a receiver outside the daemon can see.
	frames := int64(run.sum["frames_recv"])
	processLayers(m, run.childUsage, run.dur, frames)
	m.set("dwcsd.sched_drops", run.sum["drops"])
	soakLayers(m, run)
	return replayMetrics(m, replayShape{streams: run.sessions, frames: frames, soak: true}, run.cpu, frames, tr)
}
