package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// measureDaemonWorkload is the run of one real-daemon workload: the daemon
// is a child process, the bench its receiver (or, for the churn soak, only
// the reader of its summary line and rusage).
func measureDaemonWorkload(m *measured, o options, tr *tracer) error {
	bin, buildTook, err := buildDaemon(filepath.Join(o.out, "bin"))
	if err != nil {
		return err
	}
	m.note("daemon_build_s", "%.2f", buildTook.Seconds())
	dur := time.Duration(o.seconds * float64(time.Second))
	switch o.workload {
	case "dwcsd_paced":
		return measureSender(m, o, bin, scaled(pacedStreams, o.scale, 2), dur, tr)
	case "dwcsd_burst":
		return measureSender(m, o, bin, scaled(burstStreams, o.scale, 4), dur, tr)
	case "dwcsd_churn":
		return measureSoak(m, o, bin, scaled(churnSessions, o.scale, 8), dur, tr)
	}
	return fmt.Errorf("no daemon workload %q", o.workload)
}

// daemonEndToEnd fills the end-to-end metrics of a daemon run: frames is
// what arrived, offered what the open-loop schedule was due to send.
func daemonEndToEnd(m *measured, u childUsage, dur time.Duration, frames, offered int64, setups []float64) {
	m.set("setup_s", median(setups))
	m.set("work_per_s", float64(frames)/dur.Seconds())
	m.set("cpu_us_per_unit", inUs(u.cpu.total())/float64(frames))
	m.set("peak_rss_mb", u.rssMB)
	m.set("delivered_share", float64(frames)/float64(offered))
	m.note("setup_samples", "%d", len(setups))
	m.note("frames_offered", "%d", offered)
	m.note("frames_delivered", "%d", frames)
}

func measureSender(m *measured, o options, bin string, streams int, dur time.Duration, tr *tracer) error {
	// Set-up is exec → first intact frame at the receiver. Short runs give
	// several samples; the measured run adds one more.
	var setups []float64
	for i := 0; i < o.setupRuns(); i++ {
		probe, err := runSender(bin, streams, setupProbeDur, false)
		if err != nil {
			return err
		}
		if probe.intact == 0 {
			return fmt.Errorf("set-up probe received no frame in %v", setupProbeDur)
		}
		setups = append(setups, probe.first.Seconds())
	}
	// The traced pass splits the measuring time: half without the scraper,
	// for the tracing overhead, half with it.
	var plain *senderRun
	var err error
	if tr != nil {
		dur /= 2
		if plain, err = runSender(bin, streams, dur, false); err != nil {
			return err
		}
	}
	var run *senderRun
	tr.do("dwcsd.run", func() { run, err = runSender(bin, streams, dur, tr != nil) })
	if err != nil {
		return err
	}
	if run.intact == 0 || (plain != nil && plain.intact == 0) {
		return fmt.Errorf("the daemon delivered no intact frame")
	}
	daemonEndToEnd(m, run.childUsage, run.dur, run.intact, run.offered(), append(setups, run.first.Seconds()))
	// An operation is a frame the daemon put on the wire; it fails when it
	// does not arrive whole and byte-exact. Deadline drops are the
	// scheduler's designed answer past the knee and show in delivered_share.
	m.attempted += run.sent
	m.failed += run.sent - run.intact
	m.note("unit", "intact frames reassembled")
	m.note("frames_sent", "%d", run.sent)
	m.note("frames_corrupt", "%d", run.corrupt)
	m.note("sched_drops", "%d", run.drops)
	m.note("so_rcvbuf", "%d", run.rcvBuf)
	if tr != nil {
		return tracedSender(m, o, bin, plain, run, tr)
	}
	return nil
}

func measureSoak(m *measured, o options, bin string, sessions int, dur time.Duration, tr *tracer) error {
	// The soak shares no clock with the bench, so set-up is the child's
	// wall time beyond -dur: start-up plus wind-down.
	var setups []float64
	for i := 0; i < o.setupRuns()-1; i++ {
		probe, err := runSoak(bin, sessions, 2*setupProbeDur, false)
		if err != nil {
			return err
		}
		setups = append(setups, (probe.wall - probe.dur).Seconds())
	}
	var plain *soakRun
	var err error
	if tr != nil {
		dur /= 2
		if plain, err = runSoak(bin, sessions, dur, false); err != nil {
			return err
		}
	}
	var run *soakRun
	tr.do("dwcsd.run", func() { run, err = runSoak(bin, sessions, dur, tr != nil) })
	if err != nil {
		return err
	}
	setups = append(setups, (run.wall - run.dur).Seconds())
	recv := run.sum["frames_recv"]
	if recv == 0 || (plain != nil && plain.sum["frames_recv"] == 0) {
		return fmt.Errorf("the soak delivered no frame")
	}
	daemonEndToEnd(m, run.childUsage, run.dur, int64(recv), run.offered(), setups)
	// The soak's frames never leave the daemon, so the bench cannot check
	// their bytes; it checks the daemon's own ledger instead. Frames the
	// soak's in-process receiver loses (its socket has the default buffer)
	// are the daemon's loss and show in delivered_share.
	m.check(recv <= run.sum["frames_sent"], "soak received more frames than it sent")
	m.check(run.sum["setups"] >= float64(sessions), "soak set up fewer sessions than its target")
	m.note("unit", "frames received by the soak's client sessions")
	m.note("frames_sent", "%.0f", run.sum["frames_sent"])
	m.note("sched_drops", "%.0f", run.sum["drops"])
	m.note("setups", "%.0f", run.sum["setups"])
	m.note("teardowns", "%.0f", run.sum["teardowns"])
	if tr != nil {
		return tracedSoak(m, o, bin, plain, run, tr)
	}
	return nil
}
