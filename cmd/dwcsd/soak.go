// Soak mode: many in-process UDP client sessions against one DWCS-paced
// sender, in one process so sender and receiver share a clock — which makes
// the full causal span vocabulary (queue → tx → wire) measurable on real
// sockets, not just in the simulator. Session arrival, churn, and frame
// sizing come from a fixed-seed plan, so two soak runs of the same shape
// are comparable (wall-clock noise aside — that is what tracetool's
// conformance mode tolerates).
package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sort"
	"time"

	"repro/internal/blackbox"
	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// soakConfig shapes one soak run.
type soakConfig struct {
	Sessions int           // target concurrent sessions
	Period   time.Duration // per-session frame period
	Dur      time.Duration // run duration
	Flash    bool          // flash crowd: all setups inside the first 100ms
	Churn    float64       // fraction of sessions torn down and replaced mid-run
	Throttle time.Duration // injected stall per dispatch (gate validation)
	Metrics  string        // Prometheus listen address, "" disables
	Dir      string        // artifact directory, "" disables
	Drain    time.Duration // graceful-shutdown drain bound
}

// goodputBucketsKbps are the fixed bounds of the per-session goodput
// histogram (kbps at session teardown).
var goodputBucketsKbps = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// soakSession is one client session's ledger. All fields are guarded by the
// obs lock: the pacing loop and the receive goroutine both touch them.
type soakSession struct {
	id      int
	setupAt sim.Time // planned arrival
	tearAt  sim.Time // planned churn teardown; 0 = lives to end of run

	started, ended     bool
	startedAt, endedAt sim.Time

	framesSent, framesRecv, bytesRecv int64
	lastRecv                          sim.Time
	seenRecv                          bool
}

// soakPlanEvent is one arrival or departure in the fixed-seed plan.
type soakPlanEvent struct {
	at    sim.Time
	setup bool
	sess  *soakSession
}

// soakPlan lays out session arrivals and churn from a fixed seed. Arrivals
// land inside the first 100ms under flash (thousands of setups hammering
// AddStream at once) or staggered across the first half of the run
// otherwise; churn victims are torn down mid-run and replaced immediately
// with fresh session IDs, so the target concurrency holds while setup and
// teardown paths stay continuously exercised.
func soakPlan(cfg soakConfig) ([]*soakSession, []soakPlanEvent) {
	rng := rand.New(rand.NewSource(1))
	dur := sim.Time(cfg.Dur)
	arriveWindow := dur / 2
	if cfg.Flash {
		arriveWindow = 100 * sim.Millisecond
		if arriveWindow > dur/4 {
			arriveWindow = dur / 4
		}
	}
	var sessions []*soakSession
	var events []soakPlanEvent
	for i := 0; i < cfg.Sessions; i++ {
		s := &soakSession{id: i, setupAt: sim.Time(rng.Int63n(int64(arriveWindow) + 1))}
		sessions = append(sessions, s)
		events = append(events, soakPlanEvent{at: s.setupAt, setup: true, sess: s})
	}
	churnN := int(cfg.Churn * float64(cfg.Sessions))
	for _, i := range rng.Perm(cfg.Sessions)[:churnN] {
		victim := sessions[i]
		tear := dur/4 + sim.Time(rng.Int63n(int64(dur/2)+1))
		if tear <= victim.setupAt {
			continue // arrived too late to churn meaningfully
		}
		victim.tearAt = tear
		events = append(events, soakPlanEvent{at: tear, setup: false, sess: victim})
		repl := &soakSession{id: len(sessions), setupAt: tear}
		sessions = append(sessions, repl)
		events = append(events, soakPlanEvent{at: tear, setup: true, sess: repl})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	return sessions, events
}

// stallWriter sleeps before every datagram: the injected regression the
// soak gate must catch.
type stallWriter struct {
	w     io.Writer
	stall time.Duration
}

func (s stallWriter) Write(b []byte) (int, error) {
	time.Sleep(s.stall)
	return s.w.Write(b)
}

// quantile returns the q-th quantile of xs (sorted in place); 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q * float64(len(xs)-1))
	return xs[i]
}

// soakRun drives one soak: a loopback receiver goroutine, a DWCS pacing
// loop over every active session, plan-driven setup/teardown churn, and the
// full observability bundle. The summary line it prints is the contract the
// SOAK_BASELINE.txt gate in bench_compare.sh and bench/ parse.
func soakRun(cfg soakConfig, lc *lifecycle, out io.Writer) (err error) {
	if cfg.Sessions <= 0 {
		return fmt.Errorf("soak: need at least one session")
	}
	if cfg.Churn < 0 || cfg.Churn > 1 {
		return fmt.Errorf("soak: churn %v outside [0,1]", cfg.Churn)
	}
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer pc.Close()
	// The client side is this harness, not the daemon under test: give its
	// socket room for a whole burst, so a run whose session phases have
	// collapsed together (they do after a host stall — every emptied stream
	// restarts its deadlines from the same instant) loses nothing here. A
	// kernel that grants less just leaves the default behaviour.
	_ = pc.SetReadBuffer(4 << 20)
	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		return err
	}
	defer conn.Close()

	o := newObs("dwcsd-soak", cfg.Dir)
	defer func() {
		if err != nil {
			o.trigger("abnormal exit: " + err.Error())
		}
		if werr := o.writeArtifacts(); werr != nil && err == nil {
			err = werr
		}
	}()

	sentN := o.reg.Counter("soak", "frames_sent_total", "frames paced onto the loopback wire")
	recvN := o.reg.Counter("soak", "frames_received_total", "frames reassembled by the client sessions")
	dropN := o.reg.Counter("soak", "drops_total", "frames dropped by the scheduler (deadline passed)")
	setupN := o.reg.Counter("soak", "sessions_setup_total", "client sessions set up")
	tearN := o.reg.Counter("soak", "sessions_teardown_total", "client sessions torn down by churn")
	goodputH := o.reg.HistogramMetric("soak", "session_goodput_kbps",
		"per-session goodput at teardown", goodputBucketsKbps)
	jitterH := o.reg.HistogramMetric("soak", "jitter_ms",
		"per-frame deviation from the nominal inter-arrival period", telemetry.JitterBucketsMs)
	active := 0
	o.reg.GaugeFunc("soak", "sessions_active",
		"sessions currently streaming", func() float64 { return float64(active) })
	if cfg.Metrics != "" {
		bound, stop, err := serveMetrics(cfg.Metrics, o.render)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "dwcsd: metrics on http://%s/metrics\n", bound)
	}

	period := sim.Time(cfg.Period)
	var w io.Writer = conn
	if cfg.Throttle > 0 {
		w = stallWriter{conn, cfg.Throttle}
	}
	p := newPacer(o.clk, w, lc.stop, o, period)
	sched := p.sched

	sessions, plan := soakPlan(cfg)
	byStream := make(map[int]*soakSession, len(sessions))
	// wire pairs each frame's dispatch with its arrival to close the wire
	// span. The receive goroutine can see a frame before the pacer's batch
	// says it was sent, so whichever side comes first leaves a mark and the
	// other closes the span. Lost frames leak entries; the cap bounds that
	// at a few MB even on a pathological run.
	type wireMark struct {
		at      sim.Time
		arrived bool // left by the receive side; else by the sender
	}
	wire := make(map[uint64]wireMark)
	const wireCap = 1 << 17
	// wireSpan runs under o.mu on both sides.
	wireSpan := func(stream int, seq int64, at sim.Time, arrived bool) {
		k := uint64(uint32(stream))<<32 | uint64(uint32(seq))
		m, ok := wire[k]
		switch {
		case ok && m.arrived != arrived:
			delete(wire, k)
			sent, recvd := m.at, at
			if m.arrived {
				sent, recvd = at, m.at
			}
			o.reg.Span(stream, seq, telemetry.StageWire, o.where, sent, max(sent, recvd))
		case !ok && len(wire) < wireCap:
			wire[k] = wireMark{at: at, arrived: arrived}
		}
	}

	// Frame payload: synthetic bytes, sized 256..640 by sequence so every
	// frame fits one datagram and the wire sees some size diversity.
	p.payload = make([]byte, 1024)
	rand.New(rand.NewSource(2)).Read(p.payload)
	p.frame = func(n int64) (bytes, offset int64) { return 256 + (n%4)*128, 0 }

	var jitterSamples, goodputSamples []float64
	// endSession finalizes a session's goodput sample. Caller holds o.mu.
	endSession := func(s *soakSession, at sim.Time) {
		if !s.started || s.ended {
			return
		}
		s.ended, s.endedAt = true, at
		active--
		life := at - s.startedAt
		// Sessions that lived under a few periods have no meaningful rate.
		if life < 4*period {
			return
		}
		kbps := float64(s.bytesRecv*8) / life.Seconds() / 1000
		goodputH.Observe(kbps)
		goodputSamples = append(goodputSamples, kbps)
	}

	reasm := proto.NewReassembler(func(streamID, seq uint32, frame []byte) {
		// Runs under o.mu via the receive goroutine's o.locked below.
		s := byStream[int(streamID)]
		if s == nil {
			return
		}
		at := o.now()
		wireSpan(int(streamID), int64(seq), at, true)
		if s.seenRecv {
			gap := (at - s.lastRecv).Milliseconds() - period.Milliseconds()
			if gap < 0 {
				gap = -gap
			}
			jitterH.Observe(gap)
			jitterSamples = append(jitterSamples, gap)
		}
		s.lastRecv, s.seenRecv = at, true
		s.framesRecv++
		s.bytesRecv += int64(len(frame))
		recvN.Inc()
	})

	// Receive goroutine: one loopback socket serves every session.
	recvDone := make(chan struct{})
	recvStopped := make(chan struct{})
	go func() {
		defer close(recvStopped)
		buf := make([]byte, 64<<10)
		for {
			select {
			case <-recvDone:
				return
			default:
			}
			// One deadline per poll, not per datagram: the reads below run
			// until it expires, then the stop check above runs again.
			pc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			for {
				n, err := pc.Read(buf)
				if err != nil {
					if ne, ok := err.(net.Error); ok && ne.Timeout() {
						break
					}
					return
				}
				o.locked(func() { _ = reasm.Ingest(buf[:n]) })
			}
		}
	}()
	defer func() {
		close(recvDone)
		<-recvStopped
	}()

	// setup/teardown run under o.mu: they touch the monitor, the recorder,
	// and the session table.
	setup := func(s *soakSession, at sim.Time) error {
		spec := dwcs.StreamSpec{
			ID:     s.id,
			Name:   fmt.Sprintf("s%d", s.id),
			Period: period,
			Loss:   fixed.New(1, 2),
			Lossy:  true,
			BufCap: 16,
		}
		if err := sched.AddStream(spec); err != nil {
			return err
		}
		s.started, s.startedAt = true, at
		byStream[s.id] = s
		p.addSource(s.id, at)
		active++
		setupN.Inc()
		o.rec.Record(blackbox.Event{At: at, Kind: blackbox.KindMigrate,
			Stream: s.id, Note: "setup"})
		// Track under the already-held lock (o.track would deadlock here).
		o.mon.TrackStream(spec, 4*period, sched)
		return nil
	}
	teardown := func(s *soakSession, at sim.Time) {
		if !s.started || s.ended {
			return
		}
		p.removeSource(s.id)
		if err := sched.RemoveStream(s.id); err == nil {
			tearN.Inc()
			o.rec.Record(blackbox.Event{At: at, Kind: blackbox.KindMigrate,
				Stream: s.id, Note: "teardown"})
		}
		endSession(s, at)
	}

	p.account = func(e *paceEvent) {
		switch e.kind {
		case paceSent:
			wireSpan(e.stream, e.seq, e.at, false)
			if s := byStream[e.stream]; s != nil {
				s.framesSent++
			}
			sentN.Inc()
			if e.seq%64 == 0 { // sampled: full decision volume would just churn the ring
				o.rec.Record(blackbox.Event{At: e.at, Kind: blackbox.KindDecision,
					Stream: e.stream, Seq: e.seq, A: e.bytes})
			}
		case paceDropped:
			dropN.Inc()
		}
	}

	// The plan's arrivals and departures are the pacer's control actions.
	planNext := 0
	p.controlDue = 0
	p.control = func(at sim.Time) (sim.Time, error) {
		for planNext < len(plan) && plan[planNext].at <= at {
			ev := plan[planNext]
			planNext++
			if !ev.setup {
				teardown(ev.sess, at)
			} else if err := setup(ev.sess, at); err != nil {
				return never, err
			}
		}
		if planNext == len(plan) {
			return never, nil
		}
		return plan[planNext].at, nil
	}

	if err := p.run(sim.Time(cfg.Dur)); err != nil {
		return err
	}
	interrupted := lc.stopped()
	if interrupted {
		// Same drain contract as plain serve mode: no new injections, queued
		// frames go out on their pacing, bounded by the drain deadline.
		o.trigger("interrupted")
		drained, err := p.drain(cfg.Drain)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "dwcsd: interrupted; drained %d queued frame(s)\n", drained)
	}

	// Give the last datagrams a beat to cross the loopback, then finalize
	// every still-active session's goodput sample.
	time.Sleep(150 * time.Millisecond)
	var summary string
	o.locked(func() {
		at := o.now()
		for _, s := range sessions {
			endSession(s, at)
		}
		gp50, gp95 := quantile(goodputSamples, 0.50), quantile(goodputSamples, 0.95)
		jp50, jp95 := quantile(jitterSamples, 0.50), quantile(jitterSamples, 0.95)
		sent, recvd, drops := sentN.Value(), recvN.Value(), dropN.Value()
		ratio := 0.0
		if sent+drops > 0 {
			ratio = float64(drops) / float64(sent+drops)
		}
		summary = fmt.Sprintf("soak summary: target=%d setups=%d teardowns=%d frames_sent=%d frames_recv=%d drops=%d drop_ratio=%.4f goodput_kbps_p50=%.1f goodput_kbps_p95=%.1f jitter_ms_p50=%.2f jitter_ms_p95=%.2f",
			cfg.Sessions, setupN.Value(), tearN.Value(), sent, recvd, drops, ratio,
			gp50, gp95, jp50, jp95)
	})
	fmt.Fprintln(out, summary)
	if interrupted {
		fmt.Fprintln(out, "dwcsd: soak interrupted; partial run reported")
	}
	return nil
}
