// The run: every mode is one session table with a send half, which paces
// the sessions with DWCS and sets them up and tears them down on a plan, and
// a receive half, which reassembles what lands on a UDP socket and books
// each frame to its session. In soak both halves share the process clock,
// so the span stages queue → tx → wire are all measured on real sockets.
// Whatever else differs by mode is data in the run config.
package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/blackbox"
	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/mpeg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// runConfig is one run. main sets the flags every mode shares; the mode
// methods below add what differs.
type runConfig struct {
	role      string // obs role: "dwcsd" (serve), "dwcsd-recv", "dwcsd-soak"
	plan      *plan  // the send half's sessions; nil = no send half
	dest      string // where the send half sends; "" = the receive half
	listen    string // the receive half's UDP address; "" = no receive half
	perStream bool   // export per-stream dwcsd_s<id> series
	sample    int64  // record one sent frame's decision in this many

	// payload holds the media bytes; frame sizes a session's n-th frame:
	// its length and offset in payload.
	payload []byte
	frame   func(n int64) (bytes, offset int64)

	period, dur, drain time.Duration
	throttle           time.Duration // stall before every datagram sent
	metrics, dir       string        // -metrics address, -artifacts directory
}

// serve: n sessions of the default clip, set up at t=0 and never torn
// down, sent to dest.
func (c runConfig) serve(dest string, n int) runConfig {
	clip := mpeg.GenerateDefault()
	c.role, c.dest, c.perStream, c.sample = "dwcsd", dest, true, 1
	c.plan = &plan{streams: n, sessions: n}
	for id := 0; id < n; id++ {
		c.plan.events = append(c.plan.events, planEvent{id: id, setup: true})
	}
	c.payload = mpeg.Encode(clip, 1960)
	c.frame = func(n int64) (bytes, offset int64) {
		f := clip.Frames[n%int64(len(clip.Frames))]
		return f.Size, f.Offset
	}
	return c
}

// soak: the fixed-seed churn plan over loopback to an in-process receive
// half. Frames are synthetic, sized 256..640 B by sequence so each fits one
// datagram; one decision in 64 is recorded, since the full volume would
// just churn the flight recorder's ring.
func (c runConfig) soak(sessions int, flash bool, churn float64, throttle time.Duration) (runConfig, error) {
	pl, err := soakPlan(sessions, c.dur, flash, churn)
	c.role, c.plan, c.listen, c.sample, c.throttle = "dwcsd-soak", pl, "127.0.0.1:0", 64, throttle
	c.payload = make([]byte, 1024)
	rand.New(rand.NewSource(2)).Read(c.payload)
	c.frame = func(n int64) (bytes, offset int64) { return 256 + (n%4)*128, 0 }
	return c, err
}

// recv: the receive half alone, on listen.
func (c runConfig) recv(listen string) runConfig {
	c.role, c.listen, c.perStream = "dwcsd-recv", listen, true
	return c
}

// plan is the send half's sessions over time: ids 0..sessions-1 and when
// each sets up and tears down.
type plan struct {
	streams  int // sessions held at once: the summaries' stream count
	sessions int
	events   []planEvent // in time order
}

type planEvent struct {
	at    sim.Time
	id    int
	setup bool // else teardown
}

// soakPlan lays out arrivals and churn from a fixed seed, so two soak runs
// of one shape are comparable. Arrivals land in the first 100ms under flash
// or across the first half of the run; churn victims are torn down mid-run
// and replaced at once by fresh IDs, so the target concurrency holds.
func soakPlan(sessions int, runFor time.Duration, flash bool, churn float64) (*plan, error) {
	if churn < 0 || churn > 1 {
		return nil, fmt.Errorf("soak: churn %v outside [0,1]", churn)
	}
	rng := rand.New(rand.NewSource(1))
	dur := sim.Time(runFor)
	arriveWindow := dur / 2
	if flash {
		arriveWindow = min(100*sim.Millisecond, dur/4)
	}
	pl := &plan{streams: sessions, sessions: sessions}
	for id := 0; id < sessions; id++ {
		pl.events = append(pl.events, planEvent{at: sim.Time(rng.Int63n(int64(arriveWindow) + 1)), id: id, setup: true})
	}
	for _, victim := range rng.Perm(sessions)[:int(churn*float64(sessions))] {
		tear := dur/4 + sim.Time(rng.Int63n(int64(dur/2)+1))
		if tear <= pl.events[victim].at {
			continue // arrived too late to churn meaningfully
		}
		pl.events = append(pl.events, planEvent{at: tear, id: victim}, planEvent{at: tear, id: pl.sessions, setup: true})
		pl.sessions++
	}
	sort.SliceStable(pl.events, func(i, j int) bool { return pl.events[i].at < pl.events[j].at })
	return pl, nil
}

// session is one stream's ledger, both halves; guarded by the obs lock.
type session struct {
	id             int
	started, ended bool
	startedAt      sim.Time
	bytesRecv      int64
	lastRecv       sim.Time
	seenRecv       bool
	tx             *senderStream // per-stream series, if the mode exports them
	rx             *recvStream
}

// arrive books a reassembled frame and returns the gap since the last, if any.
func (s *session) arrive(at sim.Time, frameBytes int) (gap sim.Time, ok bool) {
	gap, ok = at-s.lastRecv, s.seenRecv
	s.lastRecv, s.seenRecv = at, true
	s.bytesRecv += int64(frameBytes)
	if s.rx != nil {
		if ok {
			s.rx.gaps.Observe(gap.Milliseconds())
		}
		s.rx.frames.Inc()
		s.rx.bytes.Add(int64(frameBytes))
	}
	return gap, ok
}

// goodputBucketsKbps bound the per-session goodput histogram (kbps).
var goodputBucketsKbps = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// runState is a run in progress. Everything but the pacer's own state is
// guarded by the obs lock.
type runState struct {
	cfg runConfig
	o   *obs

	// sessions holds every session, the plan's first, so the send half
	// finds one by id; byWire indexes them by the IDs a sender put on the wire.
	sessions []*session
	byWire   map[uint32]*session
	active   int

	p                                *pacer // the send half
	next                             int    // its next plan event
	sent, dropped, setups, teardowns *telemetry.Counter

	reasm                                              *proto.Reassembler // the receive half
	playout                                            playoutStarts
	received, bytesIn, discarded, datagrams, malformed *telemetry.Counter
	lastDiscarded                                      int64
	// landed, once awaitLanded arms it, closes when received reaches
	// landedAt: every frame the send half sent has been booked.
	landed   chan struct{}
	landedAt int64

	// Both halves in one process: the session-scale distributions.
	wire                          wireSpans
	goodput, jitter               *telemetry.Histogram
	goodputSamples, jitterSamples []float64
}

// newRun registers the config's halves in o and, given a writer, builds
// the send half: a pacer on clk with the plan's t=0 sessions set up.
func newRun(cfg runConfig, o *obs, clk clock, w io.Writer, stop <-chan struct{}) (*runState, error) {
	r := &runState{cfg: cfg, o: o, byWire: map[uint32]*session{}}
	const c = "dwcsd"
	if cfg.listen != "" {
		r.received = o.reg.Counter(c, "frames_received_total", "complete frames delivered by the reassembler")
		r.bytesIn = o.reg.Counter(c, "bytes_received_total", "reassembled frame bytes")
		r.discarded = o.reg.Counter(c, "frames_discarded_total", "incomplete frames abandoned by the reassembler")
		r.datagrams = o.reg.Counter(c, "datagrams_total", "UDP datagrams ingested")
		r.malformed = o.reg.Counter(c, "datagrams_malformed_total", "datagrams the reassembler rejected")
		r.reasm = proto.NewReassembler(r.reassembled)
	}
	if w == nil {
		// Alone, the receive half times each frame's playout; beside a send
		// half, the wire span already runs from the write to reassembly.
		r.playout = make(playoutStarts)
		return r, nil
	}
	r.sent = o.reg.Counter(c, "frames_sent_total", "frames paced onto the wire by DWCS")
	r.dropped = o.reg.Counter(c, "frames_dropped_total", "frames dropped by the scheduler (deadline passed)")
	r.setups = o.reg.Counter(c, "sessions_setup_total", "sessions set up")
	r.teardowns = o.reg.Counter(c, "sessions_teardown_total", "sessions torn down before the end of the run")
	o.reg.GaugeFunc(c, "streams", "concurrent streams being paced", func() float64 { return float64(r.active) })
	if cfg.listen != "" {
		r.wire = wireSpans{}
		r.goodput = o.reg.HistogramMetric(c, "session_goodput_kbps", "per-session goodput at teardown", goodputBucketsKbps)
		r.jitter = o.reg.HistogramMetric(c, "jitter_ms",
			"per-frame deviation from the nominal inter-arrival period", telemetry.JitterBucketsMs)
	}
	for id := 0; id < cfg.plan.sessions; id++ {
		r.add(uint32(id))
	}
	r.p = newPacer(clk, w, stop, o, sim.Time(cfg.period))
	r.p.payload, r.p.frame, r.p.account, r.p.control = cfg.payload, cfg.frame, r.account, r.control
	return r, r.p.runControl(0)
}

// add puts a session in the table, with the per-stream series of the
// halves it runs through when the mode exports them.
func (r *runState) add(id uint32) *session {
	s := &session{id: int(id)}
	if r.cfg.perStream && r.cfg.plan != nil {
		s.tx = newSenderStream(r.o, s.id)
	}
	if r.cfg.perStream && r.cfg.listen != "" {
		s.rx = newRecvStream(r.o, id)
	}
	r.sessions = append(r.sessions, s)
	r.byWire[id] = s
	return s
}

// run drives one run: sockets, the obs bundle and its artifacts, /metrics,
// the halves, the bounded drain on interruption, and the report.
func run(cfg runConfig, lc *lifecycle, out io.Writer) (err error) {
	var in *net.UDPConn
	if cfg.listen != "" {
		pc, err := net.ListenPacket("udp", cfg.listen)
		if err != nil {
			return err
		}
		defer pc.Close()
		in = pc.(*net.UDPConn)
		// Room for a whole burst: soak's phases collapse together after a
		// host stall, and the harness must not count its own losses against
		// the daemon. A kernel that grants less leaves the default.
		_ = in.SetReadBuffer(4 << 20)
		if cfg.dest == "" {
			cfg.dest = in.LocalAddr().String()
		}
	}
	var w io.Writer
	if cfg.plan != nil {
		conn, err := net.Dial("udp", cfg.dest)
		if err != nil {
			return err
		}
		defer conn.Close()
		if w = conn; cfg.throttle > 0 {
			w = stallWriter{conn, cfg.throttle}
		}
	}
	o := newObs(cfg.role, cfg.dir)
	defer func() {
		if err != nil {
			o.trigger("abnormal exit: " + err.Error())
		}
		if werr := o.writeArtifacts(); werr != nil && err == nil {
			err = werr
		}
	}()
	r, err := newRun(cfg, o, o.clk, w, lc.stop)
	if err != nil {
		return err
	}
	if cfg.metrics != "" {
		bound, stop, err := serveMetrics(cfg.metrics, o.render)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "dwcsd: metrics on http://%s/metrics\n", bound)
	}
	stopRecv := func() error { return nil }
	if in != nil {
		stopRecv = r.startReceive(in)
		defer stopRecv()
	}

	if r.p != nil {
		err = r.p.run(sim.Time(cfg.dur))
	} else {
		o.clk.SleepUntil(sim.Time(cfg.dur), lc.stop)
	}
	if err != nil {
		return err
	}
	interrupted := lc.stopped()
	if interrupted {
		o.trigger("interrupted")
		if r.p == nil {
			fmt.Fprintln(out, "dwcsd: interrupted; reporting partial run")
		} else {
			// No new injections, but frames the scheduler already holds go
			// out on their DWCS pacing until the drain deadline.
			drained, err := r.p.drain(cfg.drain)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "dwcsd: interrupted; drained %d queued frame(s)\n", drained)
		}
	}
	if r.p != nil && in != nil {
		r.awaitLanded()
	}
	at := o.now()
	if err := stopRecv(); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	r.report(out, at, interrupted)
	return nil
}

// lostFrameBound is how long the end of a soak waits for frames still
// crossing the loopback: only a frame the kernel lost takes all of it.
const lostFrameBound = 150 * time.Millisecond

// awaitLanded returns once the receive half has booked as many frames as
// the send half sent, a count that is final once its loop has returned, or
// once lostFrameBound has passed.
func (r *runState) awaitLanded() {
	r.o.mu.Lock()
	r.landed, r.landedAt = make(chan struct{}), r.sent.Value()
	landed := r.landed
	r.checkLanded()
	r.o.mu.Unlock()
	select {
	case <-landed:
	case <-time.After(lostFrameBound):
	}
}

// checkLanded closes landed once its target is booked. Caller holds the
// obs lock.
func (r *runState) checkLanded() {
	if r.landed != nil && r.received.Value() >= r.landedAt {
		close(r.landed)
		r.landed = nil
	}
}

// report prints the run's summary: bench/ and bench_compare.sh parse the
// serve and soak lines. Caller holds the obs lock.
func (r *runState) report(out io.Writer, at sim.Time, interrupted bool) {
	switch {
	case r.p != nil && r.reasm != nil:
		for _, s := range r.sessions {
			r.end(s, at)
		}
		sent, drops := r.sent.Value(), r.dropped.Value()
		ratio := float64(drops) / float64(max(sent+drops, 1))
		fmt.Fprintf(out, "soak summary: target=%d setups=%d teardowns=%d frames_sent=%d frames_recv=%d drops=%d drop_ratio=%.4f goodput_kbps_p50=%.1f goodput_kbps_p95=%.1f jitter_ms_p50=%.2f jitter_ms_p95=%.2f\n",
			r.cfg.plan.streams, r.setups.Value(), r.teardowns.Value(), sent, r.received.Value(), drops, ratio,
			quantile(r.goodputSamples, 0.50), quantile(r.goodputSamples, 0.95),
			quantile(r.jitterSamples, 0.50), quantile(r.jitterSamples, 0.95))
		if interrupted {
			fmt.Fprintln(out, "dwcsd: soak interrupted; partial run reported")
		}
	case r.p != nil:
		fmt.Fprintf(out, "dwcsd: sent %d frames (%d dropped) on %d streams over %v\n",
			r.sent.Value(), r.dropped.Value(), r.cfg.plan.streams, r.cfg.dur)
	case len(r.sessions) == 0:
		fmt.Fprintln(out, "dwcsd: no frames received")
	default:
		// Rates are over what the run ran, so an interrupted one is honest.
		for _, s := range slices.SortedFunc(slices.Values(r.sessions), func(a, b *session) int { return a.id - b.id }) {
			fmt.Fprintf(out, "stream %d: %d frames, %d bytes, %.1f kbps, mean inter-arrival %.1fms\n",
				s.id, s.rx.frames.Value(), s.bytesRecv, float64(s.bytesRecv*8)/at.Seconds()/1000, s.rx.meanGapMs())
		}
		fmt.Fprintf(out, "total reassembled frames: %d (discarded %d)\n", r.reasm.Completed, r.reasm.Discarded)
	}
}

// quantile returns the q-th quantile of xs (sorted in place); 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[int(q*float64(len(xs)-1))]
}

// control is the pacer's control hook, the one place a stream joins or
// leaves the scheduler: the plan's events due at `at`, under the obs lock.
func (r *runState) control(at sim.Time) (sim.Time, error) {
	evs := r.cfg.plan.events
	for ; r.next < len(evs) && evs[r.next].at <= at; r.next++ {
		s := r.sessions[evs[r.next].id]
		if !evs[r.next].setup {
			r.teardown(s, at)
		} else if err := r.setup(s, at); err != nil {
			return never, err
		}
	}
	if r.next == len(evs) {
		return never, nil
	}
	return evs[r.next].at, nil
}

func (r *runState) setup(s *session, at sim.Time) error {
	p := r.p
	spec := dwcs.StreamSpec{ID: s.id, Name: fmt.Sprintf("s%d", s.id), Period: p.period,
		Loss: fixed.New(1, 2), Lossy: true, BufCap: 16}
	if err := p.sched.AddStream(spec); err != nil {
		return err
	}
	// The SLO's latency objective bounds queue wait at a small multiple of
	// the frame period — the same derivation sim cards use.
	r.o.mon.TrackStream(spec, 4*p.period, p.sched)
	p.addSource(s.id, at)
	s.started, s.startedAt = true, at
	r.active++
	r.setups.Inc()
	r.o.rec.Record(blackbox.Event{At: at, Kind: blackbox.KindMigrate, Stream: s.id, Note: "setup"})
	return nil
}

func (r *runState) teardown(s *session, at sim.Time) {
	if !s.started || s.ended {
		return
	}
	r.p.removeSource(s.id)
	if r.p.sched.RemoveStream(s.id) == nil {
		r.teardowns.Inc()
		r.o.rec.Record(blackbox.Event{At: at, Kind: blackbox.KindMigrate, Stream: s.id, Note: "teardown"})
	}
	r.end(s, at)
}

// end closes a session; with a receive half in the process, the goodput it
// saw over its life becomes a sample.
func (r *runState) end(s *session, at sim.Time) {
	if !s.started || s.ended {
		return
	}
	s.ended = true
	r.active--
	life := at - s.startedAt
	// Sessions that lived under a few periods have no meaningful rate.
	if r.goodput == nil || life < 4*r.p.period {
		return
	}
	kbps := float64(s.bytesRecv*8) / life.Seconds() / 1000
	r.goodput.Observe(kbps)
	r.goodputSamples = append(r.goodputSamples, kbps)
}

// account is the pacer's account hook: the run's counters for one flushed
// event, under the obs lock.
func (r *runState) account(e *paceEvent) {
	s := r.sessions[e.stream]
	switch e.kind {
	case paceSent:
		r.sent.Inc()
		if s.tx != nil {
			s.tx.sent.Inc()
			s.tx.bytes.Add(e.bytes)
		}
		if r.wire != nil {
			r.wire.mark(r.o, e.stream, e.seq, e.at, false)
		}
		if e.seq%r.cfg.sample == 0 {
			r.o.rec.Record(blackbox.Event{At: e.at, Kind: blackbox.KindDecision,
				Stream: e.stream, Seq: e.seq, A: e.bytes})
		}
	case paceDropped:
		r.dropped.Inc()
		if s.tx != nil {
			s.tx.drops.Inc()
		}
	}
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

// senderStream is a session's per-stream series on the send half.
type senderStream struct{ sent, bytes, drops *telemetry.Counter }

func newSenderStream(o *obs, id int) *senderStream {
	c := streamComponent(id)
	return &senderStream{
		sent:  o.reg.Counter(c, "frames_sent_total", "frames paced onto the wire by DWCS"),
		bytes: o.reg.Counter(c, "bytes_sent_total", "media bytes paced onto the wire"),
		drops: o.reg.Counter(c, "drops_total", "frames dropped by the scheduler (deadline passed)"),
	}
}

// startReceive runs the receive half on conn until the returned stop is
// called; stop returns the half's error. Stop sets a past read deadline,
// which wakes a read blocked on a quiet wire at once.
func (r *runState) startReceive(conn *net.UDPConn) (stop func() error) {
	done, rerr := make(chan struct{}), make(chan error, 1)
	go func() { rerr <- r.receive(conn, done) }()
	return sync.OnceValue(func() error {
		close(done)
		conn.SetReadDeadline(time.Now())
		return <-rerr
	})
}

// recvPoll is the receive half's read deadline: how often a quiet wire
// still gets its snapshot and SLO evaluation.
const recvPoll = 50 * time.Millisecond

// receive runs the receive half on conn until stop closes: one read
// deadline per poll, then the periodic snapshot and SLO evaluation. A stop
// closes stop before it sets its past deadline, so each poll arms its own
// deadline before it checks stop and never overwrites the stop's.
func (r *runState) receive(conn *net.UDPConn, stop <-chan struct{}) error {
	buf := make([]byte, 64<<10)
	for {
		conn.SetReadDeadline(time.Now().Add(recvPoll))
		select {
		case <-stop:
			return nil
		default:
		}
		for {
			n, err := conn.Read(buf)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				break
			} else if err != nil {
				return err
			}
			r.o.mu.Lock()
			r.ingest(buf[:n])
			r.o.mu.Unlock()
		}
		r.o.tick()
	}
}

// ingest takes one datagram: a first fragment starts its frame's playout
// span, a malformed one is counted and skipped. Caller holds the obs lock.
func (r *runState) ingest(b []byte) {
	if r.playout != nil {
		if h, _, err := proto.UnmarshalMedia(b); err == nil && h.FragOff == 0 {
			r.playout.begin(h.StreamID, h.Seq, r.o.now())
		}
	}
	if r.reasm.Ingest(b) != nil {
		r.malformed.Inc()
	}
	r.datagrams.Inc()
	if d := int64(r.reasm.Discarded); d != r.lastDiscarded {
		r.discarded.Add(d - r.lastDiscarded)
		r.lastDiscarded = d
	}
}

// reassembled books a complete frame to its session, with its spans and,
// when the send half is in the process, its jitter. It runs inside Ingest.
func (r *runState) reassembled(stream, seq uint32, frame []byte) {
	at := r.o.now()
	s := r.byWire[stream]
	if s == nil {
		s = r.add(stream)
	}
	if t0, ok := r.playout.end(stream, seq); ok {
		r.o.reg.Span(int(stream), int64(seq), telemetry.StagePlayout, r.o.where, t0, at)
	}
	if r.wire != nil {
		r.wire.mark(r.o, int(stream), int64(seq), at, true)
	}
	if gap, ok := s.arrive(at, len(frame)); ok && r.jitter != nil {
		dev := gap.Milliseconds() - r.p.period.Milliseconds()
		dev = max(dev, -dev)
		r.jitter.Observe(dev)
		r.jitterSamples = append(r.jitterSamples, dev)
	}
	r.received.Inc()
	r.bytesIn.Add(int64(len(frame)))
	r.checkLanded()
}

// recvStream is a session's per-stream series on the receive half: counters
// plus the fixed-bucket inter-arrival histogram.
type recvStream struct {
	frames, bytes *telemetry.Counter
	gaps          *telemetry.Histogram
}

func newRecvStream(o *obs, id uint32) *recvStream {
	c := streamComponent(int(id))
	return &recvStream{
		frames: o.reg.Counter(c, "frames_received_total", "complete frames delivered by the reassembler"),
		bytes:  o.reg.Counter(c, "bytes_received_total", "reassembled frame bytes"),
		gaps:   o.reg.HistogramMetric(c, "interarrival_ms", "frame inter-arrival gap", telemetry.JitterBucketsMs),
	}
}

// meanGapMs returns the histogram-derived mean inter-arrival gap.
func (rs *recvStream) meanGapMs() float64 { return rs.gaps.Sum() / float64(max(rs.gaps.Count(), 1)) }

// playoutStarts holds, per stream, when the first fragment of the frame in
// flight landed — the start of its playout span. It is keyed by stream, as
// the reassembler's own state is, so a frame that never completes leaves
// nothing behind: the stream's next first fragment overwrites it.
type playoutStarts map[uint32]playoutStart

type playoutStart struct {
	seq uint32
	at  sim.Time
}

func (ps playoutStarts) begin(stream, seq uint32, at sim.Time) {
	ps[stream] = playoutStart{seq, at}
}

// end returns when frame seq of stream began, if it is the one in flight.
func (ps playoutStarts) end(stream, seq uint32) (sim.Time, bool) {
	f, ok := ps[stream]
	if !ok || f.seq != seq {
		return 0, false
	}
	delete(ps, stream)
	return f.at, true
}

// wireSpans pairs each frame's dispatch with its arrival to close its wire
// span. The receive half can see a frame before the pacer's batch says it
// left, so whichever side comes first leaves a mark. A lost frame's mark is
// never paired, so a full table is emptied: the frames in flight then lose
// their wire spans, and every later frame pairs as before.
type wireSpans map[uint64]wireMark

// wireMarksMax bounds the table at a few MB.
const wireMarksMax = 1 << 17

type wireMark struct {
	at      sim.Time
	arrived bool // left by the receive half; else by the send half
}

// mark notes frame seq of stream leaving (arrived false) or landing at
// `at`. Caller holds the obs lock.
func (w wireSpans) mark(o *obs, stream int, seq int64, at sim.Time, arrived bool) {
	k := uint64(uint32(stream))<<32 | uint64(uint32(seq))
	m, ok := w[k]
	switch {
	case ok && m.arrived != arrived:
		delete(w, k)
		sent, recvd := m.at, at
		if m.arrived {
			sent, recvd = at, m.at
		}
		o.reg.Span(stream, seq, telemetry.StageWire, o.where, sent, max(sent, recvd))
	case !ok:
		if len(w) >= wireMarksMax {
			clear(w)
		}
		w[k] = wireMark{at: at, arrived: arrived}
	}
}
