// Command dwcsd streams synthetic MPEG-1 frames over real UDP, paced by the
// same DWCS scheduler core the simulated NI runs — a genuine end-to-end
// demonstration of the library outside the simulator.
//
// Serve (sender) and recv (receiver) typically run in two terminals:
//
//	dwcsd -recv 127.0.0.1:9961 -dur 5s
//	dwcsd -dest 127.0.0.1:9961 -streams 2 -period 50ms -dur 5s
//
// Frames are fragmented into MTU-sized datagrams with the internal/proto
// media framing and reassembled at the receiver, which reports per-stream
// goodput and inter-arrival jitter.
//
// Both sides carry the full observability stack the simulated NI carries:
// per-frame causal spans in the sim stage vocabulary (queue/tx on the
// sender, wire/playout on the receiver), a flight recorder whose incidents
// dump on SLO violation or abnormal exit, and an SLO burn-rate monitor
// derived from each stream's DWCS (x,y) loss window. With -artifacts DIR
// the run writes the same artifact directory format sim runs produce
// (stages.txt, metrics.csv, slo.txt, incidents.txt), so
// `tracetool -diff -conformance <sim artifacts> <real artifacts>` closes
// the sim-vs-real loop with no conversion step.
//
// Soak mode exercises the daemon at session scale in one process:
//
//	dwcsd -soak 2000 -dur 5s -flash -artifacts /tmp/soak
//
// spawns 2000 in-process UDP client sessions with setup/teardown churn
// (and optionally flash-crowd arrivals), reporting per-session goodput and
// jitter distributions.
//
// Either side also serves a live Prometheus endpoint with -metrics: the
// same registry and text format the simulator's telemetry artifacts use,
// including per-stream series (component "dwcsd_s<id>"), so one scrape
// config covers both the real daemon and simulated runs.
//
//	dwcsd -dest 127.0.0.1:9961 -metrics 127.0.0.1:9900
//	curl http://127.0.0.1:9900/metrics
//
// Every mode takes -cpuprofile FILE and -memprofile FILE; the profiles are
// complete on every way out, including a signal drain and a fatal error.
//
// SIGINT or SIGTERM shuts any mode down gracefully: the sender stops
// injecting new frames and drains what the scheduler already holds (bounded
// by -drain), the receiver reports the partial run, soak sessions wind down
// with an "interrupted" incident in the flight recorder, and the metrics
// listener finishes in-flight scrapes before closing. A second signal
// aborts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/blackbox"
	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/mpeg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	dest := flag.String("dest", "", "serve mode: destination UDP address")
	recv := flag.String("recv", "", "receive mode: UDP listen address")
	soak := flag.Int("soak", 0, "soak mode: spawn N in-process UDP client sessions against a loopback receiver")
	streams := flag.Int("streams", 2, "number of concurrent streams")
	period := flag.Duration("period", 50*time.Millisecond, "per-stream frame period")
	dur := flag.Duration("dur", 5*time.Second, "run duration")
	metricsAddr := flag.String("metrics", "", "serve Prometheus metrics on this HTTP address while running")
	artifacts := flag.String("artifacts", "", "write the sim-format artifact directory (stages.txt, metrics.csv, slo.txt, incidents.txt) here on exit")
	drain := flag.Duration("drain", 2*time.Second, "graceful-shutdown deadline for draining queued frames on SIGINT/SIGTERM")
	flash := flag.Bool("flash", false, "soak mode: flash-crowd arrivals (every session sets up inside the first 100ms)")
	churn := flag.Float64("churn", 0.25, "soak mode: fraction of sessions torn down and replaced mid-run")
	throttle := flag.Duration("throttle", 0, "soak mode: stall injected before every dispatch (validates the regression gate)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	lc := newLifecycle()
	lc.watch(os.Interrupt, syscall.SIGTERM)

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	switch {
	case *soak > 0:
		cfg := soakConfig{
			Sessions: *soak,
			Period:   *period,
			Dur:      *dur,
			Flash:    *flash,
			Churn:    *churn,
			Throttle: *throttle,
			Metrics:  *metricsAddr,
			Dir:      *artifacts,
			Drain:    *drain,
		}
		err = soakRun(cfg, lc, os.Stdout)
	case *recv != "":
		err = receiver(*recv, *dur, *metricsAddr, *artifacts, lc)
	case *dest != "":
		err = sender(*dest, *streams, *period, *dur, *metricsAddr, *artifacts, *drain, lc)
	default:
		fmt.Fprintln(os.Stderr, "dwcsd: need -dest (send), -recv (receive), or -soak N; see -h")
		os.Exit(2)
	}
	// Every way out of a mode — full run, signal drain, error — comes back
	// here, so the profiles are complete before fatal's os.Exit.
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fatal(err)
	}
}

// startProfiles starts the CPU profile and returns the function that stops
// it and writes the heap profile; either path may be empty.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // so the profile shows what is live, not what is garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// lifecycle coordinates signal-driven graceful shutdown: the send/receive
// loops poll stopped() once per iteration and wind down early when a watched
// signal (or a test) triggers it.
type lifecycle struct {
	stop chan struct{}
	once sync.Once
}

func newLifecycle() *lifecycle { return &lifecycle{stop: make(chan struct{})} }

// watch triggers shutdown on the first of the given signals, then
// unregisters the handler — so a second signal falls back to the default
// disposition and kills a wedged drain.
func (l *lifecycle) watch(sigs ...os.Signal) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, sigs...)
	go func() {
		s := <-ch
		signal.Stop(ch)
		fmt.Fprintf(os.Stderr, "dwcsd: %v: draining and shutting down (signal again to abort)\n", s)
		l.trigger()
	}()
}

func (l *lifecycle) trigger() { l.once.Do(func() { close(l.stop) }) }

func (l *lifecycle) stopped() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

// metricsHandler serves a Prometheus text dump under /metrics. render is
// called per scrape; the obs bundle's render locks against the send/receive
// loop, so a scrape arriving mid-frame is race-free.
func metricsHandler(render func() string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		io.WriteString(w, render())
	})
	return mux
}

// serveMetrics starts the metrics endpoint on addr and returns the bound
// address (addr may end in :0) and a stopper. The stopper closes the
// listener gracefully: an in-flight scrape gets a second to finish before
// the connection is torn down.
func serveMetrics(addr string, render func() string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: metricsHandler(render)}
	go srv.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
	}
	return ln.Addr().String(), stop, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dwcsd:", err)
	os.Exit(1)
}

// senderStream is the per-stream export surface of the pacing side.
type senderStream struct {
	sent  *telemetry.Counter
	bytes *telemetry.Counter
	drops *telemetry.Counter
}

func newSenderStream(o *obs, id int) senderStream {
	c := streamComponent(id)
	return senderStream{
		sent:  o.reg.Counter(c, "frames_sent_total", "frames paced onto the wire by DWCS"),
		bytes: o.reg.Counter(c, "bytes_sent_total", "media bytes paced onto the wire"),
		drops: o.reg.Counter(c, "drops_total", "frames dropped by the scheduler (deadline passed)"),
	}
}

// sender paces clip frames to dest with DWCS over the wall clock. On
// shutdown it stops injecting and drains the frames the scheduler already
// holds, bounded by drainFor.
func sender(dest string, nStreams int, period, dur time.Duration, metricsAddr, artifactsDir string, drainFor time.Duration, lc *lifecycle) (err error) {
	conn, err := net.Dial("udp", dest)
	if err != nil {
		return err
	}
	defer conn.Close()

	o := newObs("dwcsd", artifactsDir)
	defer func() {
		if err != nil {
			o.trigger("abnormal exit: " + err.Error())
		}
		if werr := o.writeArtifacts(); werr != nil && err == nil {
			err = werr
		}
	}()
	p, sentN, droppedN, err := newSenderPacer(o.clk, conn, lc.stop, o, nStreams, sim.Time(period))
	if err != nil {
		return err
	}
	if metricsAddr != "" {
		bound, stop, err := serveMetrics(metricsAddr, o.render)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "dwcsd: metrics on http://%s/metrics\n", bound)
	}

	if err := p.run(sim.Time(dur)); err != nil {
		return err
	}
	// Interrupted: no new injections, but frames already accepted by the
	// scheduler still go out on their DWCS pacing — bounded by the drain
	// deadline, after which whatever remains is abandoned.
	if lc.stopped() {
		o.trigger("interrupted")
		drained, err := p.drain(drainFor)
		if err != nil {
			return err
		}
		fmt.Printf("dwcsd: interrupted; drained %d queued frame(s)\n", drained)
	}
	// bench/ and bench_compare.sh parse this line.
	fmt.Printf("dwcsd: sent %d frames (%d dropped) on %d streams over %v\n",
		sentN.Value(), droppedN.Value(), nStreams, dur)
	return nil
}

// newSenderPacer wires serve mode onto a pacer: nStreams streams of the
// default clip, their SLO objectives, and the counters the summary line and
// /metrics report.
func newSenderPacer(clk clock, w io.Writer, stop <-chan struct{}, o *obs, nStreams int, period sim.Time) (p *pacer, sentN, droppedN *telemetry.Counter, err error) {
	sentN = o.reg.Counter("dwcsd", "frames_sent_total", "frames paced onto the wire by DWCS")
	droppedN = o.reg.Counter("dwcsd", "frames_dropped_total", "frames dropped by the scheduler (deadline passed)")
	o.reg.GaugeFunc("dwcsd", "streams",
		"concurrent streams being paced", func() float64 { return float64(nStreams) })
	perStream := make([]senderStream, nStreams)
	for i := range perStream {
		perStream[i] = newSenderStream(o, i)
	}

	clip := mpeg.GenerateDefault()
	p = newPacer(clk, w, stop, o, period)
	p.payload = mpeg.Encode(clip, 1960)
	p.frame = func(n int64) (bytes, offset int64) {
		f := clip.Frames[n%int64(len(clip.Frames))]
		return f.Size, f.Offset
	}
	p.account = func(e *paceEvent) {
		switch e.kind {
		case paceSent:
			o.rec.Record(blackbox.Event{At: e.at, Kind: blackbox.KindDecision,
				Stream: e.stream, Seq: e.seq, A: e.bytes})
			sentN.Inc()
			perStream[e.stream].sent.Inc()
			perStream[e.stream].bytes.Add(e.bytes)
		case paceDropped:
			droppedN.Inc()
			perStream[e.stream].drops.Inc()
		}
	}
	for i := 0; i < nStreams; i++ {
		spec := dwcs.StreamSpec{
			ID:     i,
			Name:   fmt.Sprintf("s%d", i),
			Period: period,
			Loss:   fixed.New(1, 2),
			Lossy:  true,
			BufCap: 16,
		}
		if err := p.sched.AddStream(spec); err != nil {
			return nil, nil, nil, err
		}
		// The SLO's latency objective bounds queue wait at a small multiple
		// of the frame period — the same derivation sim cards use.
		o.track(spec, p.sched, 4*period)
		// Producer side: each frame is handed to the scheduler a full
		// period ahead of its slot.
		p.addSource(i, 0)
	}
	return p, sentN, droppedN, nil
}

// recvStream is the per-stream export surface of the receive side: counters
// plus the fixed-bucket inter-arrival jitter histogram that replaces the
// old ad-hoc running mean.
type recvStream struct {
	frames *telemetry.Counter
	bytes  *telemetry.Counter
	jitter *telemetry.Histogram
	last   sim.Time
	seen   bool
}

func newRecvStream(o *obs, id uint32) *recvStream {
	c := streamComponent(int(id))
	return &recvStream{
		frames: o.reg.Counter(c, "frames_received_total", "complete frames delivered by the reassembler"),
		bytes:  o.reg.Counter(c, "bytes_received_total", "reassembled frame bytes"),
		jitter: o.reg.HistogramMetric(c, "interarrival_ms", "frame inter-arrival gap", telemetry.JitterBucketsMs),
	}
}

// observeArrival records one completed frame: inter-arrival jitter into the
// fixed-bucket histogram, counters forward. Caller holds the obs lock.
func (r *recvStream) observeArrival(at sim.Time, frameBytes int) {
	if r.seen {
		r.jitter.Observe(sim.Time(at - r.last).Milliseconds())
	}
	r.last, r.seen = at, true
	r.frames.Inc()
	r.bytes.Add(int64(frameBytes))
}

// meanGapMs returns the histogram-derived mean inter-arrival gap.
func (r *recvStream) meanGapMs() float64 {
	if r.jitter.Count() == 0 {
		return 0
	}
	return r.jitter.Sum() / float64(r.jitter.Count())
}

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

// receiver reassembles frames until dur elapses (or shutdown triggers) and
// prints a per-stream report. Large frames arrive as several datagrams;
// proto.Reassembler rebuilds them exactly as a player-side segmenter would.
// The playout span of each multi-fragment frame — first fragment arrival to
// reassembly completion — lands in the span log, so a receiver-side
// artifact dir carries real client-path stage latencies.
func receiver(listen string, dur time.Duration, metricsAddr, artifactsDir string, lc *lifecycle) (err error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return err
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	o := newObs("dwcsd-recv", artifactsDir)
	defer func() {
		if err != nil {
			o.trigger("abnormal exit: " + err.Error())
		}
		if werr := o.writeArtifacts(); werr != nil && err == nil {
			err = werr
		}
	}()
	framesN := o.reg.Counter("dwcsd", "frames_reassembled_total", "complete frames delivered by the reassembler")
	bytesN := o.reg.Counter("dwcsd", "bytes_received_total", "reassembled frame bytes")
	discardedN := o.reg.Counter("dwcsd", "frames_discarded_total", "incomplete frames abandoned by the reassembler")
	datagramsN := o.reg.Counter("dwcsd", "datagrams_total", "UDP datagrams ingested")
	malformedN := o.reg.Counter("dwcsd", "datagrams_malformed_total", "datagrams the reassembler rejected")
	if metricsAddr != "" {
		bound, stop, err := serveMetrics(metricsAddr, o.render)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "dwcsd: metrics on http://%s/metrics\n", bound)
	}

	streams := make(map[uint32]*recvStream)
	firstFrag := make(playoutStarts)
	var lastDiscarded int64
	reasm := proto.NewReassembler(func(streamID, seq uint32, frame []byte) {
		// Runs inside Ingest below, which the loop calls under o.locked.
		at := o.now()
		r := streams[streamID]
		if r == nil {
			r = newRecvStream(o, streamID)
			streams[streamID] = r
		}
		r.observeArrival(at, len(frame))
		framesN.Inc()
		bytesN.Add(int64(len(frame)))
		if t0, ok := firstFrag.end(streamID, seq); ok {
			o.reg.Span(int(streamID), int64(seq), telemetry.StagePlayout, o.where, t0, at)
		}
	})

	buf := make([]byte, 64<<10)
	start := time.Now()
	deadline := start.Add(dur)
	// The short read deadline bounds shutdown latency: a stop is noticed
	// within one poll even when the wire has gone quiet.
	for time.Now().Before(deadline) && !lc.stopped() {
		conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, err := conn.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				o.tick()
				continue
			}
			return err
		}
		o.locked(func() {
			if h, _, err := proto.UnmarshalMedia(buf[:n]); err == nil && h.FragOff == 0 {
				firstFrag.begin(h.StreamID, h.Seq, o.now())
			}
			if reasm.Ingest(buf[:n]) != nil { // malformed datagrams are counted and skipped
				malformedN.Inc()
			}
			datagramsN.Inc()
			if d := int64(reasm.Discarded); d != lastDiscarded {
				discardedN.Add(d - lastDiscarded)
				lastDiscarded = d
			}
		})
		o.tick()
	}
	elapsed := time.Since(start) // an interrupted run reports rates over what it ran
	if lc.stopped() {
		o.trigger("interrupted")
		fmt.Println("dwcsd: interrupted; reporting partial run")
	}
	if len(streams) == 0 {
		fmt.Println("dwcsd: no frames received")
		return nil
	}
	ids := make([]uint32, 0, len(streams))
	for id := range streams {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		r := streams[id]
		fmt.Printf("stream %d: %d frames, %d bytes, %.1f kbps, mean inter-arrival %.1fms\n",
			id, r.frames.Value(), r.bytes.Value(),
			float64(r.bytes.Value()*8)/elapsed.Seconds()/1000, r.meanGapMs())
	}
	fmt.Printf("total reassembled frames: %d (discarded %d)\n", reasm.Completed, reasm.Discarded)
	return nil
}
