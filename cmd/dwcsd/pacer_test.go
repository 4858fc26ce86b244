package main

import (
	"errors"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/blackbox"
	"repro/internal/dwcs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// vclock is a clock that moves only when something sleeps on it or a write
// costs time, and counts how often it is read.
type vclock struct {
	t      sim.Time
	reads  int
	sleeps []vsleep
	// stopAtSleep, if positive, makes that sleep (1-based) end the way a
	// closed stop channel ends a real one: at once, time not advanced.
	stopAtSleep int
	onStop      func()
}

type vsleep struct{ from, to sim.Time }

func (c *vclock) Now() sim.Time { c.reads++; return c.t }

func (c *vclock) SleepUntil(t sim.Time, stop <-chan struct{}) bool {
	c.sleeps = append(c.sleeps, vsleep{c.t, t})
	if len(c.sleeps) == c.stopAtSleep {
		c.onStop()
		return true
	}
	c.t = max(c.t, t)
	return false
}

// recWriter records every datagram with the virtual time at which its write
// returned; each write costs `cost`.
type recWriter struct {
	clk     *vclock
	cost    sim.Time
	frames  []frameOut // completed frames, in wire order
	onFrame func(n int)
}

type frameOut struct {
	stream, seq uint32
	at          sim.Time // when the frame's last datagram was written
}

func (w *recWriter) Write(b []byte) (int, error) {
	w.clk.t += w.cost
	h, frag, err := proto.UnmarshalMedia(b)
	if err != nil {
		return 0, err
	}
	if int(h.FragOff)+len(frag) == int(h.FrameSize) {
		w.frames = append(w.frames, frameOut{h.StreamID, h.Seq, w.clk.t})
		if w.onFrame != nil {
			w.onFrame(len(w.frames))
		}
	}
	return len(b), nil
}

const testPeriod = 40 * sim.Millisecond

// senderRig is serve mode's own wiring on a virtual clock and a recording
// writer.
type senderRig struct {
	clk           *vclock
	w             *recWriter
	o             *obs
	p             *pacer
	sent, dropped *telemetry.Counter
	stop          chan struct{}
}

func newSenderRig(t *testing.T, streams int) *senderRig {
	t.Helper()
	r := &senderRig{clk: &vclock{}, o: newObs("dwcsd", ""), stop: make(chan struct{})}
	r.w = &recWriter{clk: r.clk, cost: 2 * sim.Microsecond}
	run := serveSendHalf(t, r.clk, r.w, r.stop, r.o, streams)
	r.p, r.sent, r.dropped = run.p, run.sent, run.dropped
	return r
}

// serveSendHalf builds serve mode's send half on clk and w, as run does.
func serveSendHalf(t *testing.T, clk clock, w io.Writer, stop <-chan struct{}, o *obs, streams int) *runState {
	t.Helper()
	r, err := newRun(runConfig{period: time.Duration(testPeriod)}.serve("", streams), o, clk, w, stop)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkWindows fails unless every frame went out inside its eligibility
// window. The virtual clock stands at 0 for the first hand-over, so frame k
// of every stream has deadline (k+1)·period and is eligible a quarter
// period before it.
func checkWindows(t *testing.T, frames []frameOut) {
	t.Helper()
	for _, f := range frames {
		deadline := sim.Time(f.seq+1) * testPeriod
		if f.at < deadline-testPeriod/4 || f.at > deadline {
			t.Fatalf("stream %d frame %d written at %v, window [%v, %v]",
				f.stream, f.seq, f.at, deadline-testPeriod/4, deadline)
		}
	}
}

// (a) 256 phase-aligned streams: the clock is read a small constant number
// of times per frame (the per-stream cursor walk read it 257 times), every
// frame of every burst goes out inside its window, nothing is dropped.
func TestPacerBurstClockReadsAndWindows(t *testing.T) {
	const streams, bursts = 256, 10
	r := newSenderRig(t, streams)
	if err := r.p.run(bursts * testPeriod); err != nil {
		t.Fatal(err)
	}
	if got := len(r.w.frames); got != streams*bursts {
		t.Fatalf("wrote %d frames, want %d", got, streams*bursts)
	}
	if r.sent.Value() != streams*bursts || r.dropped.Value() != 0 {
		t.Fatalf("counters: sent=%d dropped=%d", r.sent.Value(), r.dropped.Value())
	}
	checkWindows(t, r.w.frames)
	if perFrame := float64(r.clk.reads) / float64(len(r.w.frames)); perFrame > 8 {
		t.Fatalf("%.1f clock reads per frame (%d reads, %d frames); the pacer must not read the clock per stream",
			perFrame, r.clk.reads, len(r.w.frames))
	}
}

// (b) The idle gap between two bursts is one sleep that ends at the next
// eligibility instant — no polling — and a snapshot/SLO evaluation due in
// the middle of a gap still runs on time.
func TestPacerSleepsToDeadlinesOnly(t *testing.T) {
	const streams, bursts = 4, 15
	r := newSenderRig(t, streams)
	if err := r.p.run(bursts * testPeriod); err != nil {
		t.Fatal(err)
	}
	if got := len(r.w.frames); got != streams*bursts {
		t.Fatalf("wrote %d frames, want %d", got, streams*bursts)
	}
	// The first snapshot and SLO evaluation are due at 500 ms, inside the
	// gap between the bursts at 470 ms and 510 ms.
	const tickAt = 500 * sim.Millisecond
	var want []sim.Time
	for k := 0; k < bursts; k++ {
		if e := sim.Time(k)*testPeriod + 3*testPeriod/4; e > tickAt && e-testPeriod < tickAt {
			want = append(want, tickAt)
		}
		want = append(want, sim.Time(k)*testPeriod+3*testPeriod/4)
	}
	want = append(want, bursts*testPeriod) // end of run
	var got []sim.Time
	for _, s := range r.clk.sleeps {
		got = append(got, s.to)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("sleeps end at\n%v\nwant one per idle gap, at the eligibility instant (and the 500ms tick):\n%v", got, want)
	}
	if r.o.mon.Evals != 1 {
		t.Fatalf("SLO evaluations during the run = %d, want 1", r.o.mon.Evals)
	}
	csv := r.o.reg.SnapshotsCSV()
	if !strings.Contains(csv, "\n500.000,") {
		t.Fatalf("no snapshot at 500 ms:\n%.300s", csv)
	}
}

// (c) A stop that lands mid-sleep ends the run within that loop iteration,
// and the shared drain then sends exactly what the scheduler still holds,
// on its pacing.
func TestPacerStopMidSleepThenDrain(t *testing.T) {
	const streams = 8
	r := newSenderRig(t, streams)
	r.clk.stopAtSleep = 3 // the gap after the second burst
	r.clk.onStop = func() { close(r.stop) }
	if err := r.p.run(sim.Time(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if got := len(r.w.frames); got != 2*streams {
		t.Fatalf("frames written before the stop = %d, want two bursts of %d", got, streams)
	}
	stoppedAt := r.clk.t
	if last := r.clk.sleeps[len(r.clk.sleeps)-1]; last.from != stoppedAt {
		t.Fatalf("run went on after the interrupted sleep: clock %v, sleep began %v", stoppedAt, last.from)
	}
	// Counters are complete the moment run returns.
	if r.sent.Value() != 2*streams {
		t.Fatalf("sent counter = %d after run, want %d", r.sent.Value(), 2*streams)
	}
	queued := r.p.sched.Len()
	if queued == 0 {
		t.Fatal("nothing queued to drain")
	}
	drained, err := r.p.drain(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if drained != queued || r.p.sched.Len() != 0 {
		t.Fatalf("drained %d of %d queued frames, %d left", drained, queued, r.p.sched.Len())
	}
	if got := len(r.w.frames); got != 2*streams+queued {
		t.Fatalf("frames on the wire = %d, want %d", got, 2*streams+queued)
	}
	checkWindows(t, r.w.frames)
	if r.sent.Value() != int64(2*streams+queued) || r.dropped.Value() != 0 {
		t.Fatalf("counters after drain: sent=%d dropped=%d", r.sent.Value(), r.dropped.Value())
	}
}

// obsRecord is what a run left in the obs bundle.
type obsRecord struct {
	spans         []telemetry.Segment
	events        []blackbox.Event
	sent, dropped int64
}

func (r *senderRig) record() obsRecord {
	r.o.mu.Lock()
	defer r.o.mu.Unlock()
	return obsRecord{slices.Collect(r.o.reg.Spans.All()), r.o.rec.Events(), r.sent.Value(), r.dropped.Value()}
}

// (d) Somebody else holds obs.mu (a /metrics render) across whole bursts:
// the pacer neither waits for it nor writes a frame late, and when the lock
// comes free the batch lands complete and in order — the same spans,
// recorder events and counters as a run nobody contended.
func TestPacerDoesNotWaitForObsLockInBurst(t *testing.T) {
	const streams, bursts = 256, 3
	quiet := newSenderRig(t, streams)
	if err := quiet.p.run(bursts * testPeriod); err != nil {
		t.Fatal(err)
	}

	r := newSenderRig(t, streams)
	lastWritten := make(chan struct{})
	r.w.onFrame = func(n int) {
		if n == streams*bursts {
			close(lastWritten)
		}
	}
	r.o.mu.Lock()
	released := make(chan bool)
	go func() {
		var inTime bool
		select {
		case <-lastWritten:
			inTime = true
			time.Sleep(50 * time.Millisecond) // and the pacer's final flush waits here
		case <-time.After(10 * time.Second):
		}
		r.o.mu.Unlock()
		released <- inTime
	}()
	if err := r.p.run(bursts * testPeriod); err != nil {
		t.Fatal(err)
	}
	if !<-released {
		t.Fatal("the pacer waited for obs.mu with frames still to send")
	}
	checkWindows(t, r.w.frames)
	if !slices.Equal(r.w.frames, quiet.w.frames) {
		t.Fatal("frames left at different times under lock contention")
	}
	got, want := r.record(), quiet.record()
	if got.sent != want.sent || got.dropped != want.dropped || got.sent != streams*bursts {
		t.Fatalf("counters: got sent=%d dropped=%d, uncontended sent=%d dropped=%d",
			got.sent, got.dropped, want.sent, want.dropped)
	}
	if !slices.Equal(got.spans, want.spans) {
		t.Fatalf("span log differs from the uncontended run (%d vs %d spans)", len(got.spans), len(want.spans))
	}
	if !slices.Equal(got.events, want.events) {
		t.Fatalf("recorder events differ from the uncontended run (%d vs %d)", len(got.events), len(want.events))
	}
}

// countingSegWriter counts writeSegments calls and checks each is a whole
// frame; fail, if set, decides what a call returns.
type countingSegWriter struct {
	t     *testing.T
	calls int
	fail  func(call int) error
}

func (w *countingSegWriter) writeSegments(b []byte, seg int) error {
	w.calls++
	h, _, err := proto.UnmarshalMedia(b[:min(seg, len(b))])
	if err != nil {
		w.t.Fatalf("call %d: %v", w.calls, err)
	}
	if frags := max(1, (int(h.FrameSize)+proto.MaxMediaPayload-1)/proto.MaxMediaPayload); seg != segmentLen ||
		len(b) != int(h.FrameSize)+frags*proto.MediaHeaderLen {
		w.t.Fatalf("call %d: %d bytes in segments of %d for a %d-byte frame", w.calls, len(b), seg, h.FrameSize)
	}
	if w.fail != nil {
		return w.fail(w.calls)
	}
	return nil
}

// (e) The steady-state emit path — fragment, write, batch append — hands the
// writer each frame whole in exactly one call and allocates nothing, on the
// per-datagram writer too.
func TestPacerEmitDoesNotAllocate(t *testing.T) {
	for _, w := range []segmentWriter{&countingSegWriter{t: t}, datagramWriter{io.Discard}} {
		p := serveSendHalf(t, &vclock{}, io.Discard, nil, newObs("dwcsd", ""), 1).p
		p.w = w
		pkt := &dwcs.Packet{StreamID: 0, Seq: 7, Bytes: 5000, Offset: 100}
		frames := 0
		allocs := testing.AllocsPerRun(200, func() {
			if sent, err := p.emit(pkt); err != nil || !sent {
				t.Fatal(sent, err)
			}
			frames++
			if len(p.batch) == cap(p.batch) {
				p.batch = p.batch[:0] // what a flush leaves behind
			}
		})
		if allocs != 0 {
			t.Fatalf("%T: emit allocates %.0f times per frame, want 0", w, allocs)
		}
		if c, ok := w.(*countingSegWriter); ok && c.calls != frames {
			t.Fatalf("%d writeSegments calls for %d frames", c.calls, frames)
		}
	}
}

// A transient send error costs the frame it hit and nothing else: the run
// goes on pacing, send_errors_total counts each lost frame, the flight
// recorder gets one event per run of failures. Any other error ends the run.
func TestPacerSurvivesTransientSendErrors(t *testing.T) {
	const streams, bursts = 4, 6
	for _, errno := range []syscall.Errno{syscall.ECONNREFUSED, syscall.ENOBUFS, syscall.EAGAIN} {
		r := newSenderRig(t, streams)
		// Frames 3–5 fail (one episode), frame 9 fails (a second).
		w := &countingSegWriter{t: t, fail: func(call int) error {
			if call >= 3 && call <= 5 || call == 9 {
				return &net.OpError{Op: "write", Net: "udp", Err: os.NewSyscallError("sendmsg", errno)}
			}
			return nil
		}}
		r.p.w = w
		if err := r.p.run(bursts * testPeriod); err != nil {
			t.Fatalf("%v ended the run: %v", errno, err)
		}
		if w.calls != streams*bursts {
			t.Fatalf("%v: %d frames attempted, want %d", errno, w.calls, streams*bursts)
		}
		if got := r.sent.Value(); got != streams*bursts-4 {
			t.Fatalf("%v: sent counter %d, want %d", errno, got, streams*bursts-4)
		}
		if got := r.p.sendErrs.Value(); got != 4 {
			t.Fatalf("%v: send_errors_total = %d, want 4", errno, got)
		}
		faults := 0
		for _, e := range r.o.rec.Events() {
			if e.Kind == blackbox.KindFault {
				faults++
				if !strings.Contains(e.Note, errno.Error()) {
					t.Fatalf("fault note %q does not name %v", e.Note, errno)
				}
			}
		}
		if faults != 2 {
			t.Fatalf("%v: %d recorder events for 2 episodes", errno, faults)
		}
	}

	r := newSenderRig(t, streams)
	r.p.w = &countingSegWriter{t: t, fail: func(call int) error {
		if call == 3 {
			return &net.OpError{Op: "write", Net: "udp", Err: os.NewSyscallError("sendmsg", syscall.EPERM)}
		}
		return nil
	}}
	if err := r.p.run(bursts * testPeriod); !errors.Is(err, syscall.EPERM) {
		t.Fatalf("run returned %v, want the EPERM", err)
	}
}

// A full ring is noted as a refusal and retried without losing the frame's
// place or spinning.
func TestPacerRetriesFullRing(t *testing.T) {
	r := newSenderRig(t, 1)
	// Hand over far more than the 16-slot ring holds before anything can
	// be sent.
	r.p.handOver(0, 40*testPeriod)
	if got := r.p.sched.Len(); got != 16 {
		t.Fatalf("queued %d frames, want the ring's 16", got)
	}
	src := r.p.sources[0]
	if src.n != 16 || src.due <= 40*testPeriod {
		t.Fatalf("after the refusal the source is %+v; want 16 handed over and a retry past the horizon", src)
	}
	r.p.sync(0, true)
	refusals := 0
	for _, e := range r.o.rec.Events() {
		if e.Kind == blackbox.KindRefusal {
			refusals++
		}
	}
	if refusals != 1 {
		t.Fatalf("recorded %d refusals, want 1", refusals)
	}
}

// The playout-start table holds at most one entry per stream however many
// frames never complete.
func TestPlayoutStartsBoundedByStreams(t *testing.T) {
	ps := make(playoutStarts)
	for seq := uint32(0); seq < 1000; seq++ {
		ps.begin(seq%2, seq, sim.Time(seq)) // first fragments whose frames are then discarded
	}
	if len(ps) != 2 {
		t.Fatalf("%d entries for 2 streams", len(ps))
	}
	if _, ok := ps.end(0, 996); ok {
		t.Fatal("a superseded frame still had a playout start")
	}
	if at, ok := ps.end(0, 998); !ok || at != 998 {
		t.Fatalf("in-flight frame: at=%v ok=%v", at, ok)
	}
	if len(ps) != 1 {
		t.Fatalf("%d entries after the frame completed", len(ps))
	}
}
