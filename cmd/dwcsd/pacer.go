// The pacer: every run's send half, the one loop that turns DWCS decisions
// into datagrams, and its shutdown drain. It is event-driven — it reads the
// clock once per iteration, touches its frame sources only when one is due,
// sleeps on one timer until the earliest thing it can name (next
// eligibility, next hand-over or session change, next snapshot/SLO
// evaluation, end of run) and never waits for the observability mutex while
// frames are going out: what it observes about each frame goes into a batch
// it flushes when the lock is free.
package main

import (
	"container/heap"
	"errors"
	"io"
	"syscall"
	"time"

	"repro/internal/blackbox"
	"repro/internal/dwcs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// clock is the pacer's time source: the wall clock in the daemon, a virtual
// one in tests.
type clock interface {
	Now() sim.Time
	// SleepUntil blocks until Now() reaches t or stop closes, and reports
	// whether it was stop. A nil stop never fires.
	SleepUntil(t sim.Time, stop <-chan struct{}) (stopped bool)
}

// wallClock is nanoseconds since start, with one timer reused by every
// sleep. The obs bundle owns the daemon's, so spans, snapshots and pacing
// share one time axis.
type wallClock struct {
	start time.Time
	timer *time.Timer
}

func newWallClock(start time.Time) *wallClock {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &wallClock{start: start, timer: t}
}

func (c *wallClock) Now() sim.Time { return sim.Time(time.Since(c.start)) }

func (c *wallClock) SleepUntil(t sim.Time, stop <-chan struct{}) bool {
	d := time.Duration(t - c.Now())
	if d <= 0 {
		return false
	}
	c.timer.Reset(d)
	select {
	case <-c.timer.C:
		return false
	case <-stop:
		c.timer.Stop()
		return true
	}
}

// source is one stream's frame producer as the pacer sees it.
type source struct {
	id  int
	n   int64    // frames handed to the scheduler so far
	due sim.Time // when the next one is handed over: a period ahead of its slot
}

// sourceHeap orders sources by hand-over time (ties by id, so phase-aligned
// streams are fed in a fixed order).
type sourceHeap []source

func (h sourceHeap) Len() int { return len(h) }
func (h sourceHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].id < h[j].id
}
func (h sourceHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *sourceHeap) Push(x any)   { *h = append(*h, x.(source)) }
func (h *sourceHeap) Pop() any {
	old := *h
	s := old[len(old)-1]
	*h = old[:len(old)-1]
	return s
}

// segmentLen is the wire size of every datagram of a frame but the last.
const segmentLen = proto.MediaHeaderLen + proto.MaxMediaPayload

// segmentWriter puts one frame on the wire: b holds its datagrams back to
// back, each seg bytes long except possibly the last. newSegmentWriter picks
// the platform's: one sendmsg per frame on Linux, datagramWriter elsewhere.
type segmentWriter interface {
	writeSegments(b []byte, seg int) error
}

// datagramWriter is the portable segmentWriter: one Write per datagram.
type datagramWriter struct{ w io.Writer }

func (d datagramWriter) writeSegments(b []byte, seg int) error {
	for {
		n := min(seg, len(b))
		if _, err := d.w.Write(b[:n]); err != nil {
			return err
		}
		if b = b[n:]; len(b) == 0 {
			return nil
		}
	}
}

// transientSendError reports a send failure that says nothing about the next
// send: a receiver that is restarting (the ICMP port-unreachable a connected
// UDP socket reports once) or a queue that is full right now.
func transientSendError(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ENOBUFS) || errors.Is(err, syscall.EAGAIN)
}

// paceKind says what a batched observation records.
type paceKind uint8

const (
	paceSent    paceKind = iota // frame written to the wire
	paceDropped                 // frame dropped by the scheduler, deadline passed
	paceRefused                 // hand-over bounced off a full ring
	paceUnsent                  // frame lost to a transient send error
)

// paceEvent is one thing the pacer saw happen to a frame, kept until the
// obs lock is free.
type paceEvent struct {
	kind       paceKind
	stream     int
	seq, bytes int64
	enq, start sim.Time // sent: when it was enqueued, when its write began
	at         sim.Time // when it finished (sent) or was noticed
	err        error    // unsent: the error, on the first frame of a failing run only
}

const (
	// batchFlush is the batch length at which the pacer starts trying for
	// the obs lock between frames instead of waiting for the burst to end.
	batchFlush = 64
	// syncRetry is how soon an idle pacer looks again for an obs lock it
	// found held (a /metrics render holds it for milliseconds).
	syncRetry = sim.Millisecond
	// never is a due time that does not come.
	never = sim.Time(1<<63 - 1)
)

// pacer owns the sources, the scheduler and the datagram buffer of one
// sending loop. Everything is touched by the pacing goroutine only, except
// what flush and control do under obs.mu.
type pacer struct {
	clk   clock
	w     segmentWriter // one writeSegments per frame
	stop  <-chan struct{}
	obs   *obs
	sched *dwcs.Scheduler

	period  sim.Time
	early   sim.Time // the scheduler's eligibility lead: a quarter period
	payload []byte   // Packet.Offset/Bytes index the media bytes in here
	// frame sizes a source's n-th frame: its length and offset in payload.
	frame func(n int64) (bytes, offset int64)
	// account, called under obs.mu for every flushed event, keeps the
	// run's counters and recorder events. The pacer has already recorded
	// the frame's spans and the drop/refusal events.
	account func(e *paceEvent)
	// control runs the session set-ups and teardowns due at `at` under
	// obs.mu and returns when it next wants to run: the one place a
	// stream joins or leaves the scheduler.
	control    func(at sim.Time) (next sim.Time, err error)
	controlDue sim.Time

	sources sourceHeap
	batch   []paceEvent
	wire    []byte   // the frame being sent, as its datagrams back to back
	tickDue sim.Time // next snapshot or SLO evaluation

	sendErrs *telemetry.Counter
	failing  bool // the last send failed: the next failure is the same episode
}

// newPacer builds a pacer and its scheduler: paced DWCS on clk in which a
// frame becomes eligible a quarter period before its deadline, chosen by the
// Heaps eligibility index — a decision costs O(log streams) at any scale.
func newPacer(clk clock, w io.Writer, stop <-chan struct{}, o *obs, period sim.Time) *pacer {
	early := period / 4
	return &pacer{
		clk: clk, w: newSegmentWriter(w), stop: stop, obs: o, period: period, early: early,
		sched: dwcs.New(dwcs.Config{Now: clk.Now, Selector: dwcs.Heaps, EligibleEarly: early}),
		batch: make([]paceEvent, 0, 4*batchFlush),
		wire:  make([]byte, 0, 4*segmentLen),
		sendErrs: o.reg.Counter("dwcsd", "send_errors_total",
			"frames lost to a transient send error (ECONNREFUSED, ENOBUFS, EAGAIN)"),
	}
}

// addSource starts handing stream id's frames over: two at once (the slots
// at `at` and a period later), then one a period.
func (p *pacer) addSource(id int, at sim.Time) {
	heap.Push(&p.sources, source{id: id, due: at - p.period})
}

func (p *pacer) removeSource(id int) {
	for i := range p.sources {
		if p.sources[i].id == id {
			heap.Remove(&p.sources, i)
			return
		}
	}
}

// sourceDue is when the next hand-over is due.
func (p *pacer) sourceDue() sim.Time {
	if len(p.sources) == 0 {
		return never
	}
	return p.sources[0].due
}

// runControl runs the session set-ups and teardowns due at `at`.
// Sessions come and go under the lock the receive path reads them under;
// this is the one place the pacer waits for it mid-run.
func (p *pacer) runControl(at sim.Time) (err error) {
	p.obs.mu.Lock()
	p.flush()
	p.controlDue, err = p.control(at)
	p.tickDue = p.obs.tickLocked(at)
	p.obs.mu.Unlock()
	return err
}

// handOver gives the scheduler every frame due by horizon. A full ring is
// noted and tried again an eligibility lead later — about the soonest its
// head can have gone out or been dropped.
func (p *pacer) handOver(at, horizon sim.Time) {
	for len(p.sources) > 0 && p.sources[0].due <= horizon {
		s := &p.sources[0]
		bytes, off := p.frame(s.n)
		if p.sched.Enqueue(s.id, dwcs.Packet{Bytes: bytes, Offset: off}) != nil {
			p.batch = append(p.batch, paceEvent{kind: paceRefused, stream: s.id, bytes: bytes, at: at})
			s.due = horizon + p.early
		} else {
			s.n++
			s.due += p.period
		}
		heap.Fix(&p.sources, 0)
	}
}

// emit fragments one dispatched frame into the reused wire buffer, hands it
// to the writer whole and notes the two spans' worth of timestamps. A
// transient send error loses the frame, not the run: it is noted and pacing
// goes on.
func (p *pacer) emit(pkt *dwcs.Packet) (sent bool, err error) {
	start := p.clk.Now()
	frame := p.payload[pkt.Offset : pkt.Offset+pkt.Bytes]
	p.wire = p.wire[:0]
	for off := 0; off == 0 || off < len(frame); off += proto.MaxMediaPayload {
		p.wire = proto.AppendFragment(p.wire, uint32(pkt.StreamID), uint32(pkt.Seq), frame, off)
	}
	err = p.w.writeSegments(p.wire, segmentLen)
	e := paceEvent{kind: paceSent, stream: pkt.StreamID, seq: pkt.Seq,
		bytes: pkt.Bytes, enq: pkt.Enqueued, start: start, at: p.clk.Now()}
	switch {
	case err == nil:
		p.failing = false
	case transientSendError(err):
		e.kind = paceUnsent
		if !p.failing {
			e.err = err
		}
		p.failing = true
	default:
		return false, err
	}
	p.batch = append(p.batch, e)
	return err == nil, nil
}

// flush moves the batch into the registry and the flight recorder, in the
// order things happened. Caller holds obs.mu.
func (p *pacer) flush() {
	o := p.obs
	for i := range p.batch {
		e := &p.batch[i]
		switch e.kind {
		case paceSent:
			o.reg.Span(e.stream, e.seq, telemetry.StageQueue, o.where, e.enq, e.start)
			o.reg.Span(e.stream, e.seq, telemetry.StageTx, o.where, e.start, e.at)
		case paceDropped:
			o.rec.Record(blackbox.Event{At: e.at, Kind: blackbox.KindDrop,
				Stream: e.stream, Seq: e.seq, A: e.bytes, Note: "deadline"})
		case paceRefused:
			o.rec.Record(blackbox.Event{At: e.at, Kind: blackbox.KindRefusal,
				Stream: e.stream, A: e.bytes, Note: "ring full"})
		case paceUnsent:
			p.sendErrs.Inc()
			if e.err != nil {
				o.rec.Record(blackbox.Event{At: e.at, Kind: blackbox.KindFault,
					Stream: e.stream, Seq: e.seq, A: e.bytes, Note: "send: " + e.err.Error()})
			}
		}
		p.account(e)
	}
	p.batch = p.batch[:0]
}

// sync flushes the batch and runs whatever snapshot or SLO evaluation is
// due. With wait false it gives up at once if the lock is held, and
// reports that it did.
func (p *pacer) sync(at sim.Time, wait bool) bool {
	if wait {
		p.obs.mu.Lock()
	} else if !p.obs.mu.TryLock() {
		return false
	}
	p.flush()
	p.tickDue = p.obs.tickLocked(at)
	p.obs.mu.Unlock()
	return true
}

// run paces frames from the sources until the clock reaches until or stop
// closes.
func (p *pacer) run(until sim.Time) error {
	_, err := p.loop(until, false)
	return err
}

// drain sends what the scheduler already holds on its DWCS pacing — no new
// hand-overs — until it is empty or `bound` has passed, and returns the
// number of frames that went out.
func (p *pacer) drain(bound time.Duration) (int, error) {
	return p.loop(p.clk.Now()+sim.Time(bound), true)
}

func (p *pacer) loop(until sim.Time, draining bool) (sent int, err error) {
	stop := p.stop
	if draining {
		stop = nil // already closed; the drain has its own bound
	}
	// Whatever ended the loop, the counters the caller prints next are
	// complete.
	defer func() { p.sync(p.clk.Now(), true) }()
	for {
		at := p.clk.Now()
		if at >= until {
			return sent, nil
		}
		if !draining {
			select {
			case <-stop:
				return sent, nil
			default:
			}
			if p.controlDue <= at {
				if err := p.runControl(at); err != nil {
					return sent, err
				}
			}
			p.handOver(at, at)
		}
		d := p.sched.Schedule()
		for _, dp := range d.Dropped {
			p.batch = append(p.batch, paceEvent{kind: paceDropped, stream: dp.StreamID,
				seq: dp.Seq, bytes: dp.Bytes, at: at})
		}
		if d.Packet != nil {
			ok, err := p.emit(d.Packet)
			if err != nil {
				return sent, err
			}
			if ok {
				sent++
			}
			// More frames may be eligible right now: take the lock only
			// if nobody has it.
			if len(p.batch) >= batchFlush || at >= p.tickDue {
				p.sync(at, false)
			}
			continue
		}
		if len(d.Dropped) > 0 {
			continue // retiring late frames may have exposed an eligible one
		}
		if draining && d.WaitUntil == 0 {
			return sent, nil // scheduler empty
		}

		// Nothing to send. Sleep until the earliest of: the next frame's
		// eligibility, the next hand-over or session change, the next
		// snapshot or SLO evaluation, the end of the run.
		wake := until
		if !draining {
			wake = min(wake, p.controlDue)
			if d.WaitUntil == 0 {
				wake = min(wake, p.sourceDue())
			} else if wake = min(wake, d.WaitUntil); p.sourceDue() <= wake {
				// A hand-over due before that wake-up happens now rather
				// than cost a wake-up of its own. It moves no deadline
				// (those chain off the stream's previous frame); the frame
				// only waits in the queue a little longer. Its deadline is
				// at least a period away, so only a wake-up later than
				// its eligibility lead allows needs a second opinion.
				p.handOver(at, wake)
				if wake > at+p.period-p.early {
					continue
				}
			}
		} else {
			wake = min(wake, d.WaitUntil)
		}
		synced := true
		if len(p.batch) > 0 || at >= p.tickDue {
			synced = p.sync(at, false)
		}
		if synced {
			wake = min(wake, p.tickDue)
		} else {
			wake = min(wake, at+syncRetry)
		}
		if p.clk.SleepUntil(wake, stop) {
			return sent, nil
		}
	}
}
