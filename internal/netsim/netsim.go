// Package netsim models the 100 Mbps switched Ethernet between the server's
// NIs and the remote MPEG clients.
//
// Calibration anchors from the paper:
//
//   - A full-size Ethernet frame takes ≈ 120 µs on a 100 Mbps link (§4.2:
//     the 65 µs scheduling overhead "corresponds to around half an Ethernet
//     frame time").
//   - End-to-end delivery of a 1000-byte media frame, including protocol
//     stack traversal at both ends and wire transmission, is ≈ 1.2 ms when
//     the sender's stack runs on the 66 MHz i960 RD (Table 4, "1.2net").
//
// Stack traversal costs are deliberately *not* inside Link: the sending
// stack runs on whichever processor drives the NI (the i960 or a host CPU),
// so internal/nic and internal/host charge it there. Link models
// serialization, propagation, and per-MTU framing overhead; Switch models
// store-and-forward forwarding; Client models the remote player's receive
// stack and records delivery statistics.
package netsim

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Ethernet framing constants.
const (
	MTU = 1500 // max payload bytes per Ethernet frame
	// PerFrameOverhead counts preamble (8) + MAC header (14) + FCS (4) +
	// inter-frame gap (12) + IP (20) + UDP (8) bytes of wire time per frame.
	PerFrameOverhead = 66
)

// Packet is one media frame in flight (possibly spanning several Ethernet
// frames on the wire).
type Packet struct {
	Src, Dst string
	StreamID int
	Seq      int64
	Bytes    int64    // media payload size
	Enqueued sim.Time // when the producer queued it (for queuing delay)
	Sent     sim.Time // when the sender handed it to the wire
	Deadline sim.Time // scheduler deadline, for lateness accounting
	Data     any      // opaque payload for control-plane traffic (DVCM RPC)

	// Dispatched is when the scheduler's dispatch decision handed the frame
	// to the protocol stack; zero when the sender is not instrumented.
	Dispatched sim.Time
	// FirstSent is Sent at the first hop. Sent is overwritten per hop
	// (switch forwarding re-sends), so telemetry keeps the original here.
	FirstSent sim.Time
}

// Port is anything that can accept a delivered packet.
type Port interface {
	Deliver(p *Packet)
}

// PortFunc adapts a function to the Port interface.
type PortFunc func(p *Packet)

// Deliver implements Port.
func (f PortFunc) Deliver(p *Packet) { f(p) }

// Link is one half-duplex transmit path at a fixed bit rate. Transmissions
// serialize FIFO; each completes after wire time plus propagation and is
// then delivered to the attached port.
//
// A transmission allocates nothing: the link keeps two FIFOs and two engine
// callbacks built once. waiting holds the transmissions queued behind the
// one on the wire, each with its onWire callback; inFlight holds the
// serialized packets not yet delivered. Deliveries come out in send order —
// a transmission starts no earlier than the previous one ends and
// propagation is the same for every packet — so the deliver callback always
// takes the head of inFlight.
type Link struct {
	eng  *sim.Engine
	name string
	bps  int64
	prop sim.Time
	dst  Port

	busy      bool               // a transmission is on the wire
	onWire    func()             // its onWire callback
	waiting   sim.FIFO[transmit] // queued behind it, in send order
	inFlight  sim.FIFO[*Packet]  // serialized, awaiting delivery, in send order
	freeFn    func()             // l.free, built once
	deliverFn func()             // l.deliver, built once
	sendFn    func(any)          // sends its argument, a *Packet; built once
	busyTime  sim.Time           // wire time of finished transmissions
	lastStart sim.Time           // when the transmission on the wire started

	// DropEvery, when positive, drops every k-th packet after serialization
	// (deterministic loss injection for robustness tests).
	DropEvery int64

	// down, while true, loses every packet after serialization — a SAN
	// cable pull or port failure. The transmitter still burns wire time
	// (the sender can't tell), but nothing is delivered.
	down bool

	// Stats counts traffic.
	Packets int64
	Bytes   int64
	Dropped int64
}

// NewLink returns a link of rate bps from the sender to dst.
func NewLink(eng *sim.Engine, name string, bps int64, prop sim.Time, dst Port) *Link {
	if bps <= 0 {
		panic("netsim: link rate must be positive")
	}
	l := &Link{eng: eng, name: name, bps: bps, prop: prop, dst: dst}
	l.freeFn = l.free
	l.deliverFn = l.deliver
	l.sendFn = func(p any) { l.Send(p.(*Packet), nil) }
	return l
}

// transmit is one Send waiting for the transmitter.
type transmit struct {
	p      *Packet
	onWire func()
}

// Fast100 returns a 100 Mbps link with 2 µs propagation.
func Fast100(eng *sim.Engine, name string, dst Port) *Link {
	return NewLink(eng, name, 100_000_000, 2*sim.Microsecond, dst)
}

// WireTime returns the serialization time of a media payload of n bytes:
// the payload fragments into MTU-sized Ethernet frames, each paying
// PerFrameOverhead bytes.
func (l *Link) WireTime(n int64) sim.Time {
	frames := (n + MTU - 1) / MTU
	if frames == 0 {
		frames = 1
	}
	bits := (n + frames*PerFrameOverhead) * 8
	// Split the division so huge payloads don't overflow int64 nanoseconds.
	secs := bits / l.bps
	rem := bits % l.bps
	return sim.Time(secs)*sim.Second + sim.Time(rem*int64(sim.Second)/l.bps)
}

// Send transmits p. onWire (may be nil) runs when the sender's transmitter
// is free again; delivery to the destination port happens after propagation.
func (l *Link) Send(p *Packet, onWire func()) {
	if l.busy {
		l.waiting.Push(transmit{p, onWire})
		return
	}
	l.start(p, onWire)
}

// start puts p on the wire now. A lost packet still burns its wire time.
func (l *Link) start(p *Packet, onWire func()) {
	l.busy = true
	l.onWire = onWire
	l.lastStart = l.eng.Now()
	p.Sent = l.eng.Now()
	if p.FirstSent == 0 {
		p.FirstSent = p.Sent
	}
	t := l.WireTime(p.Bytes)
	l.Packets++
	l.Bytes += p.Bytes
	l.eng.After(t, l.freeFn)
	if l.down || (l.DropEvery > 0 && l.Packets%l.DropEvery == 0) {
		l.Dropped++
		return
	}
	l.inFlight.Push(p)
	l.eng.After(t+l.prop, l.deliverFn)
}

// free ends the transmission on the wire: the next waiting one starts, then
// the finished one's onWire runs.
func (l *Link) free() {
	done := l.onWire
	l.busyTime += l.eng.Now() - l.lastStart
	if l.waiting.Len() == 0 {
		l.busy, l.onWire = false, nil
	} else {
		next := l.waiting.Pop()
		l.start(next.p, next.onWire)
	}
	if done != nil {
		done()
	}
}

// deliver hands the oldest packet in flight to the port.
func (l *Link) deliver() {
	p := l.inFlight.Pop()
	if l.dst != nil {
		l.dst.Deliver(p)
	}
}

// SetDown fails or restores the link. While down, every transmission is
// lost after serialization (counted in Dropped).
func (l *Link) SetDown(down bool) { l.down = down }

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Utilization reports the fraction of [0, now] the transmitter was busy.
func (l *Link) Utilization() float64 {
	now := l.eng.Now()
	if now == 0 {
		return 0
	}
	busy := l.busyTime
	if l.busy {
		busy += now - l.lastStart
	}
	return float64(busy) / float64(now)
}

// Switch is a store-and-forward Ethernet switch: it receives a packet on
// any input, waits one forwarding latency plus the output serialization of
// the attached output link, and delivers it based on Dst address.
type Switch struct {
	eng     *sim.Engine
	name    string
	latency sim.Time
	ports   map[string]*Link
	groups  map[string][]string

	// Forwarded counts packets switched.
	Forwarded int64
}

// NewSwitch returns a switch with the given forwarding latency.
func NewSwitch(eng *sim.Engine, name string, latency sim.Time) *Switch {
	return &Switch{eng: eng, name: name, latency: latency, ports: make(map[string]*Link)}
}

// Attach binds destination address addr to an output link.
func (s *Switch) Attach(addr string, out *Link) { s.ports[addr] = out }

// AttachPort binds addr to a port directly (zero-cost output, used for
// locally attached measurement taps).
func (s *Switch) AttachPort(addr string, out Port) {
	l := NewLink(s.eng, s.name+"→"+addr, 100_000_000, 0, out)
	s.ports[addr] = l
}

// JoinGroup subscribes a destination address to a multicast group: packets
// addressed to the group fan out to every member — the multicast delivery
// the paper's introduction cites as the network-level scalability technique
// for media ("researchers have designed multicast techniques", §1).
func (s *Switch) JoinGroup(group, member string) {
	if s.groups == nil {
		s.groups = make(map[string][]string)
	}
	s.groups[group] = append(s.groups[group], member)
}

// LeaveGroup removes a member from a group.
func (s *Switch) LeaveGroup(group, member string) {
	ms := s.groups[group]
	for i, m := range ms {
		if m == member {
			s.groups[group] = append(ms[:i], ms[i+1:]...)
			return
		}
	}
}

// GroupSize reports a group's membership.
func (s *Switch) GroupSize(group string) int { return len(s.groups[group]) }

// Deliver implements Port: forward by destination address, fanning out to
// group members when the destination is a multicast group. Unknown
// destinations are dropped (counted nowhere, like a real L2 flood we don't
// model).
func (s *Switch) Deliver(p *Packet) {
	if members, ok := s.groups[p.Dst]; ok {
		for _, m := range members {
			cp := *p
			cp.Dst = m
			s.Deliver(&cp)
		}
		return
	}
	out, ok := s.ports[p.Dst]
	if !ok {
		return
	}
	s.Forwarded++
	s.eng.AfterArg(s.latency, out.sendFn, p)
}

// Client models a remote MPEG player: a receive stack delay, delivery
// statistics, and optional per-stream bandwidth metering.
type Client struct {
	eng  *sim.Engine
	Name string
	// RxStack is the receive-stack delay between arrival and playout. Set
	// it before frames flow: a playout's span starts RxStack before it ends.
	RxStack sim.Time

	// OnFrame, if set, observes every delivered packet after the receive
	// stack.
	OnFrame func(p *Packet)

	// BW, if set, meters goodput.
	BW *stats.BandwidthMeter

	Received  int64
	RecvBytes int64
	Late      int64
	Gaps      []sim.Time // inter-arrival gaps (delay-jitter raw data)

	latencySum  sim.Time // send-to-delivered, summed over Received frames
	lastArrival sim.Time
	gotFirst    bool
	playoutFn   func(any) // c.playout, built once

	tel       *telemetry.Registry
	telFrames *telemetry.Counter
}

// Instrument attaches a telemetry registry: delivered media frames count
// under the netsim component, and every delivery records tx/wire/playout
// span segments for the frame's causal span.
func (c *Client) Instrument(reg *telemetry.Registry) {
	c.tel = reg
	c.telFrames = reg.Counter("netsim", "frames_delivered_total",
		"media frames delivered to clients after the receive stack")
}

// NewClient returns a client with a 200 µs receive stack.
func NewClient(eng *sim.Engine, name string) *Client {
	c := &Client{eng: eng, Name: name, RxStack: 200 * sim.Microsecond}
	c.playoutFn = c.playout
	return c
}

// Deliver implements Port.
func (c *Client) Deliver(p *Packet) {
	arrival := c.eng.Now()
	if c.tel != nil && p.StreamID > 0 {
		if p.Dispatched != 0 && p.FirstSent != 0 {
			c.tel.Span(p.StreamID, p.Seq, telemetry.StageTx, p.Src, p.Dispatched, p.FirstSent)
		}
		if p.FirstSent != 0 {
			c.tel.Span(p.StreamID, p.Seq, telemetry.StageWire, c.Name, p.FirstSent, arrival)
		}
	}
	c.eng.AfterArg(c.RxStack, c.playoutFn, p)
}

// playout completes one delivery once the receive stack has run: arg is
// the packet, and it arrived RxStack ago.
func (c *Client) playout(arg any) {
	p := arg.(*Packet)
	if c.tel != nil && p.StreamID > 0 {
		c.tel.Span(p.StreamID, p.Seq, telemetry.StagePlayout, c.Name, c.eng.Now()-c.RxStack, c.eng.Now())
	}
	c.telFrames.Inc()
	c.Received++
	c.RecvBytes += p.Bytes
	c.latencySum += c.eng.Now() - p.Sent
	if c.gotFirst {
		c.Gaps = append(c.Gaps, c.eng.Now()-c.lastArrival)
	}
	c.gotFirst = true
	c.lastArrival = c.eng.Now()
	if p.Deadline != 0 && c.eng.Now() > p.Deadline {
		c.Late++
	}
	if c.BW != nil {
		c.BW.Deliver(c.eng.Now(), int(p.Bytes))
	}
	if c.OnFrame != nil {
		c.OnFrame(p)
	}
}

// MeanLatency returns the mean send-to-delivered latency, truncated to the
// nanosecond; zero before the first delivery.
func (c *Client) MeanLatency() sim.Time {
	if c.Received == 0 {
		return 0
	}
	return c.latencySum / sim.Time(c.Received)
}

// Jitter returns the mean absolute deviation of inter-arrival gaps — the
// delay-jitter metric of §4.2.3 ("frames are serviced at a rate with lower
// variability ... more uniform jitter-delay variation").
func (c *Client) Jitter() sim.Time {
	if len(c.Gaps) == 0 {
		return 0
	}
	var sum sim.Time
	for _, g := range c.Gaps {
		sum += g
	}
	mean := sum / sim.Time(len(c.Gaps))
	var dev sim.Time
	for _, g := range c.Gaps {
		d := g - mean
		if d < 0 {
			d = -d
		}
		dev += d
	}
	return dev / sim.Time(len(c.Gaps))
}

// String summarizes the client's deliveries.
func (c *Client) String() string {
	return fmt.Sprintf("%s: %d frames, %d bytes, %d late", c.Name, c.Received, c.RecvBytes, c.Late)
}

// StackProfile bundles the per-packet protocol processing costs a sender
// pays before the wire. The i960 profile reproduces the 1.2 ms end-to-end
// figure; the host profile is faster because the stack runs at 200 MHz.
type StackProfile struct {
	Name string
	Tx   sim.Time // sender-side UDP/IP + driver per media frame
}

// I960Stack is protocol processing on the 66 MHz i960 RD.
func I960Stack() StackProfile { return StackProfile{Name: "i960", Tx: 830 * sim.Microsecond} }

// HostStack is protocol processing on a 200 MHz host CPU (Intel 82557 NI).
func HostStack() StackProfile { return StackProfile{Name: "host", Tx: 190 * sim.Microsecond} }
