// Package cluster builds the scalable media server of §1 and §6: nodes
// with several PCI segments, each populated with scheduler NIs (dedicated
// i960 RD cards, caches enabled, no disks) and producer NIs (disk-attached
// cards), joined by a system-area switch to remote clients.
//
// "Given the limited I/O slot real-estate, careful balance between NIs
// dedicated for scheduling and stream sourcing is required" (§6) — Admit
// implements that balance: it places each requested stream on the least-
// loaded scheduler NI with CPU, link, and memory headroom, pairs it with
// the least-loaded producer NI on the same bus segment, and rejects
// requests that would overcommit any of the three resources. The paper's
// future-work item — bandwidth allocation across a large number of streams
// — is exercised by cmd/clustersim's stream-count sweep.
package cluster

import (
	"errors"
	"fmt"

	"repro/internal/bus"
	"repro/internal/disk"
	"repro/internal/dvcmnet"
	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/overload"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ErrAdmission is returned when no NI has capacity for a requested stream.
var ErrAdmission = errors.New("cluster: admission denied")

// Per-frame NI CPU budget: one scheduling decision plus dispatch plus
// protocol stack (§4 measurements: ≈67 µs + ≈27 µs + ≈830 µs).
const cpuPerFrame = 925 * sim.Microsecond

// maxUtil is the admission ceiling on every resource.
const maxUtil = 0.7

// StreamRequest asks the cluster to serve one media stream.
type StreamRequest struct {
	Name       string
	Period     sim.Time   // requested inter-frame service time
	FrameBytes int64      // nominal frame size
	Loss       fixed.Frac // DWCS loss-tolerance
	Lossy      bool
	BufCap     int // ring depth; 0 = 64
}

func (r StreamRequest) validate() error {
	if r.Period <= 0 {
		return fmt.Errorf("cluster: %s: period must be positive", r.Name)
	}
	if r.FrameBytes <= 0 {
		return fmt.Errorf("cluster: %s: frame size must be positive", r.Name)
	}
	return nil
}

// SchedulerNI is a dedicated scheduling card plus its load bookkeeping.
type SchedulerNI struct {
	Card *nic.Card
	Ext  *nic.SchedulerExt
	// Endpoint is the card's presence in the distributed VCM: any node can
	// drive this scheduler with remote instructions over the SAN.
	Endpoint *dvcmnet.Endpoint
	// Overload is the card's overload controller once EnableOverload armed
	// protection; nil keeps the pre-overload admission behaviour.
	Overload *overload.Controller

	cpuLoad  float64 // fraction of NI CPU committed
	linkLoad float64 // fraction of the Ethernet port committed
	memLoad  int64   // bytes of card memory committed to rings
	streams  int
	specs    map[int]qos.Stream // admitted streams, for feasibility analysis
}

// Streams returns how many streams are placed on this card.
func (s *SchedulerNI) Streams() int { return s.streams }

// CPULoad returns the committed CPU fraction.
func (s *SchedulerNI) CPULoad() float64 { return s.cpuLoad }

// LinkLoad returns the committed link fraction.
func (s *SchedulerNI) LinkLoad() float64 { return s.linkLoad }

// Feasibility analyses this card's admitted stream set against its link
// and CPU with the internal/qos window-constraint bounds — the analytical
// check dual to the admission accounting.
func (s *SchedulerNI) Feasibility() (*qos.Report, error) {
	streams := make([]qos.Stream, 0, len(s.specs))
	for _, st := range s.specs {
		streams = append(streams, st)
	}
	linkBps := 0.0
	if s.Card.Link != nil {
		linkBps = 100e6
	}
	return qos.Check(streams, linkBps, cpuPerFrame)
}

// ProducerNI is a disk-attached source card.
type ProducerNI struct {
	Card    *nic.Card
	Disk    *disk.Disk
	streams int
}

// Node is one server in the cluster.
type Node struct {
	Name       string
	Segments   []*bus.Bus
	Schedulers []*SchedulerNI
	Producers  []*ProducerNI

	segOf map[*nic.Card]*bus.Bus
}

// NodeConfig sizes one node.
type NodeConfig struct {
	Name         string
	Segments     int // PCI bus segments
	SchedulerNIs int // dedicated scheduler cards, spread across segments
	ProducerNIs  int // disk-attached cards, spread across segments
}

// Cluster is the whole server complex.
type Cluster struct {
	Eng    *sim.Engine
	Switch *netsim.Switch
	Nodes  []*Node

	nextID   int
	Rejected int
	// Admitted counts successful admissions. Nothing un-places a stream, so
	// it is also the number of live placements.
	Admitted int64

	// Tel is the attached telemetry registry; nil disables telemetry.
	Tel *telemetry.Registry
}

// Instrument attaches a telemetry registry to the whole cluster: admission
// counters under the cluster component, and every bus segment, scheduler NI,
// DVCM endpoint, producer card, and disk instrumented in turn. Clients
// attached afterwards (AttachClient) inherit the registry.
func (c *Cluster) Instrument(reg *telemetry.Registry) {
	if reg == nil || c.Tel != nil {
		return
	}
	c.Tel = reg
	reg.CounterFunc("cluster", "streams_admitted_total",
		"streams admitted by the cluster", func() int64 { return c.Admitted })
	reg.CounterFunc("cluster", "streams_rejected_total",
		"stream requests denied admission", func() int64 { return int64(c.Rejected) })
	reg.GaugeFunc("cluster", "live_streams",
		"currently placed streams", func() float64 { return float64(c.Admitted) })
	for _, n := range c.Nodes {
		for _, b := range n.Segments {
			b.Instrument(reg)
		}
		for _, s := range n.Schedulers {
			s.Ext.Instrument(reg)
			s.Endpoint.Instrument(reg)
			if s.Overload != nil {
				s.Overload.Instrument(reg)
			}
		}
		for _, p := range n.Producers {
			p.Card.Instrument(reg)
			p.Disk.Instrument(reg)
		}
	}
}

// EnableOverload arms overload protection on every scheduler NI: each card
// gets its own controller (budget sized to the card's installed memory) and
// the placement loop starts redirecting setups away from cards past their
// high-water mark. Already-instrumented clusters instrument the new
// controllers too.
func (c *Cluster) EnableOverload() {
	for _, n := range c.Nodes {
		for _, s := range n.Schedulers {
			if s.Overload != nil {
				continue
			}
			ctl := overload.NewController(s.Card.Name, s.Card.Mem.Size())
			s.Ext.AttachOverload(ctl)
			s.Overload = ctl
			if c.Tel != nil {
				ctl.Instrument(c.Tel)
			}
		}
	}
}

// New builds a cluster of nodes per cfg, all attached to one SAN switch.
func New(eng *sim.Engine, cfgs []NodeConfig) *Cluster {
	c := &Cluster{
		Eng:    eng,
		Switch: netsim.NewSwitch(eng, "san", 90*sim.Microsecond),
	}
	for _, cfg := range cfgs {
		c.Nodes = append(c.Nodes, c.buildNode(cfg))
	}
	return c
}

func (c *Cluster) buildNode(cfg NodeConfig) *Node {
	if cfg.Segments <= 0 {
		cfg.Segments = 1
	}
	n := &Node{Name: cfg.Name, segOf: make(map[*nic.Card]*bus.Bus)}
	for i := 0; i < cfg.Segments; i++ {
		n.Segments = append(n.Segments, bus.New(c.Eng, bus.PCI(fmt.Sprintf("%s/pci%d", cfg.Name, i))))
	}
	for i := 0; i < cfg.SchedulerNIs; i++ {
		seg := n.Segments[i%len(n.Segments)]
		card := nic.New(c.Eng, nic.Config{
			Name:    fmt.Sprintf("%s/sched%d", cfg.Name, i),
			PCI:     seg,
			CacheOn: true, // dedicated scheduler NI: no disk, cache stays on
		})
		card.ConnectEthernet(netsim.Fast100(c.Eng, card.Name+"-eth", c.Switch))
		ext, err := card.LoadScheduler(nic.SchedulerConfig{
			Selector: dwcs.Heaps, // large stream counts
			// Dispatch a little ahead of each deadline so stack + wire
			// time lands frames at clients on time.
			EligibleEarly: 20 * sim.Millisecond,
		})
		if err != nil {
			panic(err)
		}
		n.Schedulers = append(n.Schedulers, &SchedulerNI{
			Card: card, Ext: ext,
			Endpoint: dvcmnet.Attach(c.Eng, c.Switch, card.Name, card.VCM),
			specs:    make(map[int]qos.Stream),
		})
		n.segOf[card] = seg
	}
	for i := 0; i < cfg.ProducerNIs; i++ {
		seg := n.Segments[i%len(n.Segments)]
		card := nic.New(c.Eng, nic.Config{
			Name: fmt.Sprintf("%s/prod%d", cfg.Name, i),
			PCI:  seg,
		})
		d := disk.New(c.Eng, disk.DefaultSCSI(card.Name+"-disk"))
		card.AttachDisk(d, disk.NewDOSFS(d))
		n.Producers = append(n.Producers, &ProducerNI{Card: card, Disk: d})
		n.segOf[card] = seg
	}
	return n
}

// Placement records where an admitted stream landed.
type Placement struct {
	StreamID  int
	Node      *Node
	Scheduler *SchedulerNI
	Producer  *ProducerNI
	Client    string        // client address the stream is delivered to
	Req       StreamRequest // the request as admitted
}

// Admit places a stream, preferring the least-CPU-loaded scheduler NI whose
// CPU, link, and memory all stay under the admission ceiling, paired with
// the least-loaded producer NI on the same segment. It returns ErrAdmission
// when nothing fits.
func (c *Cluster) Admit(req StreamRequest) (*Placement, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	bufCap := req.BufCap
	if bufCap == 0 {
		bufCap = 64
	}
	frameRate := float64(sim.Second) / float64(req.Period)
	cpuNeed := frameRate * cpuPerFrame.Seconds()
	memNeed := int64(bufCap) * req.FrameBytes
	var best *SchedulerNI
	var bestNode *Node
	for _, n := range c.Nodes {
		for _, s := range n.Schedulers {
			if s.Card.Link == nil {
				continue
			}
			linkNeed := frameRate * s.Card.Link.WireTime(req.FrameBytes).Seconds()
			if s.cpuLoad+cpuNeed > maxUtil || s.linkLoad+linkNeed > maxUtil {
				continue
			}
			if s.memLoad+memNeed > s.Card.Mem.Size()*7/10 {
				continue
			}
			// Overload-protected cards refuse setups past their budget's
			// high-water mark; skipping here redirects the stream to a
			// less-pressured card instead of failing the request.
			if s.Overload != nil && !s.Overload.Budget.CanAdmit(nic.StreamMemCost(dwcs.StreamSpec{
				BufCap: bufCap, NominalBytes: req.FrameBytes,
			}).Projected()) {
				continue
			}
			if best == nil || s.cpuLoad < best.cpuLoad {
				best = s
				bestNode = n
			}
		}
	}
	if best == nil {
		c.Rejected++
		return nil, fmt.Errorf("%w: %s (rate %.1f/s, %d B frames)", ErrAdmission, req.Name, frameRate, req.FrameBytes)
	}
	// Least-loaded producer NI on the same segment (fall back to any on the
	// node).
	seg := bestNode.segOf[best.Card]
	var prod *ProducerNI
	for _, p := range bestNode.Producers {
		if bestNode.segOf[p.Card] != seg {
			continue
		}
		if prod == nil || p.streams < prod.streams {
			prod = p
		}
	}
	if prod == nil {
		for _, p := range bestNode.Producers {
			if prod == nil || p.streams < prod.streams {
				prod = p
			}
		}
	}
	if prod == nil {
		c.Rejected++
		return nil, fmt.Errorf("%w: %s: no producer NI available", ErrAdmission, req.Name)
	}

	c.nextID++
	id := c.nextID
	if err := best.Ext.AddStream(dwcs.StreamSpec{
		ID:           id,
		Name:         req.Name,
		Period:       req.Period,
		Loss:         req.Loss,
		Lossy:        req.Lossy,
		BufCap:       bufCap,
		NominalBytes: req.FrameBytes,
	}); err != nil {
		return nil, err
	}
	best.cpuLoad += cpuNeed
	best.linkLoad += frameRate * best.Card.Link.WireTime(req.FrameBytes).Seconds()
	best.memLoad += memNeed
	best.streams++
	best.specs[id] = qos.Stream{
		Name: req.Name, Period: req.Period, FrameBytes: req.FrameBytes, Loss: req.Loss,
	}
	prod.streams++
	c.Admitted++

	return &Placement{
		StreamID:  id,
		Node:      bestNode,
		Scheduler: best,
		Producer:  prod,
		Client:    fmt.Sprintf("client-%d", id),
		Req:       req,
	}, nil
}

// Start begins streaming an admitted placement: a producer task on the
// disk card reads the clip and feeds the scheduler card over the shared
// PCI segment (path B), looping `loops` times.
func (c *Cluster) Start(p *Placement, clip *mpeg.Clip, injectEvery sim.Time, loops int) *nic.Producer {
	return p.Scheduler.Ext.SpawnPeerProducer(p.Producer.Card, clip, p.StreamID, p.Client, injectEvery, loops)
}

// AttachClient creates a measuring client for a placement and wires it to
// the SAN switch.
func (c *Cluster) AttachClient(p *Placement) *netsim.Client {
	cl := netsim.NewClient(c.Eng, p.Client)
	if c.Tel != nil {
		cl.Instrument(c.Tel)
	}
	c.Switch.Attach(p.Client, netsim.Fast100(c.Eng, "san-"+p.Client, cl))
	return cl
}

// Capacity reports how many streams of the given request shape the cluster
// would admit in total, without mutating state beyond a scratch copy — used
// by sizing tools. It simply admits into a fresh identical cluster.
func Capacity(cfgs []NodeConfig, req StreamRequest) int {
	eng := sim.NewEngine(1)
	defer eng.Close()
	scratch := New(eng, cfgs)
	n := 0
	for {
		r := req
		r.Name = fmt.Sprintf("%s-%d", req.Name, n)
		if _, err := scratch.Admit(r); err != nil {
			return n
		}
		n++
		if n > 1_000_000 {
			return n
		}
	}
}
