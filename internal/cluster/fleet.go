// Package cluster is the scalable media server of §1 and §6 as a fleet: the
// multi-card scaling scenario (Figure 6 / claim 4) on the partitioned
// conservative engine. Each card complex — a PCI segment with a
// disk NI, a scheduler NI running DWCS with overload control and a flight
// recorder — lives in its own sim.Partition with a private event heap and
// RNG stream; a DVCM-style controller partition polls every card over the
// distribution network. Media leaves a card's Ethernet port into the fleet
// network, whose per-hop latency is the topology's channel lookahead, and
// lands on clients homed with the next card complex — so every media frame
// genuinely crosses a partition boundary.
//
// The same wiring runs in three modes with byte-identical artifacts:
// monolithic (every component on one shared Engine — the sequential
// reference), partitioned with Workers=1, and partitioned with Workers=N.
// The media path draws nothing from the engines' RNG streams and all
// cross-card interactions ride the fleet hop, which both modes order
// identically (per-hop arrivals tie-break by source card, and card-local
// event times never collide with hop arrivals' sub-microsecond phases), so
// the per-card tables, controller pulse log, and per-stream CSV are a pure
// function of the FleetConfig.
//
// There is one fleet type. This file builds what every run shares — cards,
// streams, the media network — and RunFleet's pulse poll; fleetchaos.go adds
// the fault plan and the migration protocol, ctrlha.go the controller
// replicas, scrape.go the scrape plane, each only when a run asks for it.
package cluster

import (
	"fmt"
	"strings"

	"repro/internal/blackbox"
	"repro/internal/bus"
	"repro/internal/disk"
	"repro/internal/dwcs"
	"repro/internal/faults"
	"repro/internal/fixed"
	"repro/internal/fleetobs"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/overload"
	"repro/internal/sim"
)

// Fleet wiring parameters that are not worth configuring per run.
const (
	// fleetStreamPeriod is each stream's DWCS deadline period and producer
	// injection cadence (25 fps).
	fleetStreamPeriod = 40 * sim.Millisecond
	// fleetEligibleEarly keeps the scheduler work-conserving within a small
	// window, as the single-card experiments do.
	fleetEligibleEarly = 20 * sim.Millisecond
	// fleetBufCap bounds each stream's descriptor ring.
	fleetBufCap = 64
	// fleetRingBytes sizes each card's flight-recorder ring.
	fleetRingBytes = 16 << 10
	// fleetNetLatency is the distribution-network hop latency (= the
	// parallel engine's lookahead).
	fleetNetLatency = 5 * sim.Millisecond
	// fleetSettleMargin pads the outage window when classifying loss-window
	// violations: violations inside [At, At+Duration+detectDelay+margin]
	// count as "during" the outage.
	fleetSettleMargin = 500 * sim.Millisecond
	// fleetScrapeEvery is the scrape plane's base period; a card at
	// degradation rung r is scraped every fleetScrapeEvery<<r.
	fleetScrapeEvery = 200 * sim.Millisecond
	// fleetMaxScrapeRung caps the per-card scrape degradation rung (so the
	// widest interval is 8× the base period).
	fleetMaxScrapeRung = 3
	// fleetTopK bounds the top-streams-by-pressure artifact.
	fleetTopK = 8
)

// FleetConfig is the one configuration of the one fleet type. Each entry
// point builds as much of the fleet as it needs and reads only its fields:
//   - RunFleet: the shape and engine, Cards through Monolithic.
//   - RunFleetChaos: also the failure domains, the fault plan and the
//     controller replication, CardsPerHost through CtrlPartitions.
//   - RunCtrlChaos: the same, with CtrlHA forced on.
//   - RunFleetObs: the same as RunFleetChaos, plus the stress window.
type FleetConfig struct {
	Cards          int      // card complexes; 0 = 8
	StreamsPerCard int      // media streams sourced by each card; 0 = 2
	Dur            sim.Time // simulated run length; 0 = 2 s (RunFleet), 6 s (chaos), 8 s (CtrlHA)
	Workers        int      // topology worker cap, at most GOMAXPROCS; 0 = GOMAXPROCS, 1 = sequential
	PollEvery      sim.Time // controller poll/checkpoint period; 0 = 500 ms (RunFleet), 250 ms (chaos)
	Seed           int64    // topology seed; 0 = 1960
	// Monolithic builds the identical fleet on one shared Engine instead of
	// partitions — the sequential reference the byte-identical contract is
	// checked against.
	Monolithic bool

	// Failure-domain shape: cards per host bus, hosts per switch domain.
	CardsPerHost   int // 0 = 2
	HostsPerSwitch int // 0 = 2

	// The fault plan: how many correlated faults of each kind to draw. All
	// three 0 draws one of each; otherwise 0 or less draws none of that kind.
	HostCrashes   int
	NetPartitions int
	RollingDrains int
	FaultSeed     int64 // 0 = Seed+77

	// CtrlHA replicates the control plane: a standby controller replica
	// ("ctl-b") receives the primary's placement journal and per-poll
	// checkpoints and takes over with a bumped leader epoch when the primary
	// goes silent (see ctrlha.go).
	CtrlHA bool
	// CtrlCrashes / CtrlPartitions count the controller faults injected when
	// CtrlHA is set (0 = 1 each; negative = none). Crashes kill the primary
	// mid-migration; partitions sever the replica pair link (split brain).
	CtrlCrashes    int
	CtrlPartitions int

	// StressPct, when positive, charges each card's budget up to this
	// percent of its size at StressAt and releases it StressDur later —
	// deterministic memory pressure that forces the scrape plane to shed
	// and widen before any media is dropped. 0 disables.
	StressPct int
	StressAt  sim.Time // 0 = Dur/3
	StressDur sim.Time // 0 = Dur/4
}

// detectDelay is how long after a fault strikes (or clears) the controller
// reacts — the missed-heartbeat detection lag, two polls.
func (cfg *FleetConfig) detectDelay() sim.Time { return 2 * cfg.PollEvery }

func (cfg *FleetConfig) setDefaults() {
	if cfg.Dur <= 0 {
		cfg.Dur = 6 * sim.Second
		if cfg.CtrlHA {
			// Longer than the plain chaos run, so a crash, a takeover, a
			// recovery, a split brain, and a heal all fit.
			cfg.Dur = 8 * sim.Second
		}
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 250 * sim.Millisecond
	}
	if cfg.Cards <= 0 {
		cfg.Cards = 8
	}
	if cfg.StreamsPerCard <= 0 {
		cfg.StreamsPerCard = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1960
	}
	if cfg.CardsPerHost <= 0 {
		cfg.CardsPerHost = 2
	}
	if cfg.HostsPerSwitch <= 0 {
		cfg.HostsPerSwitch = 2
	}
	if cfg.HostCrashes == 0 && cfg.NetPartitions == 0 && cfg.RollingDrains == 0 {
		cfg.HostCrashes, cfg.NetPartitions, cfg.RollingDrains = 1, 1, 1
	}
	if cfg.HostCrashes < 0 {
		cfg.HostCrashes = 0
	}
	if cfg.NetPartitions < 0 {
		cfg.NetPartitions = 0
	}
	if cfg.RollingDrains < 0 {
		cfg.RollingDrains = 0
	}
	if cfg.FaultSeed == 0 {
		cfg.FaultSeed = cfg.Seed + 77
	}
	if cfg.CtrlHA {
		if cfg.CtrlCrashes == 0 {
			cfg.CtrlCrashes = 1
		}
		if cfg.CtrlPartitions == 0 {
			cfg.CtrlPartitions = 1
		}
	}
	if cfg.CtrlCrashes < 0 {
		cfg.CtrlCrashes = 0
	}
	if cfg.CtrlPartitions < 0 {
		cfg.CtrlPartitions = 0
	}
	if cfg.StressPct > 0 {
		if cfg.StressAt <= 0 {
			cfg.StressAt = cfg.Dur / 3
		}
		if cfg.StressDur <= 0 {
			cfg.StressDur = cfg.Dur / 4
		}
	}
}

// fleetCard is one card complex plus the clients homed alongside it. Once
// the run starts, every field is written only in the card's own partition.
type fleetCard struct {
	part  *sim.Partition // nil in monolithic mode
	eng   *sim.Engine
	disk  *nic.Card
	sched *nic.Card
	ext   *nic.SchedulerExt
	ctl   *overload.Controller
	rec   *blackbox.Recorder

	host, sw string // the card's failure domains, named once at build

	// The card's side of the migration protocol: gid → the stream epoch
	// stamped at import (spans and the takeover query read it), the highest
	// leader epoch witnessed, the stale-epoch commands rejected, and the
	// card's fence rows of the incident timeline.
	epoch   map[int]int
	fence   epochFence
	fenced  int
	fenceEv []fleetobs.TimelineEvent
	severed int64 // media frames dropped on severed fleet-network hops
}

// deliver puts a frame that arrived over the fleet network, in its home
// card's partition, on its client's receive link.
func (f *fleet) deliver(arg any) {
	p := arg.(*netsim.Packet)
	f.streams[p.StreamID-1].rx.Send(p, nil)
}

// stream is one media stream: sourced on cards[orig], received by a client
// homed with cards[home] = cards[(orig+1)%Cards].
type stream struct {
	gid   int // globally unique stream ID, also its DWCS stream ID
	orig  int // card the stream is sourced on at t=0
	home  int // card index the client is homed with
	addr  string
	spec  dwcs.StreamSpec
	cl    *netsim.Client
	rx    *netsim.Link    // the client's receive link, on the home card
	prods []*nic.Producer // initial producer plus one per migration respawn

	// watchAt[k] is plan event k's strike time; watchGot[k] is the first
	// client arrival at or after it (0 = none before the run ended).
	// Written only in the home card's partition, read after the run.
	watchAt  []sim.Time
	watchGot []sim.Time
}

// tally is what a stream, or every stream sourced on one card, injected
// and delivered.
type tally struct{ injected, stalls, recv, late, bytes int64 }

// total sums the stream's producers and its client.
func (st *stream) total() tally {
	t := tally{recv: st.cl.Received, late: st.cl.Late, bytes: st.cl.RecvBytes}
	for _, p := range st.prods {
		t.injected += p.Injected
		t.stalls += p.Stalled
	}
	return t
}

// cardTotals sums every stream by the card it was sourced on.
func (f *fleet) cardTotals() []tally {
	out := make([]tally, len(f.cards))
	for _, st := range f.streams {
		t, c := st.total(), &out[st.orig]
		c.injected += t.injected
		c.stalls += t.stalls
		c.recv += t.recv
		c.late += t.late
		c.bytes += t.bytes
	}
	return out
}

// FleetResult carries the deterministic artifacts of one fleet run. Table,
// Pulse, CSV, and Summary are the byte-compared artifacts; Rounds is an
// engine-internal diagnostic (undefined in monolithic mode) and is not part
// of the determinism contract.
type FleetResult struct {
	Cards   int
	Streams int
	Dur     sim.Time

	Table   string // per-card ledger
	Pulse   string // controller poll log
	CSV     string // per-stream rows
	Summary string

	TotalInjected int64
	TotalSent     int64
	TotalRecv     int64
	TotalLate     int64
	TotalDropped  int64
	RecvBytes     int64

	Rounds int64
}

// fleet is the one fleet type. RunFleet builds its topology, cards, streams
// and pulse poll; the chaos runs add a fault plan and the controller
// replicas that own placement (ctrlha.go); RunFleetObs adds the scrape plane
// (scrape.go).
type fleet struct {
	cfg     FleetConfig
	topo    *sim.Topology // nil in monolithic mode
	mono    *sim.Engine   // shared engine in monolithic mode
	ctrl    *sim.Partition
	cards   []*fleetCard
	streams []*stream // in gid order: streams[gid-1], the frame path's routing table
	clip    *mpeg.Clip
	pulses  []string // RunFleet's poll log

	plan *faults.Plan // the chaos schedule; nil on the baseline fleet
	// planDom[k] is plan event k's host or switch index (targetIndex),
	// parsed once: the frame path asks severedAt on every hop.
	planDom []int
	// reps are the controller replicas: reps[0] ("ctl-a") boots as leader;
	// reps[1] ("ctl-b"), present only with CtrlHA, is the journaled standby.
	reps []*ctrlRep
	res  *FleetChaosResult
	obs  *fleetObs // the scrape plane; nil unless RunFleetObs built it

	// deliverFn is f.deliver, built once; every partition only reads it.
	deliverFn func(any)
}

// ctrlEng is the engine of the "dvcm" controller partition.
func (f *fleet) ctrlEng() *sim.Engine {
	if f.topo == nil {
		return f.mono
	}
	return f.ctrl.Eng()
}

// forward carries one media frame across the fleet network: fleetNetLatency of
// distribution-network flight, then the home card's receive link to the
// client. In partitioned mode this is the inter-partition channel whose
// lookahead is exactly that latency. A hop an active network partition cuts
// is dropped here, in the source card's partition at transmit time, against
// the static plan — so every worker count sees the identical cut.
func (f *fleet) forward(from int, p *netsim.Packet) {
	if p.StreamID < 1 || p.StreamID > len(f.streams) {
		return // not a media stream; drop on the fleet floor
	}
	home := f.streams[p.StreamID-1].home
	src := f.cards[from]
	if f.plan != nil && f.severedAt(from, home, src.eng.Now()) {
		src.severed++
		return
	}
	dst := f.cards[home]
	switch {
	case home == from:
		dst.eng.AfterArg(fleetNetLatency, f.deliverFn, p)
	case f.topo == nil:
		f.mono.AfterArg(fleetNetLatency, f.deliverFn, p)
	default:
		src.part.SendArg(dst.part, fleetNetLatency, f.deliverFn, p)
	}
}

// buildCard assembles card complex i on eng: PCI segment, disk NI,
// scheduler NI with DWCS + overload controller + flight recorder, and the
// Ethernet port into the fleet network.
func (f *fleet) buildCard(i int, eng *sim.Engine, part *sim.Partition) *fleetCard {
	name := niName(i)
	seg := bus.New(eng, bus.PCI(name+"-pci"))

	diskCard := nic.New(eng, nic.Config{Name: name + "-disk", PCI: seg})
	d := disk.New(eng, disk.DefaultSCSI(name+"-scsi0"))
	diskCard.AttachDisk(d, disk.NewDOSFS(d))

	schedCard := nic.New(eng, nic.Config{Name: name + "-sched", PCI: seg, CacheOn: true})
	ext, err := schedCard.LoadScheduler(nic.SchedulerConfig{EligibleEarly: fleetEligibleEarly})
	if err != nil {
		panic(err)
	}
	ctl := overload.NewController(schedCard.Name, schedCard.Mem.Size())
	if err := ext.AttachOverload(ctl); err != nil {
		panic(err)
	}
	rec, err := blackbox.New(blackbox.Config{Name: schedCard.Name, Bytes: fleetRingBytes})
	if err == nil {
		err = ext.AttachBlackbox(rec)
	}
	if err != nil {
		panic(err)
	}

	schedCard.ConnectEthernet(netsim.Fast100(eng, name+"-eth",
		netsim.PortFunc(func(p *netsim.Packet) { f.forward(i, p) })))

	fc := &fleetCard{
		part: part, eng: eng,
		disk: diskCard, sched: schedCard,
		ext: ext, ctl: ctl, rec: rec,
		host: hostName(f.hostOf(i)), sw: switchName(f.switchOf(i)),
		epoch: map[int]int{},
	}
	return fc
}

// hop runs fn one network hop from now: on the shared engine in monolithic
// mode, otherwise as a message from partition src to partition dst.
func (f *fleet) hop(src, dst *sim.Partition, fn func()) {
	if f.topo == nil {
		f.mono.After(fleetNetLatency, fn)
		return
	}
	src.Send(dst, fleetNetLatency, fn)
}

// pollCard is one controller poll of card i: one hop out, a stats read on
// the card, one hop back, one pulse row on arrival.
func (f *fleet) pollCard(i int) {
	fc := f.cards[i]
	f.hop(f.ctrl, fc.part, func() {
		at := fc.eng.Now()
		sent, dropped := fc.ext.Sent, fc.ext.Dropped
		revoked := fc.ext.RevokedCount()
		used, size := fc.ctl.Budget.Used(), fc.ctl.Budget.Size()
		f.hop(fc.part, f.ctrl, func() {
			f.pulses = append(f.pulses, fmt.Sprintf(
				"t=%-10v ni%02d sent=%-6d dropped=%-4d revoked=%d mem=%d/%d",
				at, i, sent, dropped, revoked, used, size))
		})
	})
}

// newFleet builds the topology every fleet run shares: one engine, or one
// partition per card complex plus the "dvcm" controller partition with its
// poll links to every card. Media hops are a ring (card i → i+1, where the
// clients are homed) or, with mesh, every ordered card pair — a migrated
// stream's frames must reach its client's home card from wherever the stream
// lands. cfg must have its defaults set.
func newFleet(cfg FleetConfig, mesh bool) *fleet {
	f := &fleet{cfg: cfg}
	f.deliverFn = f.deliver
	if cfg.Monolithic {
		f.mono = sim.NewEngine(cfg.Seed)
		for i := 0; i < cfg.Cards; i++ {
			f.cards = append(f.cards, f.buildCard(i, f.mono, nil))
		}
		return f
	}
	f.topo = sim.NewTopology(cfg.Seed)
	f.topo.Workers = cfg.Workers
	f.ctrl = f.topo.AddPartition("dvcm")
	parts := make([]*sim.Partition, cfg.Cards)
	for i := range parts {
		parts[i] = f.topo.AddPartition(fmt.Sprintf("card%02d", i))
	}
	for i, p := range parts {
		f.cards = append(f.cards, f.buildCard(i, p.Eng(), p))
	}
	for i, p := range parts {
		for j, q := range parts {
			// Distinct endpoints only: a 1-card fleet keeps its media local.
			if i != j && (mesh || j == (i+1)%cfg.Cards) {
				mustConnect(f.topo, p, q, fleetNetLatency)
			}
		}
		mustConnect(f.topo, f.ctrl, p, fleetNetLatency)
		mustConnect(f.topo, p, f.ctrl, fleetNetLatency)
	}
	return f
}

// addStreams builds every stream: StreamsPerCard per card, with globally
// unique IDs (gid), so a stream keeps its identity no matter which card it
// lands on. Card i's clients are homed with card (i+1)%Cards, so media
// crosses the fleet network (and, partitioned, a partition boundary); client
// endpoints model external viewers, so a host crash kills the cards, not the
// viewers.
func (f *fleet) addStreams() {
	f.clip = mpeg.GenerateDefault()
	nominal := f.clip.MeanFrameSize()
	var watchAt []sim.Time
	if f.plan != nil {
		for _, e := range f.plan.Events {
			watchAt = append(watchAt, e.At)
		}
	}
	for i, fc := range f.cards {
		home := (i + 1) % f.cfg.Cards
		hc := f.cards[home]
		for s := 1; s <= f.cfg.StreamsPerCard; s++ {
			gid := i*f.cfg.StreamsPerCard + s
			addr := fmt.Sprintf("c%02ds%d", i, s)
			st := &stream{
				gid: gid, orig: i, home: home, addr: addr,
				cl:       netsim.NewClient(hc.eng, addr),
				watchAt:  watchAt,
				watchGot: make([]sim.Time, len(watchAt)),
			}
			st.spec = dwcs.StreamSpec{
				ID: gid, Name: addr, Period: fleetStreamPeriod,
				Loss: fixed.New(1, 4), Lossy: true,
				BufCap: fleetBufCap, NominalBytes: nominal,
			}
			st.cl.OnFrame = hc.sched.Recycle // played out: the packet is spent
			homeEng := hc.eng
			st.rx = netsim.Fast100(homeEng, "rx-"+addr, netsim.PortFunc(func(p *netsim.Packet) {
				now := homeEng.Now()
				for k := range st.watchAt {
					if st.watchGot[k] == 0 && now >= st.watchAt[k] {
						st.watchGot[k] = now
					}
				}
				st.cl.Deliver(p)
			}))
			if err := fc.ext.AddStream(st.spec); err != nil {
				panic(err)
			}
			st.prods = append(st.prods,
				fc.ext.SpawnPeerProducer(fc.disk, f.clip, gid, addr, fleetStreamPeriod, 1<<30))
			f.streams = append(f.streams, st)
			for _, r := range f.reps {
				r.loc[gid] = i
			}
			f.obs.attachStream(st, fc.ext.Sched)
		}
	}
}

// run drives the built fleet to Dur and settles it, returning the engine's
// synchronization-round count (0 in monolithic mode).
func (f *fleet) run() int64 {
	if f.topo == nil {
		f.mono.RunUntil(f.cfg.Dur)
		return 0
	}
	f.topo.RunUntil(f.cfg.Dur)
	f.topo.Drain() // release every partition's peak arena before reporting
	return f.topo.Rounds
}

// RunFleet builds and runs the fleet scenario, returning its deterministic
// artifacts. The artifact bytes are identical for Monolithic, Workers=1,
// and Workers=N runs of the same configuration.
func RunFleet(cfg FleetConfig) *FleetResult {
	// The baseline fleet's own defaults: a shorter run and a slower poll
	// than the chaos runs'.
	if cfg.Dur <= 0 {
		cfg.Dur = 2 * sim.Second
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 500 * sim.Millisecond
	}
	cfg.setDefaults()
	f := newFleet(cfg, false)
	f.addStreams()

	// Controller: poll every card each PollEvery over the fleet network.
	f.ctrlEng().Every(cfg.PollEvery, func() {
		for i := range f.cards {
			f.pollCard(i)
		}
	})

	res := &FleetResult{Cards: cfg.Cards, Streams: cfg.Cards * cfg.StreamsPerCard, Dur: cfg.Dur}
	res.Rounds = f.run()
	f.collect(res)
	return res
}

func mustConnect(t *sim.Topology, src, dst *sim.Partition, la sim.Time) {
	if err := t.Connect(src, dst, la); err != nil {
		panic(err)
	}
}

// collect renders the deterministic artifacts from the settled fleet.
func (f *fleet) collect(res *FleetResult) {
	var table, csv strings.Builder
	fmt.Fprintf(&table, "%-6s %8s %8s %8s %8s %8s %8s %10s\n",
		"card", "injected", "sent", "dropped", "recv", "late", "stalls", "recvMB")
	csv.WriteString("card,stream,addr,injected,sent_by_card,recv,bytes,late,mean_lat_us,jitter_us\n")

	for _, st := range f.streams {
		fmt.Fprintf(&csv, "%02d,%d,%s,%d,%d,%d,%d,%d,%.1f,%.1f\n",
			st.orig, st.gid-st.orig*f.cfg.StreamsPerCard, st.addr, st.total().injected,
			f.cards[st.orig].ext.Sent, st.cl.Received, st.cl.RecvBytes, st.cl.Late,
			st.cl.MeanLatency().Microseconds(), st.cl.Jitter().Microseconds())
	}
	perCard := f.cardTotals()
	for i, fc := range f.cards {
		c := perCard[i]
		fmt.Fprintf(&table, "ni%02d   %8d %8d %8d %8d %8d %8d %10.2f\n",
			i, c.injected, fc.ext.Sent, fc.ext.Dropped, c.recv, c.late, c.stalls,
			float64(c.bytes)/(1<<20))
		res.TotalInjected += c.injected
		res.TotalSent += fc.ext.Sent
		res.TotalDropped += fc.ext.Dropped
		res.TotalRecv += c.recv
		res.TotalLate += c.late
		res.RecvBytes += c.bytes
	}
	res.Table = table.String()
	res.Pulse = strings.Join(f.pulses, "\n") + "\n"
	res.CSV = csv.String()

	goodput := float64(res.RecvBytes) * 8 / res.Dur.Seconds() / 1e6
	res.Summary = fmt.Sprintf(
		"fleet: %d cards × %d streams over %v: injected=%d sent=%d recv=%d late=%d dropped=%d goodput=%.1f Mbps",
		res.Cards, f.cfg.StreamsPerCard, res.Dur,
		res.TotalInjected, res.TotalSent, res.TotalRecv, res.TotalLate,
		res.TotalDropped, goodput)
}
