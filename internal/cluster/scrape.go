// Fleet observability: the in-band scrape plane over the chaos fleet. The
// DVCM controller partition scrapes every card's telemetry, SLO, and
// flight-recorder state over the same simulated links the media rides —
// scrape requests and replies are real timestamped inter-partition messages,
// and each reply's buffer is charged to the card's overload budget before it
// ships, so observability is the first thing shed under pressure: a card
// past its high-water mark answers with a header-only refusal, and the
// controller widens that card's scrape interval (a degradation rung) instead
// of dropping media.
//
// On top of the scrape stream the controller keeps a deterministic fleet
// view: per-card → per-host → per-switch-domain rollups, top-k streams by
// loss-window pressure, and an incident timeline that merges every card's
// flight-recorder events (faults, watchdog bites, ladder moves, refusals,
// SLO transitions, migrations) with the controller's own decisions into one
// causally-ordered, byte-stable artifact. Frame spans carry a stream epoch
// that advances on every committed migration, and the controller records the
// frame-cursor handoff as an explicit span link — so a stream's
// disk→wire→playout trace stitches across live migration.

package cluster

import (
	"fmt"
	"strings"

	"repro/internal/blackbox"
	"repro/internal/dwcs"
	"repro/internal/fleetobs"
	"repro/internal/overload"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// FleetObsResult carries one observed chaos run's artifacts. Everything but
// Chaos.Rounds is byte-deterministic across Monolithic, Workers=1, and
// Workers=N runs of the same configuration.
type FleetObsResult struct {
	Chaos *FleetChaosResult

	Rollup      string // card → host → switch-domain health/goodput/burn table
	Timeline    string // merged incident timeline
	TopK        string // top streams by loss-window pressure
	ScrapeStats string // per-card scrape accounting and overhead
	Stitched    string // cross-migration stitched traces, one block per moved stream
	Summary     string

	ObsBytes   int64 // total in-band scrape traffic (requests + replies)
	MediaBytes int64 // client-received media bytes (the overhead denominator)

	ScrapeReqs    int64
	ScrapeSamples int64
	ScrapeSheds   int64 // replies refused under budget pressure
	ScrapeSkips   int64 // scrapes not sent because the card's rung widened
	ScrapeDark    int64 // scrapes a crashed card never answered
	EventsShipped int64
	EventsLost    int64 // ring overwrites before the scrape could ship them
	Degrades      int64 // scrape-interval widenings
	Restores      int64 // full-rate restorations
	Breaches      int64 // budget breaches as last scraped, fleet-wide (want: 0)
	Links         int   // recorded epoch-handoff span links
	StitchedLive  int   // streams with a live handoff and a full span path
}

// obsSample is one card's scrape reply: partition-local reads bundled on the
// card and shipped to the controller as a value.
type obsSample struct {
	at      sim.Time
	bytes   int64
	samples []slo.StreamSample
	events  []blackbox.Event
	lost    int64

	used, low, size int64
	breaches        int64
	recvBytes       int64 // media bytes received by clients homed on the card
}

// scrapeStat is the controller's per-card scrape accounting.
type scrapeStat struct {
	reqs, samples, sheds, skips, dark int64
	events, lost                      int64
	bytes                             int64
}

// fleetObs is the scrape plane's state, split by partition: tel/ctel/mon
// index i is touched only in card i's partition once the run starts;
// everything else lives in the controller partition — replica 0's, which
// without CtrlHA is the whole control plane. A nil *fleetObs is the plane
// switched off: the migration protocol's callbacks below return at once.
type fleetObs struct {
	// Card-partition state.
	tel  []*telemetry.Registry // serving-side spans (disk/bus/queue), epoch-stamped
	ctel []*telemetry.Registry // client-side spans (tx/wire/playout), epoch −1
	mon  []*slo.Monitor

	// Static after build.
	homed [][]*stream // card → streams whose client is homed there
	ctl   *sim.Engine // the controller partition's engine

	// Controller-partition state.
	tick     int64
	cursor   []int64 // per-card flight-recorder scrape cursor
	rung     []int   // per-card scrape-degradation rung
	rungMax  []int
	dark     []bool
	last     []*obsSample
	stat     []scrapeStat
	links    []telemetry.SpanLink
	tl       *fleetobs.Timeline
	obsBytes int64
	degrades int64
	restores int64
}

// newFleetObs builds the scrape plane and instruments every card: two span
// registries (the serving side is epoch-stamped from the card's placement
// view; the client side never knows placements and stamps −1 for the
// stitcher to resolve) and an SLO monitor whose transitions land in the
// flight recorder. ctl is the controller partition's engine.
func newFleetObs(cards []*fleetCard, ctl *sim.Engine) *fleetObs {
	n := len(cards)
	o := &fleetObs{
		tel:     make([]*telemetry.Registry, n),
		ctel:    make([]*telemetry.Registry, n),
		mon:     make([]*slo.Monitor, n),
		homed:   make([][]*stream, n),
		ctl:     ctl,
		cursor:  make([]int64, n),
		rung:    make([]int, n),
		rungMax: make([]int, n),
		dark:    make([]bool, n),
		last:    make([]*obsSample, n),
		stat:    make([]scrapeStat, n),
		tl:      fleetobs.NewTimeline(),
	}
	for i, fc := range cards {
		srv := telemetry.New()
		srv.EpochOf = func(stream int) int { return fc.epoch[stream] }
		fc.sched.Instrument(srv)
		o.tel[i] = srv

		cli := telemetry.New()
		cli.EpochOf = func(int) int { return -1 }
		o.ctel[i] = cli

		mon := slo.NewMonitor(fc.sched.Name, slo.Config{})
		mon.Rec = fc.rec
		mon.Instrument(srv)
		mon.Start(fc.eng)
		o.mon[i] = mon
	}
	return o
}

func niName(i int) string { return fmt.Sprintf("ni%02d", i) }

// shippable selects the flight-recorder kinds worth the wire: incidents and
// transitions, not the per-frame decision/drop/span churn the ring also holds.
func shippable(k blackbox.Kind) bool {
	switch k {
	case blackbox.KindLadder, blackbox.KindFault, blackbox.KindWatchdog,
		blackbox.KindRefusal, blackbox.KindSLO, blackbox.KindMigrate,
		blackbox.KindDomainFault:
		return true
	}
	return false
}

// attachStream wires one stream at build time: its client's spans record
// into the home card's client registry and its origin card, whose scheduler
// is sched, tracks its SLO.
func (o *fleetObs) attachStream(st *stream, sched *dwcs.Scheduler) {
	if o == nil {
		return
	}
	st.cl.Instrument(o.ctel[st.home])
	o.trackOn(st.orig, st, sched)
	o.homed[st.home] = append(o.homed[st.home], st)
}

// trackOn registers the stream's loss objective with the SLO monitor of card,
// whose scheduler is sched, once: a stream that returns to a card it lived
// on keeps its frozen row. Runs in card's partition.
func (o *fleetObs) trackOn(card int, st *stream, sched *dwcs.Scheduler) {
	if o == nil {
		return
	}
	if m := o.mon[card]; !m.Tracked(st.gid) {
		m.TrackStream(st.spec, 0, sched)
	}
}

// --- the scrape protocol -----------------------------------------------------

// scrape is one controller round: every card whose degradation rung divides
// this tick gets a scrape request over the DVCM link (one fixed-size
// instruction, counted as in-band traffic). The flight-recorder cursor rides
// the request, so the card ships exactly the events the controller has not
// seen.
func (f *fleet) scrape() {
	o := f.obs
	tick := o.tick
	o.tick++
	for i := range f.cards {
		i := i
		if r := o.rung[i]; r > 0 && tick%(1<<uint(r)) != 0 {
			o.stat[i].skips++
			continue
		}
		o.stat[i].reqs++
		o.stat[i].bytes += fleetobs.ReqBytes
		o.obsBytes += fleetobs.ReqBytes
		cur := o.cursor[i]
		// The scrape is a controller command like any other: with a
		// replicated control plane it is epoch-stamped and a card whose
		// fence outranks the sender rejects it (stale leaders cannot even
		// observe). Unreplicated, cmd is a plain toCard hop.
		f.reps[0].cmd(i, "scrape", 0, func() { f.reply(i, cur) }, nil)
	}
}

// reply runs in card i's partition: a crashed card answers nothing; a live
// card prices the reply (header + per-stream samples + per-event entries),
// admission-tests it against its own overload budget, and either ships the
// sample — charging the reply buffer for one hop's flight — or sheds it with
// a header-only refusal that keeps the cursor, so nothing is silently lost.
func (f *fleet) reply(i int, cur int64) {
	o, fc := f.obs, f.cards[i]
	at := fc.eng.Now()
	if fc.sched.Crashed() {
		f.reps[0].fromCard(i, func() { o.onDark(i) })
		return
	}
	events, newest, lost := fc.rec.EventsSince(cur, shippable)
	samples := o.mon[i].Sample()
	bud := fc.ctl.Budget
	cost := int64(fleetobs.ReplyHeaderBytes +
		len(samples)*fleetobs.StreamEntryBytes + len(events)*fleetobs.EventEntryBytes)
	release := func(n int64) func() {
		return func() { bud.Release(overload.ClassTelemetry, n) }
	}
	if !bud.CanAdmit(cost) {
		if bud.CanAdmit(fleetobs.ShedReplyBytes) {
			_ = bud.Charge(overload.ClassTelemetry, fleetobs.ShedReplyBytes)
			fc.eng.After(fleetNetLatency, release(fleetobs.ShedReplyBytes))
		}
		fc.rec.Record(blackbox.Event{At: at, Kind: blackbox.KindRefusal,
			A: cost, Note: "scrape shed"})
		f.reps[0].fromCard(i, func() { o.onShed(i, cost) })
		return
	}
	_ = bud.Charge(overload.ClassTelemetry, cost)
	fc.eng.After(fleetNetLatency, release(cost))
	s := &obsSample{
		at: at, bytes: cost, samples: samples, events: events, lost: lost,
		used: bud.Used(), low: bud.LowWater(), size: bud.Size(),
		breaches: bud.Breaches,
	}
	for _, st := range o.homed[i] {
		s.recvBytes += st.cl.RecvBytes
	}
	host, sw := f.domain(i)
	f.reps[0].fromCard(i, func() { o.onSample(i, host, sw, s, newest) })
}

// ctrlEvent drops one controller-local event on the timeline.
func (o *fleetObs) ctrlEvent(kind string, stream int, seq int64, note string) {
	if o == nil {
		return
	}
	o.tl.Add(fleetobs.TimelineEvent{
		At: o.ctl.Now(), Src: fleetobs.SrcController, SrcName: "dvcm",
		Kind: kind, Stream: stream, Seq: seq, Note: note,
	})
}

func (o *fleetObs) onDark(i int) {
	o.stat[i].dark++
	if !o.dark[i] {
		o.dark[i] = true
		o.ctrlEvent("scrape-dark", 0, 0,
			fmt.Sprintf("%s answered nothing; card presumed down", niName(i)))
	}
}

// onShed reacts to a refused reply: the card is under memory pressure, so
// the controller widens its scrape interval — observability degrades one
// rung before any media frame is at risk.
func (o *fleetObs) onShed(i int, cost int64) {
	o.stat[i].sheds++
	o.stat[i].bytes += fleetobs.ShedReplyBytes
	o.obsBytes += fleetobs.ShedReplyBytes
	if o.dark[i] {
		o.dark[i] = false
		o.ctrlEvent("scrape-recover", 0, 0, niName(i)+" answering again")
	}
	if o.rung[i] < fleetMaxScrapeRung {
		o.rung[i]++
		if o.rung[i] > o.rungMax[i] {
			o.rungMax[i] = o.rung[i]
		}
		o.degrades++
		o.ctrlEvent("scrape-degrade", 0, 0, fmt.Sprintf(
			"%s shed %dB reply under pressure; scrape interval ×%d",
			niName(i), cost, 1<<uint(o.rung[i])))
	}
}

// onSample folds one reply into the controller's fleet view: cursor advance,
// timeline merge of the shipped flight-recorder events, and rung restoration
// once the card's budget is back under low water.
func (o *fleetObs) onSample(i int, host, sw string, s *obsSample, newest int64) {
	st := &o.stat[i]
	st.samples++
	st.events += int64(len(s.events))
	st.lost += s.lost
	st.bytes += s.bytes
	o.obsBytes += s.bytes
	o.cursor[i] = newest
	o.last[i] = s
	if o.dark[i] {
		o.dark[i] = false
		o.ctrlEvent("scrape-recover", 0, 0, niName(i)+" answering again")
	}
	if o.rung[i] > 0 && s.used <= s.low {
		o.rung[i] = 0
		o.restores++
		o.ctrlEvent("scrape-restore", 0, 0, fmt.Sprintf(
			"%s under low water (%d/%d); full scrape rate restored",
			niName(i), s.used, s.size))
	}
	for _, e := range s.events {
		o.tl.Add(fleetobs.TimelineEvent{
			At: e.At, Src: i, SrcName: niName(i), Host: host, Switch: sw,
			Kind: e.Kind.String(), Stream: e.Stream, Seq: e.Seq, Note: e.Note,
		})
	}
	if s.lost > 0 {
		o.ctrlEvent("scrape-gap", 0, 0, fmt.Sprintf(
			"%s ring overwrote %d event(s) before the scrape", niName(i), s.lost))
	}
}

// --- migration commits: epochs and span links (controller context) -----------

// commitMove records a committed live or cold migration: the stream's epoch
// advanced and the frame-cursor handoff becomes an explicit span link. at is
// the card-side import instant (not the controller's later commit time) so
// replayed frames dispatched before this hop landed still sort after it.
func (o *fleetObs) commitMove(st *stream, from, to, epoch int, seq int64,
	at sim.Time, kind string) {
	if o == nil {
		return
	}
	o.links = append(o.links, telemetry.SpanLink{
		Stream: st.gid, FromEpoch: epoch - 1, ToEpoch: epoch,
		FromWhere: niName(from), ToWhere: niName(to),
		Seq: seq, At: at, Kind: kind,
	})
	o.ctrlEvent("migrate-"+kind, st.gid, seq, fmt.Sprintf(
		"%s→%s epoch %d→%d cursor handed off", niName(from), niName(to), epoch-1, epoch))
}

// commitReadd records a teardown restart: the epoch advanced but the cursor
// is fresh, so the link is an explicit gap for the stitcher.
func (o *fleetObs) commitReadd(st *stream, to, epoch int, seq int64, at sim.Time) {
	if o == nil {
		return
	}
	o.links = append(o.links, telemetry.SpanLink{
		Stream: st.gid, FromEpoch: epoch - 1, ToEpoch: epoch,
		FromWhere: "?", ToWhere: niName(to),
		Seq: seq, At: at, Kind: fleetobs.LinkReadd,
	})
	o.ctrlEvent("readd", st.gid, seq, fmt.Sprintf(
		"→%s epoch %d→%d fresh window", niName(to), epoch-1, epoch))
}

// abortMove records a failed handoff: the stream's epoch stays where it is;
// the link annotates the attempt so the stitched trace shows it.
func (o *fleetObs) abortMove(st *stream, from, to, epoch int, seq int64, why string) {
	if o == nil {
		return
	}
	toW := "?"
	if to >= 0 {
		toW = niName(to)
	}
	o.links = append(o.links, telemetry.SpanLink{
		Stream: st.gid, FromEpoch: epoch, ToEpoch: epoch,
		FromWhere: niName(from), ToWhere: toW,
		Seq: seq, At: o.ctl.Now(), Kind: fleetobs.LinkAbort,
	})
	o.ctrlEvent("migrate-abort", st.gid, seq, why+" (epoch unchanged)")
}

// --- stress (deterministic pressure for shedding demos and tests) ------------

// armStress schedules the memory-pressure window on every card: charge the
// budget up to StressPct of size at StressAt, release at StressAt+StressDur.
// The charge never exceeds size (so it cannot breach), but past the high
// water it makes every scrape reply — and nothing else — inadmissible.
func (f *fleet) armStress() {
	cfg := f.cfg
	if cfg.StressPct <= 0 {
		return
	}
	for _, fc := range f.cards {
		fc.eng.At(cfg.StressAt, func() {
			bud := fc.ctl.Budget
			n := bud.Size()*int64(cfg.StressPct)/100 - bud.Used()
			if max := bud.Size() - bud.Used(); n > max {
				n = max
			}
			if n <= 0 {
				return
			}
			_ = bud.Charge(overload.ClassFrameBuf, n)
			fc.eng.At(cfg.StressAt+cfg.StressDur, func() {
				bud.Release(overload.ClassFrameBuf, n)
			})
		})
	}
}

// --- the run and the artifacts ----------------------------------------------

// RunFleetObs builds the chaos fleet with the scrape plane attached, runs
// it, and renders the observability artifacts alongside the chaos ones.
func RunFleetObs(cfg FleetConfig) *FleetObsResult {
	f := runFleetChaos(cfg, true)
	return f.collectObs()
}

// collectObs renders the observability artifacts from the settled fleet.
func (f *fleet) collectObs() *FleetObsResult {
	o := f.obs
	res := &FleetObsResult{Chaos: f.res, ObsBytes: o.obsBytes,
		Degrades: o.degrades, Restores: o.restores, Links: len(o.links)}

	// Rollup and top-k, from each card's last successful scrape. Stream
	// samples are kept only for streams the controller believes are placed
	// on the sampled card — a monitor keeps frozen rows for streams that
	// migrated away, and those must not double-count.
	cards := make([]fleetobs.CardStat, 0, len(f.cards))
	var pressures []fleetobs.StreamPressure
	for i := range f.cards {
		cs := fleetobs.CardStat{Card: i, Rung: o.rung[i]}
		cs.Host, cs.Switch = f.domain(i)
		s := o.last[i]
		if s == nil || o.dark[i] {
			cs.Dark = true
		}
		if s != nil {
			cs.GoodputMB = float64(s.recvBytes) / (1 << 20)
			cs.MemPct = 100 * float64(s.used) / float64(s.size)
			cs.Breaches = s.breaches
			res.Breaches += s.breaches
			for _, sm := range s.samples {
				if f.lead().loc[sm.Stream] != i || f.lead().lost[sm.Stream] {
					continue
				}
				cs.Streams++
				if h := fleetobs.Health(sm.State); h > cs.Health {
					cs.Health = h
				}
				if sm.ShortBurn > cs.Burn {
					cs.Burn = sm.ShortBurn
				}
				pressures = append(pressures, fleetobs.StreamPressure{
					Stream: sm.Stream, Card: i, Health: fleetobs.Health(sm.State),
					ShortBurn: sm.ShortBurn, LongBurn: sm.LongBurn,
				})
			}
		}
		cards = append(cards, cs)
	}
	res.Rollup = fleetobs.RenderRollup(cards)
	res.TopK = fleetobs.RenderTopK(pressures, fleetTopK)
	res.Timeline = o.tl.Render()

	// Scrape accounting and the in-band overhead against media goodput.
	for _, st := range f.streams {
		res.MediaBytes += st.cl.RecvBytes
	}
	var b strings.Builder
	fmt.Fprintf(&b, "in-band scrape accounting (base period %v, interval ×2 per shed)\n",
		fleetScrapeEvery)
	fmt.Fprintf(&b, "%-6s %6s %8s %6s %6s %6s %8s %6s %10s %8s\n",
		"card", "reqs", "samples", "sheds", "skips", "dark", "events", "lost", "bytes", "rung_max")
	var tot scrapeStat
	for i := range f.cards {
		st := o.stat[i]
		fmt.Fprintf(&b, "%-6s %6d %8d %6d %6d %6d %8d %6d %10d %8d\n",
			niName(i), st.reqs, st.samples, st.sheds, st.skips, st.dark,
			st.events, st.lost, st.bytes, o.rungMax[i])
		tot.reqs += st.reqs
		tot.samples += st.samples
		tot.sheds += st.sheds
		tot.skips += st.skips
		tot.dark += st.dark
		tot.events += st.events
		tot.lost += st.lost
		tot.bytes += st.bytes
	}
	fmt.Fprintf(&b, "%-6s %6d %8d %6d %6d %6d %8d %6d %10d %8s\n",
		"total", tot.reqs, tot.samples, tot.sheds, tot.skips, tot.dark,
		tot.events, tot.lost, tot.bytes, "-")
	overhead := 0.0
	if res.MediaBytes > 0 {
		overhead = 100 * float64(res.ObsBytes) / float64(res.MediaBytes)
	}
	fmt.Fprintf(&b, "in-band obs=%dB media=%dB overhead=%.3f%%\n",
		res.ObsBytes, res.MediaBytes, overhead)
	res.ScrapeStats = b.String()
	res.ScrapeReqs, res.ScrapeSamples = tot.reqs, tot.samples
	res.ScrapeSheds, res.ScrapeSkips, res.ScrapeDark = tot.sheds, tot.skips, tot.dark
	res.EventsShipped, res.EventsLost = tot.events, tot.lost

	// Stitched traces: every stream that recorded at least one handoff link,
	// read lane by lane from the card- and client-side span registries, in
	// card order.
	logs := make([]*telemetry.SpanLog, 0, 2*len(f.cards))
	for i := range f.cards {
		logs = append(logs, o.tel[i].Spans, o.ctel[i].Spans)
	}
	res.Stitched, res.StitchedLive = fleetobs.StitchLogs(logs, o.links)

	res.Summary = fmt.Sprintf(
		"fleet-obs: %d cards scraped every %v: reqs=%d samples=%d sheds=%d skips=%d dark=%d "+
			"events=%d lost=%d degrades=%d restores=%d links=%d stitched_live=%d "+
			"obs=%dB media=%dB overhead=%.3f%%",
		len(f.cards), fleetScrapeEvery, tot.reqs, tot.samples, tot.sheds, tot.skips,
		tot.dark, tot.events, tot.lost, o.degrades, o.restores, len(o.links),
		res.StitchedLive, res.ObsBytes, res.MediaBytes, overhead)
	return res
}
