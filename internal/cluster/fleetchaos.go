// Fleet chaos: correlated failure domains and live stream migration on the
// partitioned fleet. Cards are grouped into hosts (a host crash takes every
// card on its PCI bus) and hosts into switch domains (a switch failure
// partitions the fleet network); a seeded faults.Plan injects HostCrash,
// NetPartition, and RollingDrain events, and the DVCM controller partition
// reacts the way the cluster control plane does — cold migration from the
// last heartbeat checkpoint when a domain dies, live migration (DWCS window
// + frame cursor + queued-frame replay, stream ID preserved) for drains and
// partition avoidance, and a return-home rebalance pass once the domain
// recovers.
//
// Everything is deterministic: the chaos schedule is a pure function of the
// fault seed, the controller reacts at fixed detection delays, migrations
// are serialized through one controller work queue, and all cross-partition
// interaction rides the same fixed-latency hops the baseline fleet uses —
// so every artifact is byte-identical across Monolithic, Workers=1, and
// Workers=N runs of the same configuration.
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/blackbox"
	"repro/internal/dwcs"
	"repro/internal/faults"
	"repro/internal/nic"
	"repro/internal/sim"
)

func (cfg *FleetConfig) hosts() int {
	return (cfg.Cards + cfg.CardsPerHost - 1) / cfg.CardsPerHost
}

func (cfg *FleetConfig) switches() int {
	return (cfg.hosts() + cfg.HostsPerSwitch - 1) / cfg.HostsPerSwitch
}

// FleetChaosResult carries one chaos run's deterministic artifacts. Plan,
// Table, Pulse, MigLog, Recovery, Violations, CSV, and Summary are the
// byte-compared artifacts; Rounds is an engine diagnostic and is not.
type FleetChaosResult struct {
	Cards, Hosts, Switches, Streams int
	Dur                             sim.Time

	Plan       string // the injected chaos schedule
	Table      string // per-card ledger
	Pulse      string // controller poll log (DOWN rows while a card is dark)
	MigLog     string // every controller-driven migration, in decision order
	Recovery   string // per-event recovery times for affected streams
	Violations string // per-stream loss-window violations, during vs outside
	CSV        string // per-stream rows
	Summary    string

	LiveMigrations int // live moves (window+cursor exported, ID preserved)
	ColdMigrations int // checkpoint restores off dead domains (ID preserved)
	Readds         int // teardown restarts (fresh window — the failure path)
	Parked         int // streams left unplaced after every candidate refused
	Replayed       int // in-flight frames replayed onto migration targets

	ViolDuring   int64 // loss-window violations inside padded outage windows
	ViolOutside  int64 // violations outside every outage window (want: 0)
	SeveredDrops int64 // frames dropped on severed fleet-network hops

	Recv, Late int64
	Rounds     int64
}

// --- failure-domain geometry ------------------------------------------------

func (f *fleet) hostOf(card int) int   { return card / f.cfg.CardsPerHost }
func (f *fleet) switchOf(card int) int { return f.hostOf(card) / f.cfg.HostsPerSwitch }

func hostName(h int) string   { return fmt.Sprintf("h%02d", h) }
func switchName(s int) string { return fmt.Sprintf("sw%d", s) }

// domain names card's host and switch domain.
func (f *fleet) domain(card int) (host, sw string) {
	return f.cards[card].host, f.cards[card].sw
}

// targetIndex parses the domain a host or switch fault strikes: the host
// index of a HostCrash or RollingDrain, the switch index of a NetPartition.
func targetIndex(e faults.Event) int {
	var i int
	switch e.Kind {
	case faults.HostCrash, faults.RollingDrain:
		fmt.Sscanf(e.Target, "h%d", &i)
	case faults.NetPartition:
		fmt.Sscanf(e.Target, "sw%d", &i)
	}
	return i
}

// active reports whether event e covers time t.
func eventActive(e faults.Event, t sim.Time) bool {
	return e.At <= t && t < e.At+e.Duration
}

// hostFaultAt reports whether card's host is inside a fault window of the
// given kind at t.
func (f *fleet) hostFaultAt(kind faults.Kind, card int, t sim.Time) bool {
	for k, e := range f.plan.Events {
		if e.Kind == kind && eventActive(e, t) && f.hostOf(card) == f.planDom[k] {
			return true
		}
	}
	return false
}

// deadAt reports whether card i is inside a HostCrash window at t.
func (f *fleet) deadAt(card int, t sim.Time) bool { return f.hostFaultAt(faults.HostCrash, card, t) }

// severedAt reports whether the fleet-network path between cards a and b is
// cut by an active NetPartition at t: a switch failure isolates its card
// group, so the hop dies exactly when one endpoint is inside the failed
// domain and the other is not.
func (f *fleet) severedAt(a, b int, t sim.Time) bool {
	for k, e := range f.plan.Events {
		if e.Kind != faults.NetPartition || !eventActive(e, t) {
			continue
		}
		s := f.planDom[k]
		if (f.switchOf(a) == s) != (f.switchOf(b) == s) {
			return true
		}
	}
	return false
}

// usable reports whether card i can serve streams at t (alive, not in
// maintenance).
func (f *fleet) usable(card int, t sim.Time) bool {
	return !f.deadAt(card, t) && !f.hostFaultAt(faults.RollingDrain, card, t)
}

// desired returns where stream st should live at time t: its original card
// when that card is alive, not draining, and can reach the client; otherwise
// the first card (scanning from the original) that qualifies. Returns -1
// when no card currently qualifies — the caller decides whether staying put
// or a degraded placement beats not moving. Deterministic and a pure
// function of the static plan.
func (f *fleet) desired(st *stream, t sim.Time) int {
	ok := func(i int) bool {
		return f.usable(i, t) && !f.severedAt(i, st.home, t)
	}
	if ok(st.orig) {
		return st.orig
	}
	for d := 1; d < f.cfg.Cards; d++ {
		if i := (st.orig + d) % f.cfg.Cards; ok(i) {
			return i
		}
	}
	return -1
}

// candidates lists up to three target cards for a migration, preferring
// want and then scanning the ring. Tier one is strict: alive, not draining,
// reachable from the client. When relax is set (the stream's current card
// is dead, so anything alive beats losing the stream) two degraded tiers
// open up in turn: draining-but-reachable cards (maintenance hosts still
// serve), then alive-but-severed cards (the window state survives; frames
// drop until the partition heals).
func (f *fleet) candidates(st *stream, t sim.Time, want int, relax bool) []int {
	tier := func(ok func(i int) bool) []int {
		var out []int
		add := func(i int) {
			if !ok(i) {
				return
			}
			for _, j := range out {
				if j == i {
					return
				}
			}
			if len(out) < 3 {
				out = append(out, i)
			}
		}
		if want >= 0 {
			add(want)
		} else {
			want = st.orig
		}
		for d := 0; d < f.cfg.Cards; d++ {
			add((want + d) % f.cfg.Cards)
		}
		return out
	}
	out := tier(func(i int) bool { return f.usable(i, t) && !f.severedAt(i, st.home, t) })
	if len(out) > 0 || !relax {
		return out
	}
	out = tier(func(i int) bool { return !f.deadAt(i, t) && !f.severedAt(i, st.home, t) })
	if len(out) > 0 {
		return out
	}
	return tier(func(i int) bool { return !f.deadAt(i, t) })
}

// wipedSince reports whether card i's scheduler state was erased (a host
// crash recovery wipe) after the stream was last placed on it — the
// controller's view of that placement is stale and the stream needs a
// teardown restart.
func (f *fleet) wipedSince(card int, placedAt, t sim.Time) bool {
	for k, e := range f.plan.Events {
		if e.Kind != faults.HostCrash || f.hostOf(card) != f.planDom[k] {
			continue
		}
		if w := e.At + e.Duration; w <= t && w > placedAt {
			return true
		}
	}
	return false
}

// --- the reconcile loop ------------------------------------------------------

// reconcile runs in the leading replica at each fault boundary
// (+detectDelay): every stream whose current placement no longer matches its
// desired one is queued for migration, in gid order.
func (r *ctrlRep) reconcile() {
	for _, st := range r.f.streams {
		st := st
		r.enqueueJob(func(done func()) { r.step(st, done) })
	}
}

// markLost records a stream as unplaced, journaling the fact so the standby
// parks it too.
func (r *ctrlRep) markLost(gid int) {
	r.lost[gid] = true
	r.journal(jrec{op: jLost, gid: gid})
}

// step decides and executes one stream's move, if any.
func (r *ctrlRep) step(st *stream, done func()) {
	f := r.f
	t := r.eng().Now()
	gid := st.gid
	want := f.desired(st, t)
	if r.lost[gid] {
		// Unplaced (every candidate refused, or its state was erased):
		// restart it fresh as soon as somewhere can take it.
		if want >= 0 {
			r.readd(st, want, done)
			return
		}
		done()
		return
	}
	cur := r.loc[gid]
	if f.deadAt(cur, t) {
		// The stream's card is dark: restore from the last heartbeat
		// checkpoint — the window position and frame cursor survive even
		// though the card contributed nothing at failure time. Degraded
		// targets (draining, or severed until the partition heals) beat
		// losing the stream, so the candidate tiers relax.
		img, ok := r.ckpt[gid]
		if !ok {
			r.markLost(gid)
			r.logf(t, "t=%-12v cold gid=%02d ni%02d→?     no checkpoint; stream lost until readd", t, gid, cur)
			f.obs.ctrlEvent("stream-lost", gid, 0,
				fmt.Sprintf("ni%02d dark and no checkpoint; awaiting readd", cur))
			done()
			return
		}
		r.journal(jrec{op: jIntent, gid: gid, from: cur, to: want})
		r.journal(jrec{op: jImage, gid: gid, from: cur, img: img, hasImg: true})
		r.placeImage(st, cur, img, nil, true, f.candidates(st, t, want, true), done)
		return
	}
	if f.wipedSince(cur, r.placedAt[gid], t) {
		// The card recovered from a host crash after this stream was placed
		// on it: the recovery wipe erased the stream, so the controller's
		// placement record is a ghost. Teardown restart.
		r.markLost(gid)
		r.logf(t, "t=%-12v wipe gid=%02d ni%02d state erased by crash recovery; readd pending", t, gid, cur)
		f.obs.ctrlEvent("state-wiped", gid, 0,
			fmt.Sprintf("ni%02d crash recovery erased placement; readd pending", cur))
		r.step(st, done)
		return
	}
	if want < 0 || want == cur {
		// Either the placement is right, or no strict candidate exists and
		// the current card is at least alive — moving to a degraded target
		// would not improve anything.
		done()
		return
	}
	r.migrateLive(st, cur, want, done)
}

// migrateLive is the three-hop live protocol: detach on the source (image +
// queued frames, stream removed, producer orphans out), then import on the
// target with frame replay and a producer respawned at the stream's cursor.
// The intent is journaled before the detach leaves — if this replica dies
// mid-protocol, its successor knows exactly which stream is homeless.
func (r *ctrlRep) migrateLive(st *stream, from, want int, done func()) {
	f := r.f
	gid := st.gid
	r.journal(jrec{op: jIntent, gid: gid, from: from, to: want})
	r.cmd(from, "detach", gid, func() {
		src := f.cards[from]
		img, queued, err := src.ext.DetachStream(gid)
		r.fromCard(from, func() {
			if err != nil {
				// Controller view was stale (stream already gone on the
				// source). Nothing was detached; mark it lost so a later
				// reconcile restarts it.
				r.markLost(gid)
				r.logf(r.eng().Now(), "t=%-12v live gid=%02d ni%02d→ni%02d detach failed: %v",
					r.eng().Now(), gid, from, want, err)
				f.obs.abortMove(st, from, want, r.sepoch[gid], 0, "detach failed")
				done()
				return
			}
			// The stream is detached and homeless from here on, so the
			// degraded candidate tiers are open: anywhere alive beats loss.
			r.journal(jrec{op: jImage, gid: gid, from: from, img: img, hasImg: true})
			t := r.eng().Now()
			r.placeImage(st, from, img, queued, false, f.candidates(st, t, want, true), done)
		})
	}, done)
}

// placeImage walks the candidate list: import the migration image through
// the target's overload-budget front door, replay the queued frames, and
// respawn the producer at the stream's frame cursor. A refusal (budget past
// high water, card crashed in flight) falls through to the next candidate;
// exhausting the list parks the stream for a later readd.
func (r *ctrlRep) placeImage(st *stream, from int, img dwcs.StreamSnapshot,
	queued []dwcs.Packet, cold bool, cands []int, done func()) {
	f := r.f
	gid := st.gid
	kind := "live"
	if cold {
		kind = "cold"
	}
	// The epoch this placement will commit as, decided before the first hop
	// so the target card can stamp spans with it at import time.
	nextEpoch := r.sepoch[gid] + 1
	if len(cands) == 0 {
		r.markLost(gid)
		r.parked++
		r.logf(r.eng().Now(), "t=%-12v %s gid=%02d ni%02d→?     no live candidate; stream parked",
			r.eng().Now(), kind, gid, from)
		f.obs.abortMove(st, from, -1, r.sepoch[gid], img.Seq, "no candidate; parked")
		done()
		return
	}
	var try func(k int)
	try = func(k int) {
		to := cands[k]
		r.cmd(to, "import", gid, func() {
			dst := f.cards[to]
			var err error
			var importAt sim.Time
			replayed := 0
			if dst.sched.Crashed() {
				err = fmt.Errorf("card ni%02d crashed", to)
			} else if err = dst.ext.ImportStream(img); err == nil {
				for _, pkt := range queued {
					pkt.Payload = nic.AddrPayload(st.addr)
					if dst.ext.Enqueue(gid, pkt) == nil {
						replayed++
					}
				}
				start := int(img.Seq) + len(queued)
				p := dst.ext.SpawnPeerProducerFrom(dst.disk, f.clip, gid, st.addr,
					fleetStreamPeriod, 1<<30, start)
				st.prods = append(st.prods, p)
				importAt = f.cardImport(to, st, nextEpoch)
			}
			r.fromCard(to, func() {
				if err == nil {
					r.loc[gid] = to
					r.placedAt[gid] = r.eng().Now()
					delete(r.lost, gid)
					r.sepoch[gid] = nextEpoch
					if cold {
						r.cold++
					} else {
						r.live++
					}
					r.replayed += replayed
					r.logf(r.eng().Now(), "t=%-12v %s gid=%02d ni%02d→ni%02d ok seq=%d win=(%d,%d) replay=%d",
						r.eng().Now(), kind, gid, from, to,
						img.Seq, img.WindowX, img.WindowY, replayed)
					r.journal(jrec{op: jCommit, gid: gid, from: from, to: to,
						img: img, hasImg: true, sepoch: nextEpoch})
					f.obs.commitMove(st, from, to, nextEpoch, img.Seq, importAt, kind)
					done()
					return
				}
				r.logf(r.eng().Now(), "t=%-12v %s gid=%02d ni%02d→ni%02d refused: %v",
					r.eng().Now(), kind, gid, from, to, err)
				if k+1 < len(cands) {
					try(k + 1)
					return
				}
				r.markLost(gid)
				r.parked++
				r.logf(r.eng().Now(), "t=%-12v %s gid=%02d ni%02d→?     every candidate refused; stream parked",
					r.eng().Now(), kind, gid, from)
				f.obs.abortMove(st, from, to, r.sepoch[gid], img.Seq, "every candidate refused; parked")
				done()
			})
		}, done)
	}
	try(0)
}

// cardImport runs in card to's partition when a migration (or readd) lands:
// the card stamps the stream's new epoch before any frame dispatches, and
// the scrape plane tracks its SLO there. Returns the card's import time — the
// instant the controller stamps on the span link, because replayed frames
// dispatch before the commit hop reaches the controller.
func (f *fleet) cardImport(to int, st *stream, epoch int) sim.Time {
	dst := f.cards[to]
	dst.epoch[st.gid] = epoch
	f.obs.trackOn(to, st, dst.ext.Sched)
	return dst.eng.Now()
}

// readd is the teardown path: the stream's state is gone (no checkpoint, or
// nowhere to place it while its domain was down), so it restarts with a
// fresh window on card `to`. The ID is preserved but the window history is
// not — this is exactly what migration exists to avoid, so it is counted
// separately and weighed against the resume rate.
func (r *ctrlRep) readd(st *stream, to int, done func()) {
	f := r.f
	gid := st.gid
	nextEpoch := r.sepoch[gid] + 1
	r.cmd(to, "readd", gid, func() {
		dst := f.cards[to]
		var err error
		var importAt sim.Time
		var startSeq int64
		if dst.sched.Crashed() {
			err = fmt.Errorf("card ni%02d crashed", to)
		} else if err = dst.ext.AddStream(st.spec); err == nil {
			start := 0
			if img, ok := r.ckpt[gid]; ok {
				start = int(img.Seq)
			}
			p := dst.ext.SpawnPeerProducerFrom(dst.disk, f.clip, gid, st.addr,
				fleetStreamPeriod, 1<<30, start)
			st.prods = append(st.prods, p)
			startSeq = int64(start)
			importAt = f.cardImport(to, st, nextEpoch)
		}
		r.fromCard(to, func() {
			if err == nil {
				r.loc[gid] = to
				r.placedAt[gid] = r.eng().Now()
				delete(r.lost, gid)
				r.sepoch[gid] = nextEpoch
				r.readds++
				r.logf(r.eng().Now(), "t=%-12v readd gid=%02d →ni%02d fresh window (teardown restart)",
					r.eng().Now(), gid, to)
				r.journal(jrec{op: jCommit, gid: gid, to: to, sepoch: nextEpoch})
				f.obs.commitReadd(st, to, nextEpoch, startSeq, importAt)
			} else {
				r.logf(r.eng().Now(), "t=%-12v readd gid=%02d →ni%02d refused: %v",
					r.eng().Now(), gid, to, err)
				f.obs.ctrlEvent("readd-refused", gid, 0, fmt.Sprintf("→ni%02d: %v", to, err))
			}
			done()
		})
	}, done)
}

// --- polling, checkpoints, and violation accounting --------------------------

// inOutage reports whether the card-side interval (a, b] overlaps any padded
// outage window [At, At+Duration+detectDelay+fleetSettleMargin] — violations in
// such an interval are attributed to the injected fault.
func (f *fleet) inOutage(a, b sim.Time) bool {
	for _, e := range f.plan.Events {
		end := e.At + e.Duration + f.cfg.detectDelay() + fleetSettleMargin
		if b >= e.At && a < end {
			return true
		}
	}
	return false
}

// account folds one stream sighting (a heartbeat snapshot taken on a card at
// card-side time `at`) into the violation ledger, classifying any new
// violations by whether the interval since the last sighting touches an
// outage window. The ledger rides checkpoints across failovers: cumulative
// counters make the first post-takeover delta cover whatever the deposed
// leader saw after its last checkpoint, so nothing is lost or double-counted.
func (r *ctrlRep) account(sn dwcs.StreamSnapshot, at sim.Time) {
	gid := sn.Spec.ID
	v := sn.Stats.Violations
	if v > r.lastV[gid] {
		delta := v - r.lastV[gid]
		tally := r.violByGid[gid]
		if tally == nil {
			tally = new([2]int64)
			r.violByGid[gid] = tally
		}
		if r.f.inOutage(r.lastT[gid], at) {
			r.violDuring += delta
			tally[0] += delta
		} else {
			r.violOutside += delta
			tally[1] += delta
		}
	}
	// A rewind (cold restore from a stale checkpoint, or a fresh readd)
	// lowers the cumulative counter; re-seed so later deltas stay honest.
	r.lastV[gid] = v
	r.lastT[gid] = at
}

// poll is one controller round: every card is probed over the management
// network (out-of-band — a fleet-network partition does not sever it), its
// stream snapshots become the cold-migration checkpoints, and violations
// are classified. A crashed card answers nothing and logs a DOWN row; a
// card whose fence outranks this replica's epoch rejects the probe instead
// (the rejection demotes the sender).
func (r *ctrlRep) poll() {
	f := r.f
	for i := range f.cards {
		i := i
		r.cmd(i, "poll", 0, func() {
			fc := f.cards[i]
			at := fc.eng.Now()
			if fc.sched.Crashed() {
				r.fromCard(i, func() {
					r.pulse(at, i, "t=%-10v ni%02d DOWN", at, i)
				})
				return
			}
			snaps := fc.ext.Sched.Snapshot()
			sent, dropped := fc.ext.Sent, fc.ext.Dropped
			used, size := fc.ctl.Budget.Used(), fc.ctl.Budget.Size()
			r.fromCard(i, func() {
				var viol int64
				for _, sn := range snaps {
					viol += sn.Stats.Violations
					r.ckpt[sn.Spec.ID] = sn
					r.account(sn, at)
				}
				r.pulse(at, i,
					"t=%-10v ni%02d streams=%d sent=%-6d dropped=%-4d viol=%-3d mem=%d/%d",
					at, i, len(snaps), sent, dropped, viol, used, size)
			})
		}, nil)
	}
}

// --- fault arming ------------------------------------------------------------

// armHostCrash schedules the crash and recovery of every card on the event's
// host, in each card's own partition. Recovery resets the card and wipes its
// scheduler: any stream still registered was either migrated away (the copy
// here is stale) or unrecoverable (its frames died with the card) — either
// way the controller owns re-placement, and the wipe guarantees a resumed
// producer cannot double-feed a migrated stream.
func (f *fleet) armHostCrash(e faults.Event, h int) {
	for i := 0; i < f.cfg.Cards; i++ {
		if f.hostOf(i) != h {
			continue
		}
		fc := f.cards[i]
		fc.eng.At(e.At, func() {
			fc.rec.Record(blackbox.Event{At: fc.eng.Now(), Kind: blackbox.KindDomainFault,
				Note: "host-crash " + e.Target})
			fc.sched.Crash()
			fc.disk.Crash()
		})
		fc.eng.At(e.At+e.Duration, func() {
			fc.sched.Reset()
			fc.disk.Reset()
			for _, id := range fc.ext.Sched.StreamIDs() {
				fc.ext.RemoveStream(id)
			}
			fc.rec.Record(blackbox.Event{At: fc.eng.Now(), Kind: blackbox.KindDomainFault,
				Note: "host-recover " + e.Target})
		})
	}
}

// armDomainMark drops a domain-fault marker in each member card's flight
// recorder at strike and clear time (NetPartition and RollingDrain leave the
// card itself running, so this is the only card-side trace).
func (f *fleet) armDomainMark(e faults.Event, member func(card int) bool) {
	for i := 0; i < f.cfg.Cards; i++ {
		if !member(i) {
			continue
		}
		fc := f.cards[i]
		note := e.Kind.String() + " " + e.Target
		fc.eng.At(e.At, func() {
			fc.rec.Record(blackbox.Event{At: fc.eng.Now(), Kind: blackbox.KindDomainFault, Note: note})
		})
		fc.eng.At(e.At+e.Duration, func() {
			fc.rec.Record(blackbox.Event{At: fc.eng.Now(), Kind: blackbox.KindDomainFault,
				Note: note + " cleared"})
		})
	}
}

// affects reports whether plan event k bears on stream st, attributed by the
// stream's original placement (crash/drain: sourced on the failed host;
// partition: its source→client path straddles the failed switch domain).
func (f *fleet) affects(k int, st *stream) bool {
	switch f.plan.Events[k].Kind {
	case faults.HostCrash, faults.RollingDrain:
		return f.hostOf(st.orig) == f.planDom[k]
	case faults.NetPartition:
		s := f.planDom[k]
		return (f.switchOf(st.orig) == s) != (f.switchOf(st.home) == s)
	}
	return false
}

// --- the run -----------------------------------------------------------------

// RunFleetChaos builds the fleet with failure domains, arms the chaos plan,
// and runs it, returning byte-deterministic artifacts.
func RunFleetChaos(cfg FleetConfig) *FleetChaosResult {
	f := runFleetChaos(cfg, false)
	defer f.close()
	return f.res
}

// runFleetChaos is the one build-run-collect path of every chaos-fleet
// scenario: the fleet as cfg shapes it — replicated controller with CtrlHA,
// scrape plane with observe — run to Dur and settled, its chaos artifacts
// rendered. The caller renders what its part adds and closes the fleet.
func runFleetChaos(cfg FleetConfig, observe bool) *fleet {
	cfg.setDefaults()
	f := buildFleetChaos(cfg, observe)
	f.res.Rounds = f.run()
	f.collectChaos()
	return f
}

// buildFleetChaos assembles the chaos fleet ready to run: topology, cards,
// streams, armed chaos plan, and the controller's poll (and, with observe,
// scrape) loop. The scrape plane is attached to the cards before the streams
// exist, so its card-side instrumentation is in place before the first event
// fires. cfg must have its defaults set.
func buildFleetChaos(cfg FleetConfig, observe bool) *fleet {
	f := newFleet(cfg, true)
	f.res = &FleetChaosResult{
		Cards: cfg.Cards, Hosts: cfg.hosts(), Switches: cfg.switches(),
		Streams: cfg.Cards * cfg.StreamsPerCard, Dur: cfg.Dur,
	}

	// The chaos plan: correlated faults over the host and switch domains,
	// drawn inside the middle of the run so recovery (and a clean tail that
	// proves zero violations outside the outage) fits before Dur.
	var hostNames, switchNames []string
	for h := 0; h < cfg.hosts(); h++ {
		hostNames = append(hostNames, hostName(h))
	}
	for s := 0; s < cfg.switches(); s++ {
		switchNames = append(switchNames, switchName(s))
	}
	plan, err := faults.Generate(cfg.FaultSeed, faults.Spec{
		Start: cfg.Dur / 6, Span: cfg.Dur / 4,
		Hosts: hostNames, Switches: switchNames,
		Counts: map[faults.Kind]int{
			faults.HostCrash:    cfg.HostCrashes,
			faults.NetPartition: cfg.NetPartitions,
			faults.RollingDrain: cfg.RollingDrains,
		},
		MinDuration: cfg.Dur / 8, MaxDuration: cfg.Dur / 5,
	})
	if err != nil {
		panic(err)
	}
	if cfg.CtrlHA {
		appendCtrlEvents(plan, cfg)
	}
	plan.Sort()
	f.plan = plan
	for _, e := range plan.Events {
		f.planDom = append(f.planDom, targetIndex(e))
	}

	// Controller replicas. With CtrlHA the standby gets its own partition
	// ("dvcm-b"), added after the cards so the merge order of same-instant
	// cross-partition events puts the primary's traffic first — matching the
	// monolithic insertion order.
	f.reps = append(f.reps, newCtrlRep(f, 0, f.ctrl))
	if cfg.CtrlHA {
		var bPart *sim.Partition
		if !cfg.Monolithic {
			bPart = f.topo.AddPartition("dvcm-b")
			for _, fc := range f.cards {
				mustConnect(f.topo, bPart, fc.part, fleetNetLatency)
				mustConnect(f.topo, fc.part, bPart, fleetNetLatency)
			}
			mustConnect(f.topo, f.ctrl, bPart, fleetNetLatency)
			mustConnect(f.topo, bPart, f.ctrl, fleetNetLatency)
		}
		rb := newCtrlRep(f, 1, bPart)
		f.reps[0].peer, rb.peer = rb, f.reps[0]
		f.reps = append(f.reps, rb)
	}
	if observe {
		f.obs = newFleetObs(f.cards, f.ctrlEng())
	}
	f.addStreams()

	// Arm the plan: card-side crash/reset and flight-recorder marks at build
	// time, controller-side reconciles one detection delay after each fault
	// boundary. Reconciles are armed on every replica but run only on the
	// one holding leadership when the boundary fires.
	boundary := map[sim.Time]bool{}
	for k, e := range plan.Events {
		d := f.planDom[k]
		switch e.Kind {
		case faults.HostCrash:
			f.armHostCrash(e, d)
		case faults.NetPartition:
			f.armDomainMark(e, func(card int) bool { return f.switchOf(card) == d })
		case faults.RollingDrain:
			f.armDomainMark(e, func(card int) bool { return f.hostOf(card) == d })
		case faults.ControllerCrash, faults.ControllerPartition:
			f.armCtrlFault(e)
		}
		boundary[e.At+cfg.detectDelay()] = true
		boundary[e.At+e.Duration+cfg.detectDelay()] = true
	}
	var times []sim.Time
	for t := range boundary {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, t := range times {
		for _, r := range f.reps {
			r := r
			r.eng().At(t, func() {
				if r.leader && !r.deadNow() {
					r.reconcile()
				}
			})
		}
	}

	for _, r := range f.reps {
		r.eng().Every(cfg.PollEvery, r.tick)
	}
	if f.obs != nil {
		f.ctrlEng().Every(fleetScrapeEvery, f.scrape)
		f.armStress()
	}
	return f
}

// appendCtrlEvents adds the hand-timed controller faults to the generated
// plan (the caller re-sorts). The first crash is anchored one detection
// delay plus a hop plus a couple of milliseconds after the first host crash
// (or first event) — squarely inside the primary's post-fault migration
// burst, so the kill lands mid-protocol: the journal holds an intent whose
// commit reply the crash swallowed, and the standby must prove it complete
// (adopt) or not (re-issue). The partition starts after the last crash has
// recovered and the replicas have exchanged a checkpoint or two, so the
// split-brain scenario runs against a healthy pair.
func appendCtrlEvents(plan *faults.Plan, cfg FleetConfig) {
	anchor := cfg.Dur / 3
	if len(plan.Events) > 0 {
		anchor = plan.Events[0].At
		for _, e := range plan.Events {
			if e.Kind == faults.HostCrash {
				anchor = e.At
				break
			}
		}
	}
	crashAt := anchor + cfg.detectDelay() + fleetNetLatency + 2*sim.Millisecond
	crashDur := cfg.Dur / 4
	spacing := crashDur + 4*cfg.PollEvery
	for k := 0; k < cfg.CtrlCrashes; k++ {
		plan.Events = append(plan.Events, faults.Event{
			At: crashAt + sim.Time(k)*spacing, Duration: crashDur,
			Kind: faults.ControllerCrash, Target: ctrlReplicaName(0),
		})
	}
	lastCrash := crashAt
	if cfg.CtrlCrashes > 1 {
		lastCrash += sim.Time(cfg.CtrlCrashes-1) * spacing
	}
	partAt := lastCrash + crashDur + 2*cfg.PollEvery
	partDur := cfg.Dur / 6
	for k := 0; k < cfg.CtrlPartitions; k++ {
		plan.Events = append(plan.Events, faults.Event{
			At: partAt + sim.Time(k)*(partDur+4*cfg.PollEvery), Duration: partDur,
			Kind: faults.ControllerPartition, Target: ctrlReplicaName(0),
		})
	}
}

// armCtrlFault schedules a controller fault's replica-side hooks. Liveness
// and pair-link severance are plan-derived pure predicates; these hooks only
// handle the dynamic fallout (wiping a crashed replica's job queue, timeline
// rows, the recovering leader's journal reconcile).
func (f *fleet) armCtrlFault(e faults.Event) {
	for _, r := range f.reps {
		r := r
		e := e
		if e.Kind == faults.ControllerCrash {
			if e.Target != r.name {
				continue
			}
			r.eng().At(e.At, func() { r.onCrash(e) })
			r.eng().At(e.At+e.Duration, func() { r.onRecover(e) })
			continue
		}
		// The pair link is symmetric: both replicas log the severance.
		r.eng().At(e.At, func() {
			r.halog("ctrl-partition", 0, "replica pair link severed for %v", e.Duration)
		})
		r.eng().At(e.At+e.Duration, func() {
			r.halog("ctrl-partition", 0, "replica pair link healed")
		})
	}
}

// collectChaos renders the artifacts from the settled fleet. Runs after the
// topology has fully stopped, so cross-partition reads are safe.
func (f *fleet) collectChaos() {
	res := f.res
	cfg := f.cfg
	lead := f.lead()

	// Final sweep: fold each card's end-of-run stream stats into the leading
	// replica's violation ledger (covering the tail after the last poll).
	// The ledger rode checkpoints across any failovers, so the leader's copy
	// is the complete one; the deposed replica's is a stale prefix.
	for _, fc := range f.cards {
		if fc.sched.Crashed() {
			continue
		}
		for _, sn := range fc.ext.Sched.Snapshot() {
			lead.account(sn, cfg.Dur)
		}
	}
	res.ViolDuring, res.ViolOutside = lead.violDuring, lead.violOutside

	// Migration action counters are per-replica (each counts only the moves
	// it committed — fencing keeps them disjoint) and summed here.
	for _, r := range f.reps {
		res.LiveMigrations += r.live
		res.ColdMigrations += r.cold
		res.Readds += r.readds
		res.Parked += r.parked
		res.Replayed += r.replayed
	}

	res.Plan = f.plan.String()

	// Per-card ledger.
	var table strings.Builder
	fmt.Fprintf(&table, "%-6s %-5s %8s %8s %8s %8s %8s %8s %10s\n",
		"card", "host", "injected", "sent", "dropped", "recv", "late", "severed", "recvMB")
	perCard := f.cardTotals()
	for i, fc := range f.cards {
		c := perCard[i]
		fmt.Fprintf(&table, "ni%02d   %-5s %8d %8d %8d %8d %8d %8d %10.2f\n",
			i, fc.host, c.injected, fc.ext.Sent, fc.ext.Dropped,
			c.recv, c.late, fc.severed, float64(c.bytes)/(1<<20))
		res.Recv += c.recv
		res.Late += c.late
		res.SeveredDrops += fc.severed
	}
	res.Table = table.String()

	res.Pulse = strings.Join(mergeRows(f.reps, func(r *ctrlRep) []logRow { return r.pulses }), "\n") + "\n"
	res.MigLog = strings.Join(mergeRows(f.reps, func(r *ctrlRep) []logRow { return r.migLog }), "\n") + "\n"

	// Recovery table: for each plan event, the affected streams' first
	// client arrival at or after the strike.
	var rec strings.Builder
	for k, e := range f.plan.Events {
		fmt.Fprintf(&rec, "%v %s %s (for %v):\n", e.At, e.Kind, e.Target, e.Duration)
		for _, st := range f.streams {
			if !f.affects(k, st) {
				continue
			}
			if got := st.watchGot[k]; got > 0 {
				fmt.Fprintf(&rec, "  gid=%02d recovered +%v (end ni%02d)\n",
					st.gid, got-e.At, lead.loc[st.gid])
			} else {
				fmt.Fprintf(&rec, "  gid=%02d no frame after strike\n", st.gid)
			}
		}
	}
	res.Recovery = rec.String()

	// Violation table, per stream.
	var vio strings.Builder
	fmt.Fprintf(&vio, "%-6s %10s %10s\n", "stream", "during", "outside")
	for _, st := range f.streams {
		d, o := int64(0), int64(0)
		if t := lead.violByGid[st.gid]; t != nil {
			d, o = t[0], t[1]
		}
		fmt.Fprintf(&vio, "g%02d    %10d %10d\n", st.gid, d, o)
	}
	fmt.Fprintf(&vio, "%-6s %10d %10d\n", "total", res.ViolDuring, res.ViolOutside)
	res.Violations = vio.String()

	// Per-stream CSV.
	var csv strings.Builder
	csv.WriteString("orig_card,gid,addr,end_card,injected,recv,bytes,late,viol_during,viol_outside\n")
	for _, st := range f.streams {
		d, o := int64(0), int64(0)
		if t := lead.violByGid[st.gid]; t != nil {
			d, o = t[0], t[1]
		}
		fmt.Fprintf(&csv, "%02d,%d,%s,%02d,%d,%d,%d,%d,%d,%d\n",
			st.orig, st.gid, st.addr, lead.loc[st.gid], st.total().injected,
			st.cl.Received, st.cl.RecvBytes, st.cl.Late, d, o)
	}
	res.CSV = csv.String()

	moved := res.LiveMigrations + res.ColdMigrations
	attempted := moved + res.Readds + res.Parked
	resumed := 100.0
	if attempted > 0 {
		resumed = 100 * float64(moved) / float64(attempted)
	}
	res.Summary = fmt.Sprintf(
		"fleet-chaos: %d cards / %d hosts / %d switches × %d streams over %v: "+
			"events=%d live=%d cold=%d readd=%d parked=%d replay=%d resumed=%.0f%% "+
			"violDuring=%d violOutside=%d severed=%d recv=%d late=%d",
		res.Cards, res.Hosts, res.Switches, cfg.StreamsPerCard, res.Dur,
		len(f.plan.Events), res.LiveMigrations, res.ColdMigrations, res.Readds,
		res.Parked, res.Replayed, resumed,
		res.ViolDuring, res.ViolOutside, res.SeveredDrops, res.Recv, res.Late)
}
