// Crash-tolerant DVCM control plane: a replicated controller for the chaos
// fleet. The primary replica journals every placement decision (stream→card,
// DWCS (x,y) window, frame cursor, stream epoch) to a standby replica as
// priced DVCM messages, and ships a full-state checkpoint on every PollEvery
// boundary — the checkpoint doubles as the heartbeat the standby watches.
// When checkpoints stop (ControllerCrash kills the primary, or
// ControllerPartition severs the replica pair), the standby bumps the
// fleet-wide leader epoch and takes over: it fences every card against the
// old epoch, queries the cards' stream state, reconciles that view against
// its journal — adopting migrations the journal proves complete, re-issuing
// only the ones it proves incomplete — and resumes polling.
//
// Fencing is jurisdictional: the card a command lands on decides whether it
// runs, never the sender after the fact. Every controller→card command
// (poll, scrape, detach, import, readd) is stamped with the sender's leader
// epoch, and the card rejects any stamp older than the highest epoch it has
// witnessed — so a partitioned ex-primary can never double-migrate a
// stream. The ex-primary demotes itself on the first fenced rejection (or on
// receiving a higher-epoch checkpoint once the partition heals) and becomes
// the new standby; there is no automatic failback.
//
// Determinism: replica liveness (crashed/isolated) is a pure function of the
// static fault plan, evaluated partition-locally at send and delivery time,
// so both replicas and every card see the identical cut at any worker count.
// Role state (leader flag, epoch, checkpoint clock) is dynamic but touched
// only inside its own replica's partition; card-side fence state is touched
// only inside that card's partition; and the per-replica artifact fragments
// (migration log, pulse rows, incident events) are merged after the run by
// (time, replica, arrival) — so a single-replica run renders byte-identical
// to the pre-HA control plane, and an HA run is byte-identical across
// Monolithic, Workers=1, and Workers=N.

package cluster

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/blackbox"
	"repro/internal/dvcmnet"
	"repro/internal/dwcs"
	"repro/internal/faults"
	"repro/internal/fleetobs"
	"repro/internal/sim"
)

// logRow is one per-replica artifact line, timestamped for the post-run
// merge (the text already embeds the time in the legacy column format).
// card is the card a pulse row reports on, -1 on migration rows.
type logRow struct {
	at   sim.Time
	card int
	text string
}

// Journal record opcodes. Intent is write-ahead: it ships before the detach
// hop leaves the leader, so a crash mid-protocol always leaves the standby
// knowing which stream was in flight.
const (
	jIntent = iota // migration decided: stream, source, wanted target
	jImage         // source detached: the live (x,y) window + frame cursor
	jCommit        // placement committed on a card
	jLost          // stream parked/lost; awaiting a readd
)

// jrec is one journal record. Applied on the standby it maintains the same
// materialized view the leader holds.
type jrec struct {
	op          int
	gid         int
	from, to    int
	img         dwcs.StreamSnapshot
	hasImg      bool
	sepoch      int
	at          sim.Time // leader-side decision time
	leaderEpoch int
}

// pending is an intent without a commit — the journal's proof that a
// migration is (or was, at crash time) in flight.
type pending struct {
	from, want int
	img        dwcs.StreamSnapshot
	hasImg     bool
}

// ckptMsg is the full-state checkpoint the leader ships every poll period.
// All maps are deep copies: the receiver stores them wholesale.
type ckptMsg struct {
	epoch int
	at    sim.Time

	loc      map[int]int
	placedAt map[int]sim.Time
	lost     map[int]bool
	sepoch   map[int]int
	ckpt     map[int]dwcs.StreamSnapshot

	lastV       map[int]int64
	lastT       map[int]sim.Time
	violByGid   map[int][2]int64
	violDuring  int64
	violOutside int64
}

// cardView is one card's answer to the new leader's fence+query round.
type cardView struct {
	snaps  []dwcs.StreamSnapshot
	sepoch map[int]int // gid → stream epoch as stamped at import time
}

// epochFence is a card's admission gate against stale controllers: the
// highest leader epoch the card has witnessed, and which replica stamped it.
// Commands stamped with an older epoch are rejected outright: authority over
// an in-flight command belongs to the card it reaches and to whoever holds
// the newest claim, not to the replica that sent it. A newer stamp raises the fence as a side
// effect, so a takeover's first command (or its explicit fence broadcast)
// locks every reachable card against the deposed leader; there is no way to
// lower a fence. Card-partition-local state; with an unreplicated control
// plane there is one epoch and the fence admits every command.
type epochFence struct {
	epoch  int
	leader int
}

// admit reports whether a command stamped (epoch, replica) may execute,
// raising the fence when the stamp is newer than anything seen.
func (f *epochFence) admit(epoch, replica int) bool {
	if epoch < f.epoch {
		return false
	}
	if epoch > f.epoch {
		f.epoch, f.leader = epoch, replica
	}
	return true
}

// ctrlRep is one DVCM controller replica. Replica 0 ("ctl-a") boots as
// leader; replica 1 ("ctl-b") boots as the synced standby. Every field below
// the hop helpers is touched only in this replica's partition (or after the
// run has fully settled).
type ctrlRep struct {
	f    *fleet
	id   int
	name string
	part *sim.Partition // nil in monolithic mode
	peer *ctrlRep       // nil when the control plane is unreplicated

	// Role state.
	leader   bool
	epoch    int      // leader epoch this replica operates under
	lastCkpt sim.Time // follower: arrival of the last checkpoint
	synced   bool     // follower: heard the current leader at least once

	// Where each stream lives — on the standby, the journal's materialized view.
	loc      map[int]int
	ckpt     map[int]dwcs.StreamSnapshot
	lastV    map[int]int64
	lastT    map[int]sim.Time
	lost     map[int]bool
	placedAt map[int]sim.Time
	sepoch   map[int]int     // gid → stream epoch (advances per committed move)
	pend     map[int]pending // gid → journaled intent awaiting commit

	jobs   []func(done func()) // serialized migration work queue
	active bool

	// Artifact fragments, merged at collect time.
	migLog []logRow
	pulses []logRow
	haEv   []fleetobs.TimelineEvent

	// Violation ledger (continued across failover via checkpoints).
	violByGid   map[int]*[2]int64
	violDuring  int64
	violOutside int64

	// Counters. Migration counters tally this replica's own committed
	// actions (summed at collect — fencing keeps them disjoint); the
	// replication counters feed the control-plane rollup.
	live, cold, readds, parked, replayed int
	ckptsSent, ckptsRecv                 int
	jentries, jdrops                     int
	jbytes                               int64
	takeovers, fencedSeen                int
	adopted, reissued                    int

	// Takeover scratch: card → answered view, rebuilt per fence+query round.
	view map[int]*cardView
}

func newCtrlRep(f *fleet, id int, part *sim.Partition) *ctrlRep {
	return &ctrlRep{
		f: f, id: id, name: ctrlReplicaName(id), part: part,
		leader: id == 0, epoch: 1, synced: true,
		loc:       map[int]int{},
		ckpt:      map[int]dwcs.StreamSnapshot{},
		lastV:     map[int]int64{},
		lastT:     map[int]sim.Time{},
		lost:      map[int]bool{},
		placedAt:  map[int]sim.Time{},
		sepoch:    map[int]int{},
		pend:      map[int]pending{},
		violByGid: map[int]*[2]int64{},
	}
}

// ctrlReplicaName names replica k in plans, timelines, and tables.
func ctrlReplicaName(k int) string {
	if k == 0 {
		return "ctl-a"
	}
	return "ctl-b"
}

// timelineSrc maps a replica to its merged-timeline source index. The
// standby sorts before the primary at equal instants, so a takeover's fence
// broadcast renders above the ex-primary's rejected commands.
func (r *ctrlRep) timelineSrc() int {
	if r.id == 0 {
		return fleetobs.SrcController
	}
	return fleetobs.SrcControllerB
}

// --- plan-derived replica liveness -------------------------------------------

// ctrlFaultAt reports whether a controller fault of the given kind covers
// replica k at t. A pure function of the static plan, so every partition
// evaluates the identical answer.
func (f *fleet) ctrlFaultAt(kind faults.Kind, k int, t sim.Time) bool {
	for _, e := range f.plan.Events {
		if e.Kind == kind && eventActive(e, t) && e.Target == ctrlReplicaName(k) {
			return true
		}
	}
	return false
}

func (f *fleet) ctrlDeadAt(k int, t sim.Time) bool {
	return f.ctrlFaultAt(faults.ControllerCrash, k, t)
}

// ctrlSeveredAt reports whether the replica pair link is cut at t: with two
// replicas, isolating either one severs the pair.
func (f *fleet) ctrlSeveredAt(t sim.Time) bool {
	return f.ctrlFaultAt(faults.ControllerPartition, 0, t) ||
		f.ctrlFaultAt(faults.ControllerPartition, 1, t)
}

// lead returns the replica whose books render the run's placement and
// violation artifacts: the surviving leader, by highest epoch.
func (f *fleet) lead() *ctrlRep {
	best := f.reps[0]
	for _, r := range f.reps[1:] {
		if r.leader && (!best.leader || r.epoch > best.epoch) {
			best = r
		}
	}
	return best
}

// --- hops ---------------------------------------------------------------------

func (r *ctrlRep) eng() *sim.Engine {
	if r.part == nil {
		return r.f.mono
	}
	return r.part.Eng()
}

func (r *ctrlRep) deadNow() bool { return r.f.ctrlDeadAt(r.id, r.eng().Now()) }

// toCard runs fn in card i's partition one network hop from now. A crashed
// replica sends nothing.
func (r *ctrlRep) toCard(i int, fn func()) {
	if !r.deadNow() {
		r.f.hop(r.part, r.f.cards[i].part, fn)
	}
}

// fromCard runs fn in this replica's partition one hop from now (card i
// context). Delivery is dropped while the replica is crashed — a dead
// controller's inbox answers nothing.
func (r *ctrlRep) fromCard(i int, fn func()) {
	guarded := func() {
		if r.deadNow() {
			return
		}
		fn()
	}
	r.f.hop(r.f.cards[i].part, r.part, guarded)
}

// toPeer ships one replication message of the given wire size to the other
// replica. The bytes are priced at send time (offered journal traffic); the
// message is dropped when the pair link is severed or either end is crashed,
// counted on whichever replica observed the drop.
func (r *ctrlRep) toPeer(bytes int64, fn func()) {
	p := r.peer
	if p == nil || r.deadNow() {
		return
	}
	r.jbytes += bytes
	if r.f.ctrlSeveredAt(r.eng().Now()) {
		r.jdrops++
		return
	}
	deliver := func() {
		if p.deadNow() {
			p.jdrops++
			return
		}
		fn()
	}
	r.f.hop(r.part, p.part, deliver)
}

// cmd delivers a controller command to card i behind the leader-epoch fence:
// the card executes fn only when the stamp is current, raising its fence on
// a newer stamp and rejecting (with a reply that demotes the sender) on a
// stale one. fenced, when non-nil, runs on the sender after a rejection so
// multi-step protocols (the migration queue's done callbacks) still settle.
func (r *ctrlRep) cmd(i int, what string, gid int, fn func(), fenced func()) {
	ep, rep := r.epoch, r.id
	r.toCard(i, func() {
		fc := r.f.cards[i]
		if !fc.fence.admit(ep, rep) {
			cur := fc.fence.epoch
			r.f.cardEvent(i, "fenced", gid, fmt.Sprintf(
				"%s from %s stamped epoch %d < fence %d; rejected",
				what, ctrlReplicaName(rep), ep, cur))
			fc.rec.Record(blackbox.Event{At: fc.eng.Now(), Kind: blackbox.KindRefusal,
				Stream: gid, A: int64(ep), B: int64(cur),
				Note: "fenced: stale leader epoch (" + what + ")"})
			fc.fenced++
			r.fromCard(i, func() {
				r.onFenced(what, cur)
				if fenced != nil {
					fenced()
				}
			})
			return
		}
		fn()
	})
}

// --- the serialized migration queue and per-replica logs ----------------------

// enqueueJob appends one unit of migration work to this replica's queue.
// Jobs run strictly one at a time — a migration's multi-hop protocol settles
// before the next starts — which is what makes the global order of target
// admissions (and therefore every artifact byte) independent of worker
// count.
func (r *ctrlRep) enqueueJob(job func(done func())) {
	r.jobs = append(r.jobs, job)
	r.pump()
}

func (r *ctrlRep) pump() {
	if r.active || len(r.jobs) == 0 {
		return
	}
	r.active = true
	job := r.jobs[0]
	r.jobs = r.jobs[1:]
	job(func() {
		r.active = false
		r.pump()
	})
}

func (r *ctrlRep) logf(at sim.Time, format string, args ...any) {
	r.migLog = append(r.migLog, logRow{at, -1, fmt.Sprintf(format, args...)})
}

func (r *ctrlRep) pulse(at sim.Time, card int, format string, args ...any) {
	r.pulses = append(r.pulses, logRow{at, card, fmt.Sprintf(format, args...)})
}

// halog drops one row on this replica's incident-timeline fragment.
func (r *ctrlRep) halog(kind string, stream int, format string, args ...any) {
	r.haEv = append(r.haEv, fleetobs.TimelineEvent{
		At: r.eng().Now(), Src: r.timelineSrc(), SrcName: r.name,
		Kind: kind, Stream: stream, Note: fmt.Sprintf(format, args...),
	})
}

// cardEvent drops one row on card i's incident-timeline fragment; it runs
// in the card's partition.
func (f *fleet) cardEvent(i int, kind string, stream int, note string) {
	fc := f.cards[i]
	host, sw := f.domain(i)
	fc.fenceEv = append(fc.fenceEv, fleetobs.TimelineEvent{
		At: fc.eng.Now(), Src: i, SrcName: niName(i), Host: host, Switch: sw,
		Kind: kind, Stream: stream, Note: note,
	})
}

// --- the journal ----------------------------------------------------------------

// journal ships one write-ahead record to the standby and mirrors intent
// bookkeeping locally, so the leader's own pend map proves the same
// in-flight set its peer reconstructs.
func (r *ctrlRep) journal(rec jrec) {
	rec.at = r.eng().Now()
	rec.leaderEpoch = r.epoch
	switch rec.op {
	case jIntent:
		r.pend[rec.gid] = pending{from: rec.from, want: rec.to}
	case jImage:
		p := r.pend[rec.gid]
		p.img, p.hasImg = rec.img, true
		r.pend[rec.gid] = p
	case jCommit, jLost:
		delete(r.pend, rec.gid)
	}
	if r.peer == nil {
		return
	}
	r.jentries++
	r.toPeer(dvcmnet.JournalEntryBytes, func() { r.peer.applyJournal(rec) })
}

// applyJournal folds one record into the standby's materialized view. Stale
// leader epochs are ignored — after a takeover the deposed leader's
// stragglers must not overwrite the new leader's books.
func (r *ctrlRep) applyJournal(rec jrec) {
	if rec.leaderEpoch < r.epoch || r.leader {
		return
	}
	switch rec.op {
	case jIntent:
		r.pend[rec.gid] = pending{from: rec.from, want: rec.to}
	case jImage:
		p := r.pend[rec.gid]
		p.img, p.hasImg = rec.img, true
		r.pend[rec.gid] = p
		// The detached live image is the freshest checkpoint there is.
		r.ckpt[rec.gid] = rec.img
	case jCommit:
		r.loc[rec.gid] = rec.to
		r.placedAt[rec.gid] = rec.at
		r.sepoch[rec.gid] = rec.sepoch
		delete(r.lost, rec.gid)
		delete(r.pend, rec.gid)
	case jLost:
		r.lost[rec.gid] = true
		delete(r.pend, rec.gid)
	}
}

// --- checkpoints and the standby watchdog --------------------------------------

// tick is one PollEvery round: the leader polls the cards and ships a
// checkpoint; a follower watches for the leader's silence. A crashed
// replica does neither.
func (r *ctrlRep) tick() {
	if r.deadNow() {
		return
	}
	if r.leader {
		r.poll()
		r.sendCheckpoint()
		return
	}
	r.watchdog()
}

func (r *ctrlRep) sendCheckpoint() {
	if r.peer == nil {
		return
	}
	m := &ckptMsg{
		epoch: r.epoch, at: r.eng().Now(),
		loc:         copyMap(r.loc),
		placedAt:    copyMap(r.placedAt),
		lost:        copyMap(r.lost),
		sepoch:      copyMap(r.sepoch),
		ckpt:        copyMap(r.ckpt),
		lastV:       copyMap(r.lastV),
		lastT:       copyMap(r.lastT),
		violByGid:   map[int][2]int64{},
		violDuring:  r.violDuring,
		violOutside: r.violOutside,
	}
	for gid, t := range r.violByGid {
		m.violByGid[gid] = *t
	}
	r.ckptsSent++
	bytes := int64(dvcmnet.CkptHeaderBytes + len(m.loc)*dvcmnet.CkptStreamBytes)
	r.toPeer(bytes, func() { r.peer.onCheckpoint(m) })
}

func copyMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// onCheckpoint adopts the leader's state. A higher epoch than our own while
// we hold leadership means a new leader exists (the healed-partition case):
// we demote first, then resync.
func (r *ctrlRep) onCheckpoint(m *ckptMsg) {
	r.ckptsRecv++
	if m.epoch < r.epoch {
		return // straggler from a deposed leader; fencing will demote it
	}
	if r.leader && m.epoch > r.epoch {
		r.demote(fmt.Sprintf("checkpoint at epoch %d outranks own %d", m.epoch, r.epoch))
	}
	r.epoch = m.epoch
	if r.leader {
		return
	}
	r.lastCkpt = r.eng().Now()
	r.synced = true
	r.loc, r.placedAt, r.lost = m.loc, m.placedAt, m.lost
	r.sepoch, r.ckpt = m.sepoch, m.ckpt
	r.lastV, r.lastT = m.lastV, m.lastT
	r.violDuring, r.violOutside = m.violDuring, m.violOutside
	r.violByGid = map[int]*[2]int64{}
	for gid, t := range m.violByGid {
		t := t
		r.violByGid[gid] = &t
	}
}

// watchdog suspects the leader once the checkpoint gap exceeds 1.5 poll
// periods (a healthy gap is one period minus a hop), which bounds takeover
// at two poll periods after the loss. A follower that has not heard the
// current leader at least once — a deposed ex-primary still partitioned
// away from its successor — must stay quiet: seizing leadership while cut
// off is exactly the split-brain the fence exists to stop.
func (r *ctrlRep) watchdog() {
	if !r.synced {
		return
	}
	gap := r.eng().Now() - r.lastCkpt
	if gap < r.f.cfg.PollEvery*3/2 {
		return
	}
	r.leader = true
	r.epoch++
	r.takeovers++
	r.synced = false
	r.halog("leader-takeover", 0,
		"no checkpoint for %v (> 1.5 poll periods); leader epoch %d→%d",
		gap, r.epoch-1, r.epoch)
	r.fenceAndReconcile("takeover")
}

// demote surrenders leadership: the job queue is wiped (its in-flight
// protocol steps will be fenced anyway) and the replica becomes an unsynced
// follower that must hear the new leader's checkpoint before it may ever
// suspect loss again.
func (r *ctrlRep) demote(why string) {
	if !r.leader {
		return
	}
	r.leader = false
	r.jobs, r.active = nil, false
	r.lastCkpt = r.eng().Now()
	r.synced = false
	r.halog("leader-deposed", 0, "%s", why)
}

// onFenced runs on a sender whose command a card rejected: a newer leader
// epoch exists, so surrender.
func (r *ctrlRep) onFenced(what string, fence int) {
	r.fencedSeen++
	if fence > r.epoch {
		r.epoch = fence
	}
	r.demote(fmt.Sprintf("%s fenced at epoch %d", what, fence))
}

// --- controller fault arming ---------------------------------------------------

// onCrash marks the blackout start in this replica's own partition. Liveness
// itself is plan-derived; this hook only wipes the dynamic state a real
// crash destroys — the in-flight job queue.
func (r *ctrlRep) onCrash(e faults.Event) {
	r.jobs, r.active = nil, false
	r.halog("ctrl-crash", 0, "replica halted for %v", e.Duration)
}

// onRecover brings the replica back. A leader that was never deposed while
// dark resumes by reconciling its journal against the cards — exactly the
// takeover procedure minus the epoch bump — so any migration its crash cut
// mid-protocol is adopted or re-issued, never leaked. A follower resets its
// watchdog clock and waits for a fresh checkpoint to resync.
func (r *ctrlRep) onRecover(e faults.Event) {
	r.halog("ctrl-recover", 0, "replica back after %v", e.Duration)
	if r.leader {
		r.fenceAndReconcile("recovery")
		return
	}
	r.lastCkpt = r.eng().Now()
}

// --- takeover: fence, query, reconcile ------------------------------------------

// fenceAndReconcile broadcasts the (possibly just bumped) leader epoch to
// every card and queries each card's stream state; reconcileJournal runs one
// round-trip plus a millisecond later, by which time every live card's
// answer has deterministically arrived (crashed cards answer nothing).
func (r *ctrlRep) fenceAndReconcile(why string) {
	r.view = map[int]*cardView{}
	ep, rep := r.epoch, r.id
	for i := range r.f.cards {
		i := i
		r.toCard(i, func() {
			fc := r.f.cards[i]
			if fc.fence.epoch < ep {
				r.f.cardEvent(i, "fence", 0, fmt.Sprintf(
					"fence raised to epoch %d by %s (%s)", ep, ctrlReplicaName(rep), why))
			}
			fc.fence.admit(ep, rep)
			if fc.sched.Crashed() {
				return // a dead card answers nothing; the plan predicates cover it
			}
			v := &cardView{sepoch: map[int]int{}}
			v.snaps = fc.ext.Sched.Snapshot()
			for _, sn := range v.snaps {
				v.sepoch[sn.Spec.ID] = fc.epoch[sn.Spec.ID]
			}
			r.fromCard(i, func() { r.view[i] = v })
		})
	}
	wait := 2*fleetNetLatency + sim.Millisecond
	r.eng().After(wait, func() {
		if r.deadNow() || !r.leader {
			r.view = nil
			return
		}
		r.reconcileJournal(why)
	})
}

// reconcileJournal folds the fence+query answers into this replica's books
// and re-issues exactly the work the journal proves incomplete:
//
//   - a pending intent whose stream a card confirms → the old leader's
//     migration completed; adopt the placement (no data moves);
//   - a pending intent no card confirms → the stream was detached and never
//     landed; re-place it cold from the journaled live image (freshest) or
//     the last checkpoint;
//   - a journaled location whose card answered without the stream → the
//     placement is a ghost (wiped, or detached mid-protocol before the
//     intent shipped); mark lost for the standard pass to readd.
//
// A full standard reconcile follows, so fault-driven moves that fell into
// the detection gap are also caught.
func (r *ctrlRep) reconcileJournal(why string) {
	t := r.eng().Now()
	for _, st := range r.f.streams {
		gid := st.gid
		if p, ok := r.pend[gid]; ok {
			if card, se, found := r.findInView(gid); found {
				r.loc[gid] = card
				r.placedAt[gid] = t
				if se > r.sepoch[gid] {
					r.sepoch[gid] = se
				}
				delete(r.pend, gid)
				delete(r.lost, gid)
				r.adopted++
				r.halog("journal-adopt", gid,
					"intent %s: ni%02d confirms placement; adopted, no re-issue",
					why, card)
				continue
			}
			img, has := p.img, p.hasImg
			if !has {
				img, has = r.ckpt[gid]
			}
			delete(r.pend, gid)
			if !has {
				r.lost[gid] = true
				r.halog("journal-lost", gid,
					"intent incomplete and no image or checkpoint; awaiting readd")
				continue
			}
			r.reissued++
			r.halog("journal-reissue", gid,
				"intent incomplete (detached, never landed); re-placing seq=%d win=(%d,%d)",
				img.Seq, img.WindowX, img.WindowY)
			st := st
			from := p.from
			r.enqueueJob(func(done func()) {
				now := r.eng().Now()
				r.placeImage(st, from, img, nil, true,
					r.f.candidates(st, now, r.f.desired(st, now), true), done)
			})
			continue
		}
		if c, ok := r.loc[gid]; ok && !r.lost[gid] {
			if v := r.view[c]; v != nil {
				if _, on := v.sepoch[gid]; !on {
					r.lost[gid] = true
					r.halog("journal-ghost", gid,
						"journal places it on ni%02d but the card disowns it; readd pending", c)
				}
			}
		}
		// Refresh checkpoints from the answers — fresher than anything the
		// journal shipped before the blackout.
		if c, ok := r.loc[gid]; ok {
			if v := r.view[c]; v != nil {
				for _, sn := range v.snaps {
					if sn.Spec.ID == gid {
						r.ckpt[gid] = sn
					}
				}
			}
		}
	}
	r.view = nil
	r.reconcile()
}

// findInView locates gid on the answered cards, preferring the lowest card
// index (deterministic; at most one card can genuinely hold an attached
// stream — detach removes it from the source before import adds it).
func (r *ctrlRep) findInView(gid int) (card, sepoch int, found bool) {
	for i := range r.f.cards {
		v := r.view[i]
		if v == nil {
			continue
		}
		if se, ok := v.sepoch[gid]; ok {
			return i, se, true
		}
	}
	return 0, 0, false
}

// --- row merging (after the run) ------------------------------------------------

// mergeRows flattens per-replica log fragments into one deterministic
// sequence ordered by (time, replica, card, per-replica arrival). The card
// tie-break keeps same-instant pulse rows in card order however their
// replies arrived: on the partitioned engine a card that ran a window ahead
// lands its reply first. A single-replica migration log reduces to that
// replica's original order.
func mergeRows(reps []*ctrlRep, pick func(*ctrlRep) []logRow) []string {
	type tagged struct {
		at             sim.Time
		rep, card, seq int
		text           string
	}
	var all []tagged
	for _, r := range reps {
		for i, row := range pick(r) {
			all = append(all, tagged{row.at, r.id, row.card, i, row.text})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.rep != b.rep {
			return a.rep < b.rep
		}
		if a.card != b.card {
			return a.card < b.card
		}
		return a.seq < b.seq
	})
	out := make([]string, len(all))
	for i, t := range all {
		out[i] = t.text
	}
	return out
}

// --- the ctrl-chaos run -----------------------------------------------------------

// CtrlChaosResult carries one controller-chaos run's artifacts on top of the
// underlying chaos run's. Everything but Chaos.Rounds is byte-deterministic
// across Monolithic, Workers=1, and Workers=N.
type CtrlChaosResult struct {
	Chaos *FleetChaosResult

	CtrlPlane  string // per-replica leadership/journal rollup
	HATimeline string // merged takeover/fence/journal incident timeline
	HASummary  string // the one-line summary the overhead gate parses

	JournalBytes int64 // journal + checkpoint traffic offered (both replicas)
	MediaBytes   int64 // client-received media bytes (the overhead denominator)

	Takeovers     int
	Adopted       int // journaled intents adopted as complete on takeover
	Reissued      int // journaled intents re-issued as cold placements
	FencedRejects int // stale-epoch commands rejected by cards
	DoublePlaced  int // streams attached on more than one live card (want: 0)
	LeaderName    string
	LeaderEpoch   int
}

// RunCtrlChaos builds the chaos fleet with the replicated control plane,
// runs it, and renders the HA artifacts alongside the chaos ones.
func RunCtrlChaos(cfg FleetConfig) *CtrlChaosResult {
	cfg.CtrlHA = true
	f := runFleetChaos(cfg, false)
	return f.collectHA()
}

// collectHA renders the control-plane artifacts from the settled fleet.
func (f *fleet) collectHA() *CtrlChaosResult {
	res := &CtrlChaosResult{Chaos: f.res}
	lead := f.lead()
	res.LeaderName, res.LeaderEpoch = lead.name, lead.epoch

	stats := make([]fleetobs.CtrlStat, 0, len(f.reps))
	for _, r := range f.reps {
		stats = append(stats, fleetobs.CtrlStat{
			Name: r.name, Leader: r.leader, Epoch: r.epoch, Takeovers: r.takeovers,
			CkptsSent: r.ckptsSent, CkptsRecv: r.ckptsRecv,
			JournalSent: r.jentries, JournalBytes: r.jbytes,
			Dropped: r.jdrops, Fenced: r.fencedSeen,
		})
		res.JournalBytes += r.jbytes
		res.Takeovers += r.takeovers
		res.Adopted += r.adopted
		res.Reissued += r.reissued
	}
	res.CtrlPlane = fleetobs.RenderCtrlPlane(stats)

	// The incident timeline: replica fragments plus card-side fence rows,
	// merged by the standard timeline artifact (tracetool -timeline parses
	// it) in (time, source, per-source arrival) order.
	tl := fleetobs.NewTimeline()
	for _, r := range f.reps {
		for _, e := range r.haEv {
			tl.Add(e)
		}
	}
	for _, fc := range f.cards {
		for _, e := range fc.fenceEv {
			tl.Add(e)
		}
		res.FencedRejects += fc.fenced
	}
	res.HATimeline = tl.Render()

	// Double-placement scan: a stream attached on two live cards means a
	// stale command executed — the fence failed. Crashed cards hold only
	// wipe-pending ghosts and do not count.
	placed := map[int][]int{}
	for i, fc := range f.cards {
		if fc.sched.Crashed() {
			continue
		}
		for _, gid := range fc.ext.Sched.StreamIDs() {
			placed[gid] = append(placed[gid], i)
		}
	}
	var gids []int
	for gid, on := range placed {
		if len(on) > 1 {
			gids = append(gids, gid)
		}
	}
	sort.Ints(gids)
	res.DoublePlaced = len(gids)

	for _, st := range f.streams {
		res.MediaBytes += st.cl.RecvBytes
	}
	overhead := 0.0
	if res.MediaBytes > 0 {
		overhead = 100 * float64(res.JournalBytes) / float64(res.MediaBytes)
	}
	var extra string
	if len(gids) > 0 {
		var b strings.Builder
		for _, gid := range gids {
			fmt.Fprintf(&b, " gid=%02d on %v", gid, placed[gid])
		}
		extra = " DOUBLE-PLACED:" + b.String()
	}
	res.HASummary = fmt.Sprintf(
		"ctrl-ha: leader=%s epoch=%d takeovers=%d adopted=%d reissued=%d "+
			"fenced=%d double_placed=%d journal=%dB media=%dB overhead=%.3f%%%s",
		res.LeaderName, res.LeaderEpoch, res.Takeovers, res.Adopted, res.Reissued,
		res.FencedRejects, res.DoublePlaced, res.JournalBytes, res.MediaBytes,
		overhead, extra)
	return res
}
