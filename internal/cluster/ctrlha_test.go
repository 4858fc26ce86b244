package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestEpochFenceAdmission(t *testing.T) {
	var f epochFence
	if !f.admit(1, 0) {
		t.Fatal("first epoch refused")
	}
	if f.epoch != 1 || f.leader != 0 {
		t.Fatalf("fence = %+v after first admit", f)
	}
	if !f.admit(1, 0) {
		t.Fatal("current epoch refused")
	}
	if !f.admit(3, 1) {
		t.Fatal("newer epoch refused")
	}
	if f.epoch != 3 || f.leader != 1 {
		t.Fatalf("fence = %+v after raise", f)
	}
	// Stale stamps are rejected and the fence never lowers.
	for _, ep := range []int{2, 1, 0} {
		if f.admit(ep, 0) {
			t.Fatalf("stale epoch %d admitted", ep)
		}
	}
	if f.epoch != 3 || f.leader != 1 {
		t.Fatalf("fence lowered to %+v", f)
	}
}

// TestStaleEpochMigrationFenced is the failover-safety scenario in
// miniature: the old primary begins a live migration (intent journaled,
// detach executed) immediately before the standby seizes leadership; the
// migration's import step then arrives at the target stamped with the old
// leader epoch and must be rejected by the card's fence, while the new
// leader's journal reconcile re-places the detached stream from its last
// image — frame cursor and DWCS (x,y) window intact, never double-placed,
// never restarted with a fresh window.
func TestStaleEpochMigrationFenced(t *testing.T) {
	cfg := FleetConfig{
		Dur: 3 * sim.Second, Workers: 1, CtrlHA: true,
		// No injected faults: the takeover below is the only disturbance.
		HostCrashes: -1, NetPartitions: -1, RollingDrains: -1,
		CtrlCrashes: -1, CtrlPartitions: -1,
	}
	cfg.setDefaults()
	f := buildFleetChaos(cfg, false)
	ra, rb := f.reps[0], f.reps[1]
	st := f.streams[0] // gid 1, sourced on card 0

	// t=1.093s: the primary decides to move gid 1 from card 0 to card 1.
	// The detach lands before the standby's fence broadcast; the import
	// lands after it.
	ra.eng().At(1093*sim.Millisecond, func() {
		ra.enqueueJob(func(done func()) { ra.migrateLive(st, 0, 1, done) })
	})

	// t=1.1s: the standby seizes leadership (the watchdog path, forced so
	// the timing brackets the in-flight migration deterministically).
	rb.eng().At(1100*sim.Millisecond, func() {
		rb.leader = true
		rb.epoch++
		rb.takeovers++
		rb.synced = false
		rb.halog("leader-takeover", 0, "forced by test; leader epoch %d→%d", rb.epoch-1, rb.epoch)
		rb.fenceAndReconcile("takeover")
	})

	f.res.Rounds = f.run()
	f.collectChaos()
	res := f.collectHA()

	if res.LeaderName != "ctl-b" || res.LeaderEpoch != 2 {
		t.Fatalf("leadership = %s@%d, want ctl-b@2\n%s",
			res.LeaderName, res.LeaderEpoch, res.CtrlPlane)
	}
	fenced := 0
	for _, fc := range f.cards {
		fenced += fc.fenced
	}
	if fenced < 1 {
		t.Fatalf("the stale import was not fenced\n%s", res.HATimeline)
	}
	if ra.leader {
		t.Fatal("ex-primary still believes it leads")
	}
	if ra.fencedSeen < 1 {
		t.Fatalf("ex-primary never observed a fence rejection\n%s", res.HATimeline)
	}
	if rb.reissued != 1 {
		t.Fatalf("reissued = %d, want exactly the interrupted migration\n%s",
			rb.reissued, res.HATimeline)
	}
	if res.DoublePlaced != 0 {
		t.Fatalf("stream double-placed: %s", res.HASummary)
	}
	if res.Chaos.Readds != 0 {
		t.Fatalf("readds = %d — the stream lost its window instead of resuming",
			res.Chaos.Readds)
	}

	// The re-issue must carry a mid-stream image: a positive frame cursor in
	// the journal-reissue row proves cursor/window continuity (a fresh
	// window restart would be a readd, asserted zero above).
	var reissueRow string
	for _, line := range strings.Split(res.HATimeline, "\n") {
		if strings.Contains(line, "journal-reissue") {
			reissueRow = line
			break
		}
	}
	if reissueRow == "" {
		t.Fatalf("no journal-reissue row\n%s", res.HATimeline)
	}
	if strings.Contains(reissueRow, "seq=0 ") || !strings.Contains(reissueRow, "seq=") {
		t.Fatalf("re-issue did not preserve the frame cursor: %s", reissueRow)
	}

	// The stream must end attached exactly once, where the new leader's
	// books say it is.
	end, ok := f.lead().loc[st.gid]
	if !ok {
		t.Fatal("leader lost track of the stream")
	}
	found := false
	for _, sn := range f.cards[end].ext.Sched.Snapshot() {
		if sn.Spec.ID == st.gid {
			found = true
			if sn.Seq == 0 {
				t.Fatalf("stream restarted from seq 0 on ni%02d", end)
			}
		}
	}
	if !found {
		t.Fatalf("leader places gid %d on ni%02d but the card disowns it", st.gid, end)
	}
}

// TestCtrlChaosSplitBrainFencing pins the partition half of the scenario on
// the default plan: while the replica pair link is severed the synced
// follower seizes leadership, and every command the other replica sends at
// its stale epoch is rejected and logged to the incident timeline.
func TestCtrlChaosSplitBrainFencing(t *testing.T) {
	res := RunCtrlChaos(FleetConfig{Workers: 2})
	if res.Takeovers < 2 {
		t.Fatalf("takeovers = %d, want crash takeover + partition takeover\n%s",
			res.Takeovers, res.CtrlPlane)
	}
	if !strings.Contains(res.HATimeline, "ctrl-partition") {
		t.Fatalf("no partition rows in the timeline\n%s", res.HATimeline)
	}
	if !strings.Contains(res.HATimeline, "stamped epoch") {
		t.Fatalf("no fence rejections logged\n%s", res.HATimeline)
	}
	if !strings.Contains(res.HATimeline, "leader-deposed") {
		t.Fatalf("no deposition logged\n%s", res.HATimeline)
	}
	if res.DoublePlaced != 0 {
		t.Fatalf("split brain double-placed a stream: %s", res.HASummary)
	}
	if res.Chaos.ViolOutside != 0 {
		t.Fatalf("violations outside outage windows: %s", res.Chaos.Summary)
	}
	// Replication messages were genuinely dropped while severed.
	drops := 0
	for _, r := range f0reps(res) {
		drops += r
	}
	if drops < 1 {
		t.Fatal("partition dropped no replication traffic")
	}
}

// f0reps pulls the per-replica dropped counts out of the control-plane
// rollup table (column "dropped").
func f0reps(res *CtrlChaosResult) []int {
	var out []int
	for _, line := range strings.Split(res.CtrlPlane, "\n") {
		fs := strings.Fields(line)
		if len(fs) != 10 || fs[0] == "replica" {
			continue
		}
		n := 0
		for _, c := range fs[8] {
			if c < '0' || c > '9' {
				return nil
			}
			n = n*10 + int(c-'0')
		}
		out = append(out, n)
	}
	return out
}

// doublePlacedPlans are fault plans on which a fault-boundary reconcile ran
// while a takeover's fence+query round was still out: a cold move on the
// new leader's stale placement journaled its own intent, the journal
// reconcile re-issued that intent as the dead leader's, and two cards
// imported the stream.
var doublePlacedPlans = []FleetConfig{
	{Cards: 8, Dur: 8 * sim.Second, HostCrashes: 2, NetPartitions: -1, RollingDrains: 1, FaultSeed: 11},
	{Cards: 16, Dur: 8 * sim.Second, HostCrashes: 1, NetPartitions: -1, RollingDrains: 1,
		CtrlCrashes: 1, CtrlPartitions: 1, FaultSeed: 118},
}

func TestCtrlChaosNoDoublePlacementDuringTakeover(t *testing.T) {
	for _, plan := range doublePlacedPlans {
		for _, engine := range []struct {
			name    string
			workers int
			mono    bool
		}{{"workers=1", 1, false}, {"workers=2", 2, false}, {"monolithic", 0, true}} {
			cfg := plan
			cfg.Workers, cfg.Monolithic = engine.workers, engine.mono
			if res := RunCtrlChaos(cfg); res.DoublePlaced != 0 {
				t.Errorf("seed %d, %d cards, %s: %s", plan.FaultSeed, plan.Cards, engine.name, res.HASummary)
			}
		}
	}
}

// FuzzCtrlChaos draws a controller-chaos plan — fault seed, the five fault
// counts (0 = default, negative = none) and 4–16 cards — and holds it to the
// ctrl-chaos row's gates, with the partitioned run byte-identical to the
// monolithic one.
func FuzzCtrlChaos(f *testing.F) {
	for _, p := range doublePlacedPlans {
		f.Add(p.FaultSeed, int8(p.HostCrashes), int8(p.NetPartitions), int8(p.RollingDrains),
			int8(p.CtrlCrashes), int8(p.CtrlPartitions), uint8(p.Cards))
	}
	f.Add(int64(0), int8(0), int8(0), int8(0), int8(0), int8(0), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, crashes, parts, drains, ctrlCrashes, ctrlParts int8, cards uint8) {
		// wrap folds n into [lo, lo+span) and leaves a value already there as
		// it is, so the corpus plans run unchanged.
		wrap := func(n, lo, span int) int { return lo + ((n-lo)%span+span)%span }
		count := func(n int8) int { return wrap(int(n), -1, 4) } // -1 (none), 0 (default), 1, 2
		cfg := FleetConfig{
			Cards: wrap(int(cards), 4, 13), Dur: 8 * sim.Second, FaultSeed: seed,
			HostCrashes: count(crashes), NetPartitions: count(parts),
			RollingDrains: count(drains), CtrlCrashes: count(ctrlCrashes),
			CtrlPartitions: count(ctrlParts), Workers: 2,
		}
		plan := fmt.Sprintf("seed %d, %d cards, crashes/partitions/drains %d/%d/%d, ctrl crashes/partitions %d/%d",
			cfg.FaultSeed, cfg.Cards, cfg.HostCrashes, cfg.NetPartitions, cfg.RollingDrains,
			cfg.CtrlCrashes, cfg.CtrlPartitions)
		par := RunCtrlChaos(cfg)
		if par.DoublePlaced != 0 {
			t.Errorf("%s: %s", plan, par.HASummary)
		}
		if par.Chaos.ViolOutside != 0 {
			t.Errorf("%s: violations outside outage windows: %s", plan, par.Chaos.Summary)
		}
		if par.MediaBytes <= 0 || float64(par.JournalBytes) > 0.02*float64(par.MediaBytes) {
			t.Errorf("%s: journal %dB against %dB of media, over the 2%% gate", plan, par.JournalBytes, par.MediaBytes)
		}
		cfg.Monolithic = true
		mono := RunCtrlChaos(cfg)
		for _, a := range []struct{ name, got, want string }{
			{"summary", par.Chaos.Summary, mono.Chaos.Summary},
			{"ha summary", par.HASummary, mono.HASummary},
			{"streams.csv", par.Chaos.CSV, mono.Chaos.CSV},
			{"migrations", par.Chaos.MigLog, mono.Chaos.MigLog},
			{"ha timeline", par.HATimeline, mono.HATimeline},
		} {
			if a.got != a.want {
				t.Errorf("%s: partitioned %s differs from monolithic:\n%s\nvs\n%s", plan, a.name, a.got, a.want)
			}
		}
	})
}
