package cluster

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/blackbox"
	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/overload"
	"repro/internal/sim"
)

// lossyReq is req() with a (1,4) window so partial window positions are
// visible across a migration (1/2 resets to full after one service), and a
// small ring so one card can host the whole test population.
func lossyReq(name string) StreamRequest {
	r := req(name)
	r.Loss = fixed.New(1, 4)
	r.BufCap = 8
	return r
}

// fill charges a card's budget up to its high-water mark so admission
// refuses, returning the release function.
func fill(s *SchedulerNI) func() {
	n := s.Overload.Budget.HighWater() - s.Overload.Budget.Used()
	if err := s.Overload.Budget.Charge(overload.ClassLeak, n); err != nil {
		panic(err)
	}
	return func() { s.Overload.Budget.Release(overload.ClassLeak, n) }
}

// crashWithCheckpoint admits one stream on sched0, takes the checkpoint a
// heartbeat would have cached (cursor moved to 7 so a restore is
// distinguishable from a fresh registration), and fails the card. It returns
// the torn-down placement and the image.
func crashWithCheckpoint(t *testing.T, c *Cluster) (*Placement, dwcs.StreamSnapshot) {
	t.Helper()
	s0 := c.Nodes[0].Schedulers[0]
	p, err := c.Admit(lossyReq("movie"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Scheduler != s0 {
		t.Fatalf("admitted on %s, want sched0", p.Scheduler.Card.Name)
	}
	img, err := s0.Ext.Sched.ExportStream(p.StreamID)
	if err != nil {
		t.Fatal(err)
	}
	img.Seq = 7
	affected := c.FailScheduler(s0, c.Live())
	if len(affected) != 1 || affected[0] != p {
		t.Fatalf("affected = %v", affected)
	}
	return p, img
}

// TestMigrateDuringAwaitSpaceAndDoubleMigrateGuard: the target refuses at
// its budget high-water mark, so the cold migration parks in AwaitSpace; a
// second migrate of the same stream while the first is parked is refused by
// the double-migrate guard; when the target's budget drains, the parked
// migration completes.
func TestMigrateDuringAwaitSpaceAndDoubleMigrateGuard(t *testing.T) {
	c := twoSchedCluster(t)
	c.EnableOverload(nil)
	s1 := c.Nodes[0].Schedulers[1]
	release := fill(s1)
	p, img := crashWithCheckpoint(t, c)

	var m *Migration
	var settleErr error
	settled := false
	c.MigrateCold(p, img, func(mig *Migration, err error) {
		m, settleErr, settled = mig, err, true
	})
	if settled {
		t.Fatal("migration settled against a full target")
	}
	if s1.Overload.Budget.Waiting() == 0 {
		t.Fatal("pending migration is not enrolled in AwaitSpace")
	}
	if len(c.Live()) != 0 {
		t.Fatal("stream still placed while migration is in flight")
	}

	c.MigrateCold(p, img, func(mig *Migration, err error) {
		if !errors.Is(err, ErrMigrationInProgress) {
			t.Fatalf("double migrate err = %v, want ErrMigrationInProgress", err)
		}
	})

	// The budget drains to low-water and the parked migration fires — no
	// engine time has passed, so this is AwaitSpace, not the backoff timer.
	release()
	if !settled || settleErr != nil {
		t.Fatalf("settled=%v err=%v after budget drain", settled, settleErr)
	}
	if m.To != s1 || m.Attempts != 2 {
		t.Fatalf("to=%v attempts=%d, want sched1 on the 2nd attempt", m.To, m.Attempts)
	}
	if m.New.StreamID != p.StreamID {
		t.Fatal("stream identity lost across the AwaitSpace park")
	}
}

// TestMigrateColdFromCheckpoint: a crashed card's stream resumes from the
// monitor-style checkpoint image — window position and cursor survive even
// though the card contributed nothing at failure time.
func TestMigrateColdFromCheckpoint(t *testing.T) {
	c := twoSchedCluster(t)
	s1 := c.Nodes[0].Schedulers[1]
	p, img := crashWithCheckpoint(t, c)
	img.WindowX, img.WindowY = 1, 2 // mid-window

	var m *Migration
	c.MigrateCold(p, img, func(mig *Migration, err error) {
		if err != nil {
			t.Fatalf("cold migrate: %v", err)
		}
		m = mig
	})
	if m == nil || m.To != s1 {
		t.Fatalf("cold migration = %+v", m)
	}
	if m.New.StreamID != p.StreamID {
		t.Fatal("cold migration minted a new stream ID")
	}
	if m.New.Client != p.Client {
		t.Fatalf("client changed %s → %s", p.Client, m.New.Client)
	}
	if cx, cy, err := s1.Ext.Sched.Window(p.StreamID); err != nil || cx != 1 || cy != 2 {
		t.Fatalf("restored window = (%d,%d) err=%v, want checkpoint (1,2)", cx, cy, err)
	}
	if live := c.Live(); len(live) != 1 || live[0] != m.New {
		t.Fatalf("live = %v, want just the migrated placement", live)
	}
}

// migRing attaches a flight recorder to a scheduler NI and returns it.
func migRing(t *testing.T, s *SchedulerNI) *blackbox.Recorder {
	t.Helper()
	rec, err := blackbox.New(blackbox.Config{Name: s.Card.Name})
	if err != nil {
		t.Fatal(err)
	}
	s.Ext.AttachBlackbox(rec)
	return rec
}

// findNote returns the first migration event whose note starts with prefix,
// or nil.
func findNote(rec *blackbox.Recorder, prefix string) *blackbox.Event {
	for _, e := range rec.Events() {
		if e.Kind == blackbox.KindMigrate && strings.HasPrefix(e.Note, prefix) {
			return &e
		}
	}
	return nil
}

// TestMigrateRecordsBlackboxEvents: a migration that dies must be visible in
// incident dumps. The only candidate stays pinned at its high-water mark
// through all three attempts (50 ms, then 100 ms of backoff), so the cold
// migration aborts — on the dead card's ring, with the admission error.
func TestMigrateRecordsBlackboxEvents(t *testing.T) {
	c := twoSchedCluster(t)
	c.EnableOverload(nil)
	s0 := c.Nodes[0].Schedulers[0]
	s1 := c.Nodes[0].Schedulers[1]
	rec0, rec1 := migRing(t, s0), migRing(t, s1)
	fill(s1) // never released: the refusal cascade runs dry
	p, img := crashWithCheckpoint(t, c)

	var m *Migration
	var aborted error
	c.MigrateCold(p, img, func(mig *Migration, err error) { m, aborted = mig, err })
	// Bounded: the overload controllers' periodic evaluation never lets a
	// bare Run terminate.
	c.Eng.RunUntil(sim.Second)
	if !errors.Is(aborted, ErrAdmission) {
		t.Fatalf("err = %v, want ErrAdmission with every candidate refusing", aborted)
	}
	if m.Attempts != 3 || m.DoneAt != 150*sim.Millisecond {
		t.Fatalf("attempts=%d done at %v, want 3 attempts ending at 150ms", m.Attempts, m.DoneAt)
	}
	if e := findNote(rec0, "migration aborted:"); e == nil || e.Stream != p.StreamID {
		t.Fatalf("abort not recorded on the source ring: %v", rec0.Events())
	}
	if e := findNote(rec1, "import commit"); e != nil {
		t.Fatalf("refusing target recorded a commit: %+v", e)
	}
	if len(c.Live()) != 0 {
		t.Fatal("aborted migration left a live placement")
	}
}

// TestMigrateColdRecordsCommit: a cold restore records its import (marked
// cold) on the target ring.
func TestMigrateColdRecordsCommit(t *testing.T) {
	c := twoSchedCluster(t)
	s0 := c.Nodes[0].Schedulers[0]
	rec1 := migRing(t, c.Nodes[0].Schedulers[1])
	p, img := crashWithCheckpoint(t, c)

	c.MigrateCold(p, img, func(m *Migration, err error) {
		if err != nil {
			t.Fatalf("cold migrate: %v", err)
		}
	})
	e := findNote(rec1, "import commit (cold) from "+s0.Card.Name)
	if e == nil || e.Seq != 7 || e.Stream != p.StreamID {
		t.Fatalf("cold commit not recorded: %v", rec1.Events())
	}
}
