// Cold stream migration: re-place a stream torn off a dead scheduler NI from
// its last heartbeat checkpoint, without minting a new stream. The target
// re-admits it through the overload budget's front door (with AwaitSpace
// enrollment and backoff retry when every candidate refuses), and the
// stream keeps its ID, client address, DWCS window position and frame cursor
// across the hop. Live migration, planned drains and host/switch failure
// domains exist only on the fleet (fleetchaos.go).
package cluster

import (
	"errors"
	"fmt"

	"repro/internal/blackbox"
	"repro/internal/dwcs"
	"repro/internal/sim"
)

// ErrMigrationInProgress is returned when a stream is asked to migrate while
// a previous migration of the same stream is still running — the
// double-migrate guard.
var ErrMigrationInProgress = errors.New("cluster: migration already in progress")

// Retry shape of a refused cold migration: placement attempts before giving
// up, and the delay after the first refusal, doubling per refusal.
const (
	migrateAttempts = 3
	migrateBackoff  = 50 * sim.Millisecond
)

// Migration records one completed (or failed) stream move.
type Migration struct {
	StreamID int
	From, To *SchedulerNI
	Old, New *Placement
	Image    dwcs.StreamSnapshot
	Attempts int // placement attempts (≥1)
	DoneAt   sim.Time
}

// MigrateCold re-places a stream torn off a dead card from its last
// heartbeat checkpoint. The source card contributed nothing at failure time
// — the image is the monitor's cached snapshot, one poll interval stale at
// worst — so there are no frames to replay, but the window position and
// frame cursor survive, which is what keeps the loss-window honest through
// the outage. old must already have been torn down by FailScheduler.
//
// Candidate placement retries with AwaitSpace enrollment and doubling
// backoff; done fires when the migration settles — inline when the first
// candidate admits, later when it had to wait.
func (c *Cluster) MigrateCold(old *Placement, img dwcs.StreamSnapshot, done func(*Migration, error)) {
	if c.migrating[old.StreamID] {
		done(nil, fmt.Errorf("%w: stream %d", ErrMigrationInProgress, old.StreamID))
		return
	}
	c.migrating[old.StreamID] = true
	m := &Migration{StreamID: old.StreamID, From: old.Scheduler, Old: old, Image: img}
	backoff := migrateBackoff
	finish := func(err error) {
		m.DoneAt = c.Eng.Now()
		delete(c.migrating, old.StreamID)
		// Commit/abort lands in the flight-recorder ring so migrations are
		// visible in incident dumps: commit on the card that now serves the
		// stream, abort on the card that lost it.
		if err != nil {
			m.From.Ext.Blackbox.Record(blackbox.Event{
				At: m.DoneAt, Kind: blackbox.KindMigrate, Stream: m.StreamID,
				Note: "migration aborted: " + err.Error(),
			})
		} else {
			m.To.Ext.Blackbox.Record(blackbox.Event{
				At: m.DoneAt, Kind: blackbox.KindMigrate, Stream: m.StreamID,
				Seq: img.Seq, A: int64(img.WindowX), B: int64(img.WindowY),
				Note: "import commit (cold) from " + m.From.Card.Name,
			})
		}
		done(m, err)
	}
	var try func()
	try = func() {
		m.Attempts++
		np, err := c.place(old.Req, old.StreamID, old.Client, &img, old.Scheduler)
		if err == nil {
			m.To, m.New = np.Scheduler, np
			finish(nil)
			return
		}
		if !errors.Is(err, ErrAdmission) || m.Attempts >= migrateAttempts {
			finish(err)
			return
		}
		// Refused everywhere: re-attempt when a pressured candidate's budget
		// drains back under its low-water mark, or after the backoff
		// — whichever fires first (the other firing is absorbed).
		fired := false
		once := func() {
			if fired {
				return
			}
			fired = true
			try()
		}
		if cand := c.awaitCandidate(old.Scheduler); cand != nil {
			cand.Overload.Budget.AwaitSpace(once)
		}
		c.Eng.After(backoff, once)
		backoff *= 2
	}
	try()
}

// awaitCandidate picks the least-CPU-loaded overload-protected card other
// than exclude — the budget whose drain most plausibly unblocks the
// migration.
func (c *Cluster) awaitCandidate(exclude *SchedulerNI) *SchedulerNI {
	var best *SchedulerNI
	for _, n := range c.Nodes {
		for _, s := range n.Schedulers {
			if s.Card.Link == nil || s.failed || s.Overload == nil || s == exclude {
				continue
			}
			if best == nil || s.cpuLoad < best.cpuLoad {
				best = s
			}
		}
	}
	return best
}
