// Graceful degradation: when a stream's scheduler NI dies, its producer
// falls back to the host-resident DWCS — the paper's §4.2.3 configuration
// — so viewers keep receiving frames (at host-grade jitter) instead of
// nothing, and migrates back once the card recovers.
package host

import "repro/internal/dwcs"

// FailoverTarget is an EnqueueTarget that routes to Primary until told to
// fail over, then to Backup, and back again on restore. Producers keep
// injecting blindly; the switch is invisible to them.
type FailoverTarget struct {
	Primary EnqueueTarget // the scheduler NI path
	Backup  EnqueueTarget // the host-resident DWCS path

	// OnSwitch, if set, observes each transition (true = now on backup).
	OnSwitch func(toBackup bool)

	// ToPrimary/ToBackup count injection attempts per path; Switches
	// counts transitions.
	ToPrimary int64
	ToBackup  int64
	Switches  int64

	onBackup bool
}

// Enqueue implements EnqueueTarget, routing to the active path.
func (f *FailoverTarget) Enqueue(id int, p dwcs.Packet) error {
	if f.onBackup {
		f.ToBackup++
		return f.Backup.Enqueue(id, p)
	}
	f.ToPrimary++
	return f.Primary.Enqueue(id, p)
}

// FailToBackup switches injection to the backup path. Idempotent.
func (f *FailoverTarget) FailToBackup() {
	if f.onBackup {
		return
	}
	f.onBackup = true
	f.Switches++
	if f.OnSwitch != nil {
		f.OnSwitch(true)
	}
}

// RestorePrimary migrates injection back to the primary path. Idempotent.
func (f *FailoverTarget) RestorePrimary() {
	if !f.onBackup {
		return
	}
	f.onBackup = false
	f.Switches++
	if f.OnSwitch != nil {
		f.OnSwitch(false)
	}
}
