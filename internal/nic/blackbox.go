package nic

import (
	"fmt"

	"repro/internal/blackbox"
	"repro/internal/overload"
)

// AttachBlackbox puts a flight recorder on this card: the one place a
// recorder joins a card. The recorder stamps on the card's engine, and every
// emitter records into it directly — the scheduler's decisions and drops,
// the watchdog's bite (StartWatchdog), the overload budget's refusals and
// breaches and the ladder's transitions. With an overload controller
// attached, before or after, the ring is charged to its budget under
// ClassBlackbox; a budget that refuses the charge fails the attach, and the
// card keeps no recorder. Idempotent; call once per card.
func (ext *SchedulerExt) AttachBlackbox(rec *blackbox.Recorder) error {
	if ext.Card.Blackbox != nil || rec == nil {
		return nil
	}
	rec.Clock = ext.Card.Eng
	ext.Card.Blackbox = rec
	return ext.recordOverload()
}

// recordOverload joins the card's flight recorder and overload controller
// once both are attached: the ring is charged to the budget, the budget and
// ladder record into the ring, and a recorder with no StateFn gets one that
// dumps the budget ledger and ladder rung — the card state every incident
// should carry.
func (ext *SchedulerExt) recordOverload() error {
	ov, rec := ext.Overload, ext.Card.Blackbox
	if ov == nil || rec == nil {
		return nil
	}
	if err := ov.Budget.Charge(overload.ClassBlackbox, rec.RingBytes()); err != nil {
		ext.Card.Blackbox = nil
		return fmt.Errorf("blackbox: %s: ring refused: %w", rec.Name(), err)
	}
	ov.Budget.Rec, ov.Ladder.Rec = rec, rec
	if rec.StateFn == nil {
		rec.StateFn = func() string {
			return fmt.Sprintf("%s\nladder rung: %s\nrevoked awaiting reinstate: %d",
				ov.Budget.String(), ov.Ladder.Rung(), len(ext.revoked))
		}
	}
	return nil
}
