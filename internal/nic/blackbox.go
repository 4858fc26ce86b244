package nic

import (
	"fmt"

	"repro/internal/blackbox"
	"repro/internal/overload"
	"repro/internal/sim"
)

// AttachBlackbox wires a flight recorder to this extension. Scheduler
// decisions and drops flow into the ring from the dispatch and run paths;
// this call adds the card-level taps and triggers:
//
//   - overload ladder transitions are recorded (chained in front of any
//     Ladder.OnChange the harness already set);
//   - budget admission refusals are recorded AND trigger an incident — a
//     refusal is the moment the card started turning work away;
//   - budget breaches are recorded AND trigger — the invariant says zero;
//   - watchdog bites are recorded AND trigger, if the card already has a
//     watchdog (start it with StartWatchdog before attaching).
//
// If the recorder has no StateFn, one is installed that dumps the budget
// ledger and ladder rung — the card state every incident should carry.
// Idempotent; call once per card, after AttachOverload.
func (ext *SchedulerExt) AttachBlackbox(rec *blackbox.Recorder) {
	if ext.Blackbox != nil || rec == nil {
		return
	}
	ext.Blackbox = rec
	now := ext.Card.Eng.Now

	if ov := ext.Overload; ov != nil {
		prevLadder := ov.Ladder.OnChange
		ov.Ladder.OnChange = func(from, to overload.Rung) {
			rec.Record(blackbox.Event{At: now(), Kind: blackbox.KindLadder,
				A: int64(from), B: int64(to),
				Note: from.String() + " -> " + to.String()})
			if prevLadder != nil {
				prevLadder(from, to)
			}
		}
		prevReject := ov.Budget.OnReject
		ov.Budget.OnReject = func(projected int64) {
			rec.Record(blackbox.Event{At: now(), Kind: blackbox.KindRefusal,
				A: projected, Note: "admission refused"})
			rec.Trigger(now(), "budget-refusal")
			if prevReject != nil {
				prevReject(projected)
			}
		}
		prevBreach := ov.Budget.OnBreach
		ov.Budget.OnBreach = func() {
			rec.Record(blackbox.Event{At: now(), Kind: blackbox.KindRefusal,
				A: ov.Budget.Used(), Note: "budget breach"})
			rec.Trigger(now(), "budget-breach")
			if prevBreach != nil {
				prevBreach()
			}
		}
		if rec.StateFn == nil {
			rec.StateFn = func() string {
				return fmt.Sprintf("%s\nladder rung: %s\nrevoked awaiting reinstate: %d",
					ov.Budget.String(), ov.Ladder.Rung(), len(ext.revoked))
			}
		}
	}

	if wd := ext.Card.Watchdog; wd != nil {
		wd.Observe(func() {
			rec.Record(blackbox.Event{At: now(), Kind: blackbox.KindWatchdog,
				Note: "deadman bite"})
			rec.Trigger(now(), "watchdog")
		})
	}
}

// RecordFault feeds a chaos-plan event into the flight recorder and triggers
// an incident when a fault arms (not on recovery — recovery is good news).
// Designed to sit behind faults.Tee:
//
//	faults.Tee(injector, ext.RecordFault)
func (ext *SchedulerExt) RecordFault(at sim.Time, kind, target string, recover bool) {
	note := kind + " " + target
	if recover {
		note += " recovered"
	}
	ext.Blackbox.Record(blackbox.Event{At: at, Kind: blackbox.KindFault, Note: note})
	if !recover {
		ext.Blackbox.Trigger(at, "fault: "+kind+" "+target)
	}
}
