package nic

import (
	"strings"
	"testing"

	"repro/internal/blackbox"
	"repro/internal/dwcs"
	"repro/internal/overload"
	"repro/internal/sim"
)

// TestAttachBlackboxRecordsAndTriggers drives one card through dispatches, a
// budget refusal and a watchdog bite with the recorder attached before and
// after the overload controller and the watchdog: the attach order is not a
// rule, so both runs dump the same bytes, and both hold the ring's charge.
func TestAttachBlackboxRecordsAndTriggers(t *testing.T) {
	run := func(blackboxFirst bool) string {
		r := newRig(t, true)
		ext, err := r.card.LoadScheduler(SchedulerConfig{WorkConserving: true})
		if err != nil {
			t.Fatal(err)
		}
		ctl := overload.NewController(r.card.Name, 64<<10) // tiny budget: easy to refuse
		rec, err := blackbox.New(blackbox.Config{Name: r.card.Name, Bytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		attach := func() {
			if err := ext.AttachBlackbox(rec); err != nil {
				t.Fatal(err)
			}
			ext.AttachBlackbox(rec) // idempotent
		}
		if blackboxFirst {
			attach()
		}
		if err := ext.AttachOverload(ctl); err != nil {
			t.Fatal(err)
		}
		r.card.StartWatchdog(50*sim.Millisecond, func() { r.card.Reset() })
		if !blackboxFirst {
			attach()
		}

		if err := ext.AddStream(streamSpec(1, 10*sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
		// A stream whose projected ring cannot fit the 64 KiB budget: refusal.
		big := streamSpec(2, 10*sim.Millisecond)
		big.NominalBytes = 4096
		big.BufCap = 64
		if err := ext.AddStream(big); err == nil {
			t.Fatal("oversized stream should be refused")
		}
		for i := 0; i < 20; i++ {
			ext.Enqueue(1, dwcs.Packet{Bytes: 1000})
		}
		r.eng.At(200*sim.Millisecond, func() { r.card.HangHog(300 * sim.Millisecond) })
		r.eng.RunUntil(sim.Second)

		if got := ctl.Budget.UsedClass(overload.ClassBlackbox); got != rec.RingBytes() {
			t.Fatalf("ring charge = %d, want %d", got, rec.RingBytes())
		}
		return rec.DumpAll()
	}
	dump := run(false)
	for _, want := range []string{
		"decision stream=1", "refusal", "admission refused", "watchdog deadman bite",
		"=== incident 1: budget-refusal", ": watchdog at ",
		"ladder rung:", "ni0: used", // the default StateFn: budget ledger and ladder rung
	} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump lacks %q:\n%s", want, dump)
		}
	}
	if first := run(true); first != dump {
		t.Fatalf("recorder attached first dumps differently:\n%s\n--- attached last ---\n%s", first, dump)
	}
}
