package host

import (
	"errors"
	"testing"

	"repro/internal/dwcs"
	"repro/internal/hostos"
	"repro/internal/mpeg"
	"repro/internal/sim"
)

// recordTarget counts enqueues and can simulate a dead path.
type recordTarget struct {
	got  int64
	dead bool
}

func (r *recordTarget) Enqueue(id int, p dwcs.Packet) error {
	if r.dead {
		return errors.New("dead path")
	}
	r.got++
	return nil
}

func TestFailoverTargetRoutesAndMigratesBack(t *testing.T) {
	pri, bak := &recordTarget{}, &recordTarget{}
	var transitions []bool
	f := &FailoverTarget{Primary: pri, Backup: bak,
		OnSwitch: func(b bool) { transitions = append(transitions, b) }}

	for i := 0; i < 3; i++ {
		if err := f.Enqueue(1, dwcs.Packet{Bytes: 100}); err != nil {
			t.Fatal(err)
		}
	}
	f.FailToBackup()
	f.FailToBackup() // idempotent
	for i := 0; i < 5; i++ {
		if err := f.Enqueue(1, dwcs.Packet{Bytes: 100}); err != nil {
			t.Fatal(err)
		}
	}
	f.RestorePrimary()
	if err := f.Enqueue(1, dwcs.Packet{Bytes: 100}); err != nil {
		t.Fatal(err)
	}

	if pri.got != 4 || bak.got != 5 {
		t.Fatalf("primary=%d backup=%d, want 4/5", pri.got, bak.got)
	}
	if f.Switches != 2 || f.ToPrimary != 4 || f.ToBackup != 5 {
		t.Fatalf("switches=%d toPri=%d toBak=%d", f.Switches, f.ToPrimary, f.ToBackup)
	}
	if len(transitions) != 2 || !transitions[0] || transitions[1] {
		t.Fatalf("transitions = %v, want [true false]", transitions)
	}
}

// TestProducerKeepsStreamingThroughFailover: a producer injecting through
// a FailoverTarget whose primary goes dead mid-run keeps delivering via
// the host-resident backup scheduler — the graceful-degradation path.
func TestProducerKeepsStreamingThroughFailover(t *testing.T) {
	b := newBench(t)
	T := 80 * sim.Millisecond
	if err := b.sched.AddStream(stream(1, T), "c1"); err != nil {
		t.Fatal(err)
	}
	pri := &recordTarget{}
	f := &FailoverTarget{Primary: pri, Backup: b.sched}
	clip, _ := mpeg.Generate(mpeg.GenConfig{Frames: 200, FPS: 30, GOPPattern: "IBB", MeanFrame: 1500, Seed: 9})
	p := StartProducer(b.eng, b.sys, f, ProducerConfig{
		Clip: clip, StreamID: 1, Every: 40 * sim.Millisecond,
		PerFrameCPU: 200 * sim.Microsecond, CPU: hostos.AnyCPU,
	})
	b.eng.At(2*sim.Second, func() {
		pri.dead = true
		f.FailToBackup()
	})
	b.eng.RunUntil(6 * sim.Second)
	p.Stop()
	if pri.got == 0 {
		t.Fatal("primary path never used before the fault")
	}
	if b.client.Received < 40 {
		t.Fatalf("client received %d frames via the backup, want ≥40", b.client.Received)
	}
	if p.Stalled != 0 {
		t.Fatalf("producer stalled %d times across the switch", p.Stalled)
	}
}
