package testbed

import (
	"testing"

	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/mpeg"
	"repro/internal/nic"
	"repro/internal/sim"
)

func TestRigDefaults(t *testing.T) {
	r := New(Options{Seed: 1})
	if r.Host.NumCPU() != 2 || len(r.Segments) != 2 {
		t.Fatalf("defaults: cpus=%d segments=%d", r.Host.NumCPU(), len(r.Segments))
	}
}

func TestRigEndToEndStreaming(t *testing.T) {
	r := New(Options{Seed: 7})
	defer r.Close()
	client := r.AddClient("player")
	_, ext := r.AddSchedulerNI("ni-sched", 1, nic.SchedulerConfig{
		EligibleEarly: 10 * sim.Millisecond,
	})
	diskCard, _ := r.AddDiskNI("ni-disk", 1, 0)

	if err := ext.AddStream(dwcs.StreamSpec{
		ID: 1, Name: "s1", Period: 40 * sim.Millisecond,
		Loss: fixed.New(1, 4), Lossy: true, BufCap: 32,
	}); err != nil {
		t.Fatal(err)
	}
	clip, _ := mpeg.Generate(mpeg.GenConfig{Frames: 40, FPS: 25, GOPPattern: "IBB", MeanFrame: 1500, Seed: 2})
	ext.SpawnPeerProducer(diskCard, clip, 1, "player", 40*sim.Millisecond, 1)
	r.Run(5 * sim.Second)
	if client.Received != 40 {
		t.Fatalf("client received %d of 40", client.Received)
	}
	client.BW.FlushUntil(5 * sim.Second)
	if client.BW.Series.Len() == 0 {
		t.Fatal("bandwidth meter idle")
	}
}

func TestRigStripedAndCachedDisks(t *testing.T) {
	r := New(Options{Seed: 3, Segments: 1})
	_, stripe := r.AddStripedDiskNI("ni-stripe", 0, 4, 16<<10)
	if stripe.Width() != 4 {
		t.Fatalf("stripe width = %d", stripe.Width())
	}
	card, _ := r.AddDiskNI("ni-cache", 0, 1<<20)
	if card.FS.Name() != "cache(dosFs)" {
		t.Fatalf("fs = %q", card.FS.Name())
	}
}

func TestRigValidation(t *testing.T) {
	r := New(Options{Seed: 1})
	r.AddClient("c")
	for _, f := range []func(){
		func() { r.AddClient("c") },
		func() { r.AddDiskNI("d", 9, 0) },
		func() {
			r.AddDiskNI("d", 0, 0)
			r.AddDiskNI("d", 0, 0)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
