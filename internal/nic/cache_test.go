package nic

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/dwcs"
	"repro/internal/mpeg"
	"repro/internal/sim"
)

func TestStoreKindAndPayloadHelpers(t *testing.T) {
	if StoreDRAM.String() != "dram" || StoreHardwareQueue.String() != "hw-queue" {
		t.Error("store kind names")
	}
	if AddrPayload("client-9").ClientAddr() != "client-9" {
		t.Error("AddrPayload")
	}
}

func TestBenchSchedulerStandsAlone(t *testing.T) {
	eng := sim.NewEngine(1)
	card := New(eng, Config{Name: "bench", CacheOn: true})
	sched := card.NewBenchScheduler(SchedulerConfig{WorkConserving: true})
	if err := sched.AddStream(streamSpec(1, sim.Second)); err != nil {
		t.Fatal(err)
	}
	if err := sched.Enqueue(1, dwcsPacket(700)); err != nil {
		t.Fatal(err)
	}
	if d := sched.Schedule(); d.Packet == nil {
		t.Fatal("bench scheduler did not dispatch")
	}
	// No task was spawned: the engine has nothing scheduler-related queued.
	if card.Kernel.Switches != 0 {
		t.Fatalf("bench scheduler spawned kernel activity: %d switches", card.Kernel.Switches)
	}
}

func TestPeerRelayStreamsAllFrames(t *testing.T) {
	r := newRig(t, true)
	src := New(r.eng, Config{Name: "src", PCI: r.pci})
	d := disk.New(r.eng, disk.DefaultSCSI("sd"))
	src.AttachDisk(d, disk.NewDOSFS(d))
	clip, _ := mpeg.Generate(mpeg.GenConfig{Frames: 30, FPS: 30, GOPPattern: "IBB", MeanFrame: 1200, Seed: 6})
	done := false
	r.card.SpawnPeerRelay(src, clip, "client-1", 0, 30, func() { done = true })
	r.eng.RunUntil(10 * sim.Second)
	if !done {
		t.Fatal("peer relay did not finish")
	}
	if r.client.Received != 30 {
		t.Fatalf("client received %d of 30", r.client.Received)
	}
	if r.pci.Stats.DMATransfers < 30 {
		t.Fatalf("PCI DMA transfers = %d", r.pci.Stats.DMATransfers)
	}
}

func dwcsPacket(n int64) dwcs.Packet { return dwcs.Packet{Bytes: n} }

func TestPauseResumeInstructions(t *testing.T) {
	r := newRig(t, true)
	ext, _ := r.card.LoadScheduler(SchedulerConfig{EligibleEarly: 10 * sim.Millisecond})
	ext.AddStream(streamSpec(1, 20*sim.Millisecond))
	for i := 0; i < 5; i++ {
		ext.Enqueue(1, dwcsPacket(800))
	}
	if _, err := ext.Invoke("pause", 1); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(2 * sim.Second)
	if ext.Sent != 0 {
		t.Fatalf("paused stream sent %d frames", ext.Sent)
	}
	if _, err := ext.Invoke("resume", 1); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(4 * sim.Second)
	if ext.Sent != 5 {
		t.Fatalf("after resume sent %d of 5", ext.Sent)
	}
	if ext.Dropped != 0 {
		t.Fatalf("resume caused %d drops", ext.Dropped)
	}
	for _, op := range []string{"pause", "resume"} {
		if _, err := ext.Invoke(op, "bad"); err == nil {
			t.Errorf("%s with bad arg should fail", op)
		}
	}
}
