// Layered: map a clip's I/P/B frames onto three DWCS streams with
// decreasing protection, then squeeze the output below the full demand.
// DWCS's window constraints steer all the loss into the B layer while the
// reference frames sail through — the QoS behaviour that makes
// window-constrained scheduling the right tool for MPEG (§3.1.2).
//
//	go run ./examples/layered
package main

import (
	"fmt"

	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/mpeg"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/testbed"
)

func main() {
	rig := testbed.New(testbed.Options{Seed: 21})
	defer rig.Close()
	rig.AddClient("player")
	// A 10 Mbps bottleneck would be the realistic squeeze; here the squeeze
	// is the stream periods vs what we admit, so a plain scheduler NI works.
	_, ext := rig.AddSchedulerNI("ni-sched", 1, nic.SchedulerConfig{
		EligibleEarly: 2400 * sim.Microsecond,
	})
	diskCard, _ := rig.AddDiskNI("ni-disk", 1, 1<<20)

	clip := mpeg.GenerateDefault()
	iFrames, pFrames, bFrames := clip.ByType()
	fmt.Printf("clip: %d I / %d P / %d B frames\n", len(iFrames), len(pFrames), len(bFrames))

	// The NI ships ≈1090 frames/s (decision + dispatch + protocol stack
	// ≈ 0.92 ms each). Three layers at 2.4 ms periods demand 1250/s — a
	// 1.15× overload — while the layers' guaranteed minimum (100% of I +
	// 75% of P + 50% of B ≈ 940/s) still fits, so the window constraints
	// are feasible: the B layer must absorb the entire shortfall.
	T := 2400 * sim.Microsecond
	layers := []struct {
		id    int
		name  string
		loss  fixed.Frac
		lossy bool
	}{
		{1, "I (0/1, lossless)", fixed.New(0, 1), false},
		{2, "P (1/4)", fixed.New(1, 4), true},
		{3, "B (1/2)", fixed.New(1, 2), true},
	}
	for _, l := range layers {
		if err := ext.AddStream(dwcs.StreamSpec{
			ID: l.id, Name: l.name, Period: T, Loss: l.loss, Lossy: l.lossy, BufCap: 64,
		}); err != nil {
			panic(err)
		}
	}
	// Producers inject 2× faster than the layers are scheduled.
	ext.SpawnPeerProducer(diskCard, clipOf(clip, iFrames), 1, "player", T/2, 1<<30)
	ext.SpawnPeerProducer(diskCard, clipOf(clip, pFrames), 2, "player", T/2, 1<<30)
	ext.SpawnPeerProducer(diskCard, clipOf(clip, bFrames), 3, "player", T/2, 1<<30)

	rig.Run(60 * sim.Second)

	fmt.Println("layer               serviced  dropped  late  loss-fraction")
	for _, l := range layers {
		st, _ := ext.Sched.Stats(l.id)
		tot := st.Serviced + st.Dropped
		frac := 0.0
		if tot > 0 {
			frac = float64(st.Dropped) / float64(tot)
		}
		fmt.Printf("%-18s  %8d  %7d  %4d  %.2f\n", l.name, st.Serviced, st.Dropped, st.Late, frac)
	}
	fmt.Println("\nreference frames survive; the disposable B layer pays for the overload.")
}

// clipOf builds a sub-clip from a frame subset, keeping offsets into the
// original file.
func clipOf(c *mpeg.Clip, frames []mpeg.Frame) *mpeg.Clip {
	return &mpeg.Clip{Frames: frames, FPS: c.FPS, Bytes: c.Bytes}
}
