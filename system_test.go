// Whole-system integration test: every substrate composed at once — host
// DVCM instructions crossing PCI to a scheduler card, peer producer cards
// reading striped disks, DWCS pacing streams through a lossy switch to
// reliable-transport receivers feeding playout-buffered players, while web
// load hammers the host. The assertions are end-user-level: every admitted
// frame that the lossless path carries arrives in order, the viewers see no
// mid-stream glitches, and the NI numbers don't move when the host is
// loaded.
package repro

import (
	"testing"

	"repro/internal/blackbox"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/hostos"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/webload"
)

func TestWholeSystem(t *testing.T) {
	eng := sim.NewEngine(2026)

	// --- Host: 2 CPUs under web load (shouldn't matter to the NI).
	sys := hostos.New(eng, 2, 10*sim.Millisecond)
	stopDaemons := webload.Daemons(eng, sys)
	gen := webload.NewGenerator(eng, sys, webload.TargetUtilization("45%", 45, 2))
	gen.Start()

	// --- Storage: striped spindles behind a producer card.
	var spindles []*disk.Disk
	for i := 0; i < 4; i++ {
		spindles = append(spindles, disk.New(eng, disk.DefaultSCSI("sp")))
	}
	stripe := &disk.StripedFS{Stripe: disk.NewStripe(spindles, 16<<10)}

	pci := bus.New(eng, bus.PCI("pci1"))
	prodCard := nic.New(eng, nic.Config{Name: "ni-disk", PCI: pci})
	prodCard.AttachDisk(spindles[0], stripe)
	schedCard := nic.New(eng, nic.Config{Name: "ni-sched", PCI: pci, CacheOn: true})

	// --- Network: switch with one unicast player and one multicast group.
	sw := netsim.NewSwitch(eng, "sw0", 90*sim.Microsecond)
	schedCard.ConnectEthernet(netsim.Fast100(eng, "ni-sched-eth", sw))

	player := mpeg.NewPlayer(eng, 25, 8)
	viewer := netsim.NewClient(eng, "viewer")
	viewer.OnFrame = func(*netsim.Packet) { player.Receive() }
	sw.Attach("viewer", netsim.Fast100(eng, "sw-viewer", viewer))

	groupA := netsim.NewClient(eng, "ga")
	groupB := netsim.NewClient(eng, "gb")
	sw.Attach("ga", netsim.Fast100(eng, "sw-ga", groupA))
	sw.Attach("gb", netsim.Fast100(eng, "sw-gb", groupB))
	sw.JoinGroup("mcast", "ga")
	sw.JoinGroup("mcast", "gb")

	// --- Reliable transport over a lossy leg for a lossless control feed.
	var relSender *transport.Sender
	var relOrder []int64
	relSink := netsim.PortFunc(func(p *netsim.Packet) { relOrder = append(relOrder, p.Seq) })
	ackIn := netsim.PortFunc(func(p *netsim.Packet) { relSender.Deliver(p) })
	ackLink := netsim.Fast100(eng, "rel-ack", ackIn)
	relRecv := transport.NewReceiver(eng, relSink, ackLink, "ni-sched")
	lossyData := netsim.Fast100(eng, "rel-data", relRecv)
	lossyData.DropEvery = 6
	relSender = transport.NewSender(eng, lossyData, 8, 30*sim.Millisecond)

	// --- Scheduler extension, flight-recorded, driven from the host.
	ext, err := schedCard.LoadScheduler(nic.SchedulerConfig{EligibleEarly: 20 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := blackbox.New(blackbox.Config{Name: schedCard.Name, Bytes: 8192 * blackbox.EventBytes})
	if err != nil {
		t.Fatal(err)
	}
	ext.AttachBlackbox(rec)
	T := 40 * sim.Millisecond
	addStream := func(id int, name string) {
		schedCard.VCM.InvokeAsync(core.Instr{Ext: "dwcs", Op: "addStream", Arg: dwcs.StreamSpec{
			ID: id, Name: name, Period: T,
			Loss: fixed.New(1, 8), Lossy: true, BufCap: 64,
		}}, 8, func(_ any, err error) {
			if err != nil {
				t.Errorf("addStream %s from the host: %v", name, err)
			}
		})
	}
	addStream(1, "movie")
	addStream(2, "mcast-feed")
	eng.RunUntil(5 * sim.Millisecond) // let the instructions cross PCI

	const frames = 400
	clip, err := mpeg.Generate(mpeg.GenConfig{
		Frames: frames, FPS: 25, GOPPattern: "IBBPBBPBB", MeanFrame: 3000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ext.SpawnPeerProducer(prodCard, clip, 1, "viewer", T, 1)
	ext.SpawnPeerProducer(prodCard, clip, 2, "mcast", T, 1)

	// Lossless control feed rides the reliable transport alongside.
	for i := 0; i < 100; i++ {
		relSender.Send(&netsim.Packet{Dst: "rel", Bytes: 512})
	}

	// Mid-run disk fault.
	eng.At(6*sim.Second, func() { spindles[1].Degrade(3) })
	eng.At(10*sim.Second, func() { spindles[1].Degrade(1) })

	dur := sim.Time(frames)*T + 5*sim.Second
	eng.RunUntil(dur)
	player.Close()

	// --- End-user assertions.
	if viewer.Received != frames {
		t.Errorf("viewer received %d of %d frames", viewer.Received, frames)
	}
	if groupA.Received != frames || groupB.Received != frames {
		t.Errorf("multicast members received %d/%d of %d", groupA.Received, groupB.Received, frames)
	}
	if player.Displayed != frames {
		t.Errorf("player displayed %d of %d", player.Displayed, frames)
	}
	if player.Stalls > 1 { // the single end-of-stream underflow is expected
		t.Errorf("viewer saw %d stalls", player.Stalls)
	}
	if ext.Dropped != 0 {
		t.Errorf("scheduler dropped %d frames despite host load", ext.Dropped)
	}
	if len(relOrder) != 100 {
		t.Errorf("reliable feed delivered %d of 100", len(relOrder))
	}
	for i, seq := range relOrder {
		if seq != int64(i) {
			t.Fatalf("reliable feed out of order at %d", i)
		}
	}
	if relSender.Retransmits == 0 {
		t.Error("lossy leg should have forced retransmissions")
	}
	// The card's memory balance must close.
	if schedCard.Mem.Used() != 0 {
		t.Errorf("card leaked %d bytes", schedCard.Mem.Used())
	}
	// Host was genuinely busy; NI stayed clean.
	if sys.TotalUtilization() < 0.25 {
		t.Errorf("host utilization only %.0f%%", 100*sys.TotalUtilization())
	}
	// The flight recorder holds the lifecycle.
	decisions := 0
	for _, e := range rec.Events() {
		if e.Kind == blackbox.KindDecision {
			decisions++
		}
	}
	if decisions < frames {
		t.Errorf("flight recorder holds %d decisions, want >= %d", decisions, frames)
	}

	// And the stats read from the host agree with the extension.
	var stats dwcs.StreamStats
	schedCard.VCM.InvokeAsync(core.Instr{Ext: "dwcs", Op: "stats", Arg: 1}, 2,
		func(reply any, err error) {
			if err == nil {
				stats = reply.(dwcs.StreamStats)
			}
		})
	// Stop the open-ended load sources so the engine can drain.
	gen.Stop()
	stopDaemons()
	eng.RunUntil(dur + sim.Second)
	if stats.Serviced != frames {
		t.Errorf("host stats report %d serviced, want %d", stats.Serviced, frames)
	}
}
