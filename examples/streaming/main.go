// Streaming: compare the three frame-transfer paths of the paper's
// Figure 3 on the simulated server.
//
//   - Path A: system disk → host CPU/filesystem → I/O bus → NI → network
//   - Path B: disk on one I2O card → PCI peer DMA → scheduler card → network
//   - Path C: disk on the scheduler card itself → network
//
// The example streams the same synthetic MPEG-1 clip down each path and
// reports per-frame latency and which server resources the frames touched —
// the paper's "traffic elimination" argument made concrete.
//
//	go run ./examples/streaming
package main

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/disk"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/rtos"
	"repro/internal/sim"
)

const frames = 200

func main() {
	clip := mpeg.GenerateDefault()
	fmt.Println("path  per-frame   host-bus-bytes  pci-bytes   note")
	a := pathA(clip)
	b := pathB(clip)
	c := pathC(clip)
	fmt.Printf("A     %8.2f ms  %14d  %9d   host CPU + memory in the loop\n", a.perFrame, a.sysBytes, a.pciBytes)
	fmt.Printf("B     %8.2f ms  %14d  %9d   host eliminated; PCI peer DMA\n", b.perFrame, b.sysBytes, b.pciBytes)
	fmt.Printf("C     %8.2f ms  %14d  %9d   host and I/O bus eliminated\n", c.perFrame, c.sysBytes, c.pciBytes)
}

type result struct {
	perFrame float64 // ms
	sysBytes int64
	pciBytes int64
}

// rig builds the shared client side.
func rig(eng *sim.Engine) (*netsim.Switch, *netsim.Client) {
	client := netsim.NewClient(eng, "player")
	sw := netsim.NewSwitch(eng, "sw0", 90*sim.Microsecond)
	sw.Attach("player", netsim.Fast100(eng, "sw-player", client))
	return sw, client
}

func pathA(clip *mpeg.Clip) result {
	eng := sim.NewEngine(1)
	sw, _ := rig(eng)
	hostLink := netsim.Fast100(eng, "host-eth", sw)

	d := disk.New(eng, disk.DefaultSCSI("sys-disk"))
	fs := disk.NewUFS(eng, d)
	pci := bus.New(eng, bus.PCI("pci0"))
	sysb := bus.New(eng, bus.SystemBus("sysbus"))
	bridge := bus.NewBridge(eng, pci, sysb, 500*sim.Nanosecond)
	stack := netsim.HostStack()

	n := 0
	var step func()
	step = func() {
		if n == frames {
			return
		}
		f := clip.Frames[n%len(clip.Frames)]
		fs.Read(f.Offset, f.Size, func() {
			bridge.Transfer(pci, f.Size, func() {
				eng.After(stack.Tx, func() {
					hostLink.Send(&netsim.Packet{Dst: "player", Bytes: f.Size}, nil)
					n++
					step()
				})
			})
		})
	}
	step()
	eng.Run()
	return result{
		perFrame: eng.Now().Milliseconds() / frames,
		sysBytes: sysb.Stats.DMABytes,
		pciBytes: pci.Stats.DMABytes,
	}
}

func pathB(clip *mpeg.Clip) result {
	eng := sim.NewEngine(1)
	sw, _ := rig(eng)
	pci := bus.New(eng, bus.PCI("pci0"))
	src := nic.New(eng, nic.Config{Name: "ni-disk", PCI: pci})
	d := disk.New(eng, disk.DefaultSCSI("d0"))
	src.AttachDisk(d, disk.NewDOSFS(d))
	tx := nic.New(eng, nic.Config{Name: "ni-tx", PCI: pci, CacheOn: true})
	tx.ConnectEthernet(netsim.Fast100(eng, "ni-tx-eth", sw))

	var doneAt sim.Time
	tx.SpawnPeerRelay(src, clip, "player", 0, frames, func() { doneAt = eng.Now() })
	eng.Run()
	return result{
		perFrame: doneAt.Milliseconds() / frames,
		pciBytes: pci.Stats.DMABytes,
	}
}

func pathC(clip *mpeg.Clip) result {
	eng := sim.NewEngine(1)
	sw, _ := rig(eng)
	pci := bus.New(eng, bus.PCI("pci0"))
	card := nic.New(eng, nic.Config{Name: "ni0", PCI: pci})
	d := disk.New(eng, disk.DefaultSCSI("d0"))
	card.AttachDisk(d, disk.NewDOSFS(d))
	card.ConnectEthernet(netsim.Fast100(eng, "ni0-eth", sw))

	var doneAt sim.Time
	// The relay's calls go read, encapsulate, transmit, frame after frame.
	n := 0
	card.Kernel.SpawnStep("relay", nic.PrioRelay, func(tc *rtos.TaskCtx) bool {
		f := clip.Frames[n/3%len(clip.Frames)]
		switch n % 3 {
		case 0:
			if n/3 == frames {
				doneAt = tc.Now()
				return false
			}
			tc.Await(func(cb func()) { card.FS.Read(f.Offset, f.Size, cb) })
		case 1:
			tc.Run(card.Stack.Tx) // protocol encapsulation
		case 2:
			card.Transmit(&netsim.Packet{Src: card.Name, Dst: "player", Bytes: f.Size}, nil)
		}
		n++
		return true
	})
	eng.Run()
	return result{
		perFrame: doneAt.Milliseconds() / frames,
		pciBytes: pci.Stats.DMABytes,
	}
}
