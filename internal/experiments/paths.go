package experiments

import (
	"repro/internal/bus"
	"repro/internal/disk"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// PathLatency measures one Table 4 configuration: the latency of a
// 1000-byte frame transfer from disk to a remote client, averaged over
// `transfers` strictly sequential transfers (§4.2.2: each transfer completes
// at the client before the next begins).
type PathLatency struct {
	Name     string
	PerFrame sim.Time
}

const (
	t4Transfers = 1000
	t4Frame     = 1000 // bytes
)

// transfers is the body of a Table 4 task: ops in order, t4Transfers times
// over. Each op makes at most one blocking call or burst, and makes it last.
func transfers(ops ...func(tc *rtos.TaskCtx)) func(*rtos.TaskCtx) bool {
	i := 0
	return func(tc *rtos.TaskCtx) bool {
		if i == t4Transfers*len(ops) {
			return false
		}
		ops[i%len(ops)](tc)
		i++
		return true
	}
}

// clientRig is a switch + client measuring delivery times.
type clientRig struct {
	eng       *sim.Engine
	sw        *netsim.Switch
	client    *netsim.Client
	delivered func()
}

func newClientRig(eng *sim.Engine) *clientRig {
	r := &clientRig{eng: eng}
	r.client = netsim.NewClient(eng, "client")
	r.client.OnFrame = func(*netsim.Packet) {
		if r.delivered != nil {
			r.delivered()
		}
	}
	r.sw = netsim.NewSwitch(eng, "sw0", 90*sim.Microsecond)
	r.sw.Attach("client", netsim.Fast100(eng, "sw-client", r.client))
	return r
}

// runExptI measures path A (Figure 3): system disk → host filesystem →
// I/O-bus/system-bus crossing → host protocol stack → 82557 NI → network.
func runExptI(mkFS func(*sim.Engine, *disk.Disk) disk.FS, name string) PathLatency {
	eng := sim.NewEngine(1)
	rig := newClientRig(eng)
	hostLink := netsim.Fast100(eng, "host-eth", rig.sw)

	d := disk.New(eng, disk.DefaultSCSI("sys-disk"))
	fs := mkFS(eng, d)
	pci := bus.New(eng, bus.PCI("pci0"))
	sys := bus.New(eng, bus.SystemBus("sysbus"))
	bridge := bus.NewBridge(eng, pci, sys, 500*sim.Nanosecond)
	stack := netsim.HostStack()

	clip := mpeg.GenerateDefault()
	var start sim.Time
	var total sim.Time
	n := 0
	var step func()
	step = func() {
		if n == t4Transfers {
			return
		}
		start = eng.Now()
		f := clip.Frames[n%len(clip.Frames)]
		// Disk → filesystem buffers (crossing the PCI bridge into host
		// memory), then host stack, then the NI transmit.
		fs.Read(f.Offset, t4Frame, func() {
			bridge.Transfer(pci, t4Frame, func() {
				eng.After(stack.Tx, func() {
					rig.delivered = func() {
						total += eng.Now() - start
						n++
						step()
					}
					hostLink.Send(&netsim.Packet{Dst: "client", Bytes: t4Frame}, nil)
				})
			})
		})
	}
	step()
	eng.Run()
	return PathLatency{Name: name, PerFrame: total / t4Transfers}
}

// runExptII measures path C: NI-attached disk → NI CPU → network, on a
// single card with no other cards active.
func runExptII() PathLatency {
	eng := sim.NewEngine(1)
	rig := newClientRig(eng)
	pci := bus.New(eng, bus.PCI("pci0"))
	card := nic.New(eng, nic.Config{Name: "ni0", PCI: pci})
	d := disk.New(eng, disk.DefaultSCSI("ni-disk"))
	card.AttachDisk(d, disk.NewDOSFS(d))
	card.ConnectEthernet(netsim.Fast100(eng, "ni0-eth", rig.sw))

	clip := mpeg.GenerateDefault()
	var total sim.Time
	done := rtos.NewSemaphore(card.Kernel, "delivered", 0)
	rig.delivered = done.Give
	var start sim.Time
	n := 0
	card.Kernel.SpawnStep("expt2", nic.PrioRelay, transfers(
		func(tc *rtos.TaskCtx) {
			start = tc.Now()
			f := clip.Frames[n%len(clip.Frames)]
			tc.Await(func(cb func()) { card.FS.Read(f.Offset, t4Frame, cb) })
		},
		func(tc *rtos.TaskCtx) { tc.Run(card.Stack.Tx) }, // protocol encapsulation
		func(tc *rtos.TaskCtx) {
			card.Transmit(&netsim.Packet{Src: card.Name, Dst: "client", Bytes: t4Frame}, nil)
			done.Take(tc) // strictly sequential transfers
		},
		func(tc *rtos.TaskCtx) { total += tc.Now() - start; n++ },
	))
	eng.Run()
	return PathLatency{Name: "II: NI Disk-NI CPU-Network", PerFrame: total / t4Transfers}
}

// runExptIII measures path B: disk on one card → PCI peer-to-peer DMA →
// dedicated scheduler/transmit card → network.
func runExptIII() PathLatency {
	eng := sim.NewEngine(1)
	rig := newClientRig(eng)
	pci := bus.New(eng, bus.PCI("pci0"))
	src := nic.New(eng, nic.Config{Name: "ni-disk", PCI: pci})
	d := disk.New(eng, disk.DefaultSCSI("ni-disk0"))
	src.AttachDisk(d, disk.NewDOSFS(d))
	tx := nic.New(eng, nic.Config{Name: "ni-tx", PCI: pci, CacheOn: true})
	tx.ConnectEthernet(netsim.Fast100(eng, "ni-tx-eth", rig.sw))

	clip := mpeg.GenerateDefault()
	var total sim.Time
	frameReady := rtos.NewSemaphore(tx.Kernel, "frame", 0)
	delivered := rtos.NewSemaphore(src.Kernel, "delivered", 0)
	rig.delivered = delivered.Give

	tx.Kernel.SpawnStep("expt3-tx", nic.PrioRelay, transfers(
		func(tc *rtos.TaskCtx) { frameReady.Take(tc) },
		func(tc *rtos.TaskCtx) { tc.Run(tx.Stack.Tx) }, // protocol encapsulation
		func(*rtos.TaskCtx) {
			tx.Transmit(&netsim.Packet{Src: tx.Name, Dst: "client", Bytes: t4Frame}, nil)
		},
	))
	var start sim.Time
	n := 0
	src.Kernel.SpawnStep("expt3-src", nic.PrioProducer, transfers(
		func(tc *rtos.TaskCtx) {
			start = tc.Now()
			f := clip.Frames[n%len(clip.Frames)]
			tc.Await(func(cb func()) { src.FS.Read(f.Offset, t4Frame, cb) })
		},
		func(tc *rtos.TaskCtx) { tc.Await(func(cb func()) { src.PCI.DMA(t4Frame, cb) }) },
		func(tc *rtos.TaskCtx) {
			frameReady.Give()
			delivered.Take(tc) // sequential: wait for client delivery
		},
		func(tc *rtos.TaskCtx) { total += tc.Now() - start; n++ },
	))
	eng.Run()
	return PathLatency{Name: "III: Disk-I/O Bus-NI CPU-Network", PerFrame: total / t4Transfers}
}

// RunTable4 regenerates Table 4: critical-path benchmarks for the three
// frame-transfer paths of Figure 3.
func RunTable4() *Result {
	ufs := runExptI(func(e *sim.Engine, d *disk.Disk) disk.FS { return disk.NewUFS(e, d) },
		"I: Disk-Host CPU-I/O Bus-Network (ufs)")
	vxfs := runExptI(func(e *sim.Engine, d *disk.Disk) disk.FS {
		f := disk.NewDOSFS(d)
		f.FATCached = false // the VxWorks dosFs mounted on Solaris
		return f
	}, "I: Disk-Host CPU-I/O Bus-Network (VxWorks fs)")
	two := runExptII()
	three := runExptIII()

	res := &Result{ID: "Table 4", Title: "Critical-path benchmarks (1000-byte frame, 1000 transfers)"}
	res.Add(ufs.Name, "ms", 1.0, ufs.PerFrame.Milliseconds())
	res.Add(vxfs.Name, "ms", 8.0, vxfs.PerFrame.Milliseconds())
	res.Add(two.Name, "ms", 5.4, two.PerFrame.Milliseconds())
	res.Add(three.Name, "ms", 5.415, three.PerFrame.Milliseconds())
	res.Note("III − II = %.3f ms (paper: 0.015 ms of PCI arbitration/synchronization)",
		(three.PerFrame - two.PerFrame).Milliseconds())
	return res
}

// RunTable5 regenerates Table 5: PCI card-to-card transfer benchmarks.
func RunTable5() *Result {
	eng := sim.NewEngine(1)
	seg := bus.New(eng, bus.PCI("pci0"))
	clip := mpeg.GenerateDefault()

	dmaTime := seg.DMATime(clip.Bytes)
	bw := float64(clip.Bytes) / dmaTime.Seconds() / 1e6

	res := &Result{ID: "Table 5", Title: "PCI card-to-card transfer benchmarks"}
	res.Add("MPEG file transfer by DMA (773665 bytes)", "µs", 11673.84, dmaTime.Microseconds())
	res.Add("DMA bandwidth", "MB/s", 66.27, bw)
	res.Add("Memory word read (PIO)", "µs", 3.6, seg.PIOReadTime().Microseconds())
	res.Add("Memory word write (PIO)", "µs", 3.1, seg.PIOWriteTime().Microseconds())
	res.Note("theoretical PCI peak 132 MB/s; burst overheads halve it, as measured in the paper")
	return res
}
