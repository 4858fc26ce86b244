// Distributed: the cluster-wide DVCM of Figure 2 — an application on node A
// drives the media scheduler running on node B's network interface purely
// through remote communication instructions over the system-area network,
// then reads back statistics and reconfigures the stream mid-flight.
//
//	go run ./examples/distributed
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dvcmnet"
	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/mpeg"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/testbed"
)

func main() {
	rig := testbed.New(testbed.Options{Seed: 33})
	defer rig.Close()
	client := rig.AddClient("player")
	schedCard, ext := rig.AddSchedulerNI("node-b/ni", 1, nic.SchedulerConfig{
		EligibleEarly: 10 * sim.Millisecond,
	})
	diskCard, _ := rig.AddDiskNI("node-b/disk", 1, 0)

	// Node B's NI joins the distributed machine; node A is a pure client.
	dvcmnet.Attach(rig.Eng, rig.Switch, "node-b", schedCard.VCM)
	appA := dvcmnet.Attach(rig.Eng, rig.Switch, "node-a", nil)

	must := func(op string, in core.Instr) {
		appA.Invoke("node-b", in, func(_ any, err error) {
			if err != nil {
				panic(op + ": " + err.Error())
			}
			fmt.Printf("%-12s acknowledged at %v\n", op, rig.Eng.Now())
		})
	}

	must("addStream", core.Instr{Ext: "dwcs", Op: "addStream", Arg: dwcs.StreamSpec{
		ID: 1, Name: "movie", Period: 40 * sim.Millisecond,
		Loss: fixed.New(1, 4), Lossy: true, BufCap: 64,
	}})
	rig.Run(5 * sim.Millisecond)

	clip, _ := mpeg.Generate(mpeg.GenConfig{Frames: 150, FPS: 25, GOPPattern: "IBBPBB", MeanFrame: 2500, Seed: 4})
	ext.SpawnPeerProducer(diskCard, clip, 1, "player", 40*sim.Millisecond, 1)

	// Half way through, node A halves the stream rate remotely — the
	// network-near reconfiguration of §3.1, driven from across the cluster.
	rig.Eng.At(3*sim.Second, func() {
		must("reconfigure", core.Instr{Ext: "dwcs", Op: "reconfigure", Arg: nic.ReconfigureArgs{
			StreamID: 1, Period: 80 * sim.Millisecond, Loss: fixed.New(1, 4),
		}})
	})

	rig.Run(15 * sim.Second)

	appA.Invoke("node-b", core.Instr{Ext: "dwcs", Op: "stats", Arg: 1},
		func(res any, err error) {
			if err != nil {
				panic(err)
			}
			fmt.Printf("remote stats: %+v\n", res)
		})
	rig.Run(16 * sim.Second)

	fmt.Printf("player received %d frames; remote invocations issued: %d\n",
		client.Received, appA.Issued)
}
