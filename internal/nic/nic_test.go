package nic

import (
	"errors"
	"testing"

	"repro/internal/blackbox"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// rig is a one-card test bench: card on a PCI segment, Ethernet to a
// switch, one client.
type rig struct {
	eng    *sim.Engine
	pci    *bus.Bus
	card   *Card
	sw     *netsim.Switch
	client *netsim.Client
}

func newRig(t *testing.T, cacheOn bool) *rig {
	t.Helper()
	eng := sim.NewEngine(7)
	pci := bus.New(eng, bus.PCI("pci0"))
	card := New(eng, Config{Name: "ni0", PCI: pci, CacheOn: cacheOn})
	client := netsim.NewClient(eng, "client-1")
	sw := netsim.NewSwitch(eng, "sw0", 90*sim.Microsecond)
	sw.Attach("client-1", netsim.Fast100(eng, "sw-c1", client))
	card.ConnectEthernet(netsim.Fast100(eng, "ni0-eth", sw))
	return &rig{eng: eng, pci: pci, card: card, sw: sw, client: client}
}

func (r *rig) attachDisk() {
	d := disk.New(r.eng, disk.DefaultSCSI(r.card.Name+"-disk"))
	r.card.AttachDisk(d, disk.NewDOSFS(d))
}

func streamSpec(id int, period sim.Time) dwcs.StreamSpec {
	return dwcs.StreamSpec{ID: id, Name: "s", Period: period,
		Loss: fixed.New(1, 2), Lossy: true, BufCap: 64}
}

func TestCardBoot(t *testing.T) {
	r := newRig(t, true)
	if r.card.Meter.Model.Name != "i960RD-66MHz" {
		t.Fatalf("model = %s", r.card.Meter.Model.Name)
	}
	if r.card.Mem.Size() != 4<<20 {
		t.Fatalf("memory = %d", r.card.Mem.Size())
	}
	if !r.card.Meter.CacheOn {
		t.Fatal("cache should start enabled")
	}
	r.attachDisk()
	if r.card.Meter.CacheOn {
		t.Fatal("attaching a disk must disable the data cache (§4.2)")
	}
}

func TestSchedulerExtensionVCMInstructions(t *testing.T) {
	r := newRig(t, true)
	ext, err := r.card.LoadScheduler(SchedulerConfig{WorkConserving: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.card.VCM.Extensions(); len(got) != 1 || got[0] != "dwcs" {
		t.Fatalf("extensions = %v", got)
	}
	if _, err := r.card.VCM.Invoke(core.Instr{Ext: "dwcs", Op: "addStream",
		Arg: streamSpec(1, 10*sim.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.card.VCM.Invoke(core.Instr{Ext: "dwcs", Op: "enqueue",
		Arg: EnqueueArgs{StreamID: 1, Packet: dwcs.Packet{Bytes: 1000}}}); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(100 * sim.Millisecond)
	res, err := r.card.VCM.Invoke(core.Instr{Ext: "dwcs", Op: "stats", Arg: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := res.(dwcs.StreamStats)
	if st.Enqueued != 1 || st.Serviced != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if ext.Sent != 1 {
		t.Fatalf("sent = %d", ext.Sent)
	}
	// Bad ops and args.
	if _, err := ext.Invoke("nope", nil); !errors.Is(err, core.ErrBadOp) {
		t.Fatalf("err = %v", err)
	}
	for _, in := range []core.Instr{
		{Ext: "dwcs", Op: "addStream", Arg: 7},
		{Ext: "dwcs", Op: "enqueue", Arg: "x"},
		{Ext: "dwcs", Op: "stats", Arg: "x"},
		{Ext: "dwcs", Op: "removeStream", Arg: "x"},
	} {
		if _, err := r.card.VCM.Invoke(in); err == nil {
			t.Errorf("op %s with bad arg should fail", in.Op)
		}
	}
	if _, err := r.card.VCM.Invoke(core.Instr{Ext: "dwcs", Op: "removeStream", Arg: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestPacedStreamingDeliversAtRequestedRate(t *testing.T) {
	r := newRig(t, true)
	r.attachDisk()
	ext, err := r.card.LoadScheduler(SchedulerConfig{EligibleEarly: 5 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	T := 50 * sim.Millisecond
	if err := ext.AddStream(streamSpec(1, T)); err != nil {
		t.Fatal(err)
	}
	clip, _ := mpeg.Generate(mpeg.GenConfig{Frames: 40, FPS: 30, GOPPattern: "IBBPBB", MeanFrame: 1500, Seed: 3})
	ext.SpawnLocalProducer(clip, 1, "client-1", 10*sim.Millisecond, 1)
	r.eng.RunUntil(3 * sim.Second)
	// 40 frames at 20/s: all delivered within 2 s + warmup.
	if r.client.Received < 35 {
		t.Fatalf("client received %d frames, want ≥35", r.client.Received)
	}
	// Paced: inter-delivery ≈ T after warmup; total duration ≈ 40×50 ms.
	if r.client.Late > 2 {
		t.Fatalf("late frames = %d", r.client.Late)
	}
	if qd := ext.QDelay[1]; qd == nil || len(qd.Delays) == 0 {
		t.Fatal("no queuing delays recorded")
	}
}

func TestFrameMemoryFreedAfterDispatch(t *testing.T) {
	r := newRig(t, true)
	r.attachDisk()
	ext, _ := r.card.LoadScheduler(SchedulerConfig{EligibleEarly: 5 * sim.Millisecond})
	ext.AddStream(streamSpec(1, 20*sim.Millisecond))
	clip, _ := mpeg.Generate(mpeg.GenConfig{Frames: 30, FPS: 30, GOPPattern: "IBB", MeanFrame: 2000, Seed: 4})
	ext.SpawnLocalProducer(clip, 1, "client-1", 5*sim.Millisecond, 1)
	r.eng.RunUntil(5 * sim.Second)
	if r.card.Mem.Used() != 0 {
		t.Fatalf("card memory leaked: %d bytes live", r.card.Mem.Used())
	}
	if r.card.Mem.Peak() == 0 {
		t.Fatal("expected nonzero peak usage")
	}
}

// §3.1.2's frame placement: frames resident in NI memory (the paper's
// single-copy design) against pulling each frame from host memory across
// PCI at dispatch time, the rejected alternative. A pulled frame pays one
// DMA in series with its dispatch, so the pull costs exactly the DMA time
// more per frame — over three times the resident figure for a 5000-byte
// frame (110.3 against 30.56 µs).
func TestNIResidentFramesBeatHostPull(t *testing.T) {
	const frame, frames = 5000, 100
	perFrame := func(pull bool) (sim.Time, *bus.Bus) {
		eng := sim.NewEngine(1)
		seg := bus.New(eng, bus.PCI("pci0"))
		card := New(eng, Config{Name: "card", CacheOn: true, PCI: seg})
		done := 0
		var step func()
		step = func() {
			if done == frames {
				return
			}
			dispatch := func() {
				card.ChargeDispatch()
				done++
				step()
			}
			if pull {
				seg.DMA(frame, dispatch)
			} else {
				dispatch()
			}
		}
		step()
		eng.Run()
		return (eng.Now() + card.Meter.Elapsed()) / frames, seg
	}
	resident, _ := perFrame(false)
	pulled, seg := perFrame(true)
	t.Logf("per frame: NI-resident %.2f µs, host pull %.2f µs", resident.Microseconds(), pulled.Microseconds())
	if resident <= 0 {
		t.Fatalf("NI-resident dispatch costs %v per frame", resident)
	}
	if want := resident + seg.DMATime(frame); pulled != want {
		t.Errorf("host pull costs %v per frame, want the resident %v plus one %d-byte DMA = %v",
			pulled, resident, frame, want)
	}
	if pulled < 3*resident {
		t.Errorf("host pull %v per frame is under 3× the resident %v", pulled, resident)
	}
}

func TestPeerProducerUsesPCIWithoutHost(t *testing.T) {
	eng := sim.NewEngine(7)
	pci := bus.New(eng, bus.PCI("pci0"))
	src := New(eng, Config{Name: "ni-disk", PCI: pci})
	d := disk.New(eng, disk.DefaultSCSI("d0"))
	src.AttachDisk(d, disk.NewDOSFS(d))
	schedCard := New(eng, Config{Name: "ni-sched", PCI: pci, CacheOn: true})
	client := netsim.NewClient(eng, "client-1")
	sw := netsim.NewSwitch(eng, "sw0", 90*sim.Microsecond)
	sw.Attach("client-1", netsim.Fast100(eng, "sw-c1", client))
	schedCard.ConnectEthernet(netsim.Fast100(eng, "eth", sw))

	ext, err := schedCard.LoadScheduler(SchedulerConfig{EligibleEarly: 5 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ext.AddStream(streamSpec(1, 20*sim.Millisecond))
	clip, _ := mpeg.Generate(mpeg.GenConfig{Frames: 20, FPS: 30, GOPPattern: "IBB", MeanFrame: 1000, Seed: 5})
	prod := ext.SpawnPeerProducer(src, clip, 1, "client-1", 10*sim.Millisecond, 1)
	eng.RunUntil(3 * sim.Second)
	if client.Received < 18 {
		t.Fatalf("client received %d", client.Received)
	}
	if prod.Injected != 20 {
		t.Fatalf("injected = %d", prod.Injected)
	}
	if pci.Stats.DMATransfers < 20 {
		t.Fatalf("PCI DMA transfers = %d, want ≥20 (path B crosses the I/O bus)", pci.Stats.DMATransfers)
	}
	// The scheduler card keeps its data cache on: no disk attached to it.
	if !schedCard.Meter.CacheOn {
		t.Fatal("dedicated scheduler NI should keep its cache enabled (§4.2)")
	}
}

func TestHardwareQueueStore(t *testing.T) {
	r := newRig(t, true)
	ext, err := r.card.LoadScheduler(SchedulerConfig{Store: StoreHardwareQueue, WorkConserving: true})
	if err != nil {
		t.Fatal(err)
	}
	ext.AddStream(streamSpec(1, 10*sim.Millisecond))
	before := r.card.Meter.Count(0) // placeholder read below
	_ = before
	if err := ext.Enqueue(1, dwcs.Packet{Bytes: 100}); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(50 * sim.Millisecond)
	if ext.Sent != 1 {
		t.Fatalf("sent = %d", ext.Sent)
	}
}

func TestHardwareQueueExhaustionPanics(t *testing.T) {
	r := newRig(t, true)
	ext, _ := r.card.LoadScheduler(SchedulerConfig{Store: StoreHardwareQueue, WorkConserving: true})
	defer func() {
		if recover() == nil {
			t.Error("expected panic when the 1004-register file is exhausted")
		}
	}()
	for i := 0; i < 40; i++ {
		sp := streamSpec(i, 10*sim.Millisecond)
		sp.BufCap = 64 // 40 × 64 > 1004
		if err := ext.AddStream(sp); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSendWithoutLinkStillCounts(t *testing.T) {
	eng := sim.NewEngine(1)
	card := New(eng, Config{Name: "lone"})
	paid := false
	card.Kernel.SpawnStep("t", 10, func(tc *rtos.TaskCtx) bool {
		if !paid {
			paid = true
			tc.Run(card.Stack.Tx)
			return true
		}
		card.Transmit(&netsim.Packet{Dst: "nowhere", Bytes: 100}, nil)
		return false
	})
	eng.Run()
	if card.FramesSent != 1 {
		t.Fatalf("FramesSent = %d", card.FramesSent)
	}
}

// The flight recorder and the scheduler's own counters are the card's record
// of a frame's life: one KindDecision per dispatch, one attempt per frame.
func TestSchedulerTraceRecordsLifecycle(t *testing.T) {
	r := newRig(t, true)
	ext, _ := r.card.LoadScheduler(SchedulerConfig{WorkConserving: true})
	rec, err := blackbox.New(blackbox.Config{Name: r.card.Name})
	if err != nil {
		t.Fatal(err)
	}
	ext.AttachBlackbox(rec)
	ext.AddStream(streamSpec(1, 10*sim.Millisecond))
	for i := 0; i < 3; i++ {
		ext.Enqueue(1, dwcs.Packet{Bytes: 700})
	}
	r.eng.RunUntil(time500ms)
	decisions := 0
	for _, e := range rec.Events() {
		if e.Kind == blackbox.KindDecision && e.Stream == 1 {
			decisions++
		}
	}
	st, err := ext.Sched.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	if decisions != 3 || st.Attempts() != 3 {
		t.Fatalf("recorder: %d decisions, scheduler: %d attempts, want 3 and 3", decisions, st.Attempts())
	}
}

const time500ms = 500 * sim.Millisecond

func TestReconfigureInstruction(t *testing.T) {
	r := newRig(t, true)
	ext, _ := r.card.LoadScheduler(SchedulerConfig{WorkConserving: true})
	ext.AddStream(streamSpec(1, 10*sim.Millisecond))
	if _, err := ext.Invoke("reconfigure", ReconfigureArgs{
		StreamID: 1, Period: 80 * sim.Millisecond, Loss: fixed.New(0, 1),
	}); err != nil {
		t.Fatal(err)
	}
	if x, y, _ := ext.Sched.Window(1); x != 0 || y != 1 {
		t.Fatalf("window = %d/%d", x, y)
	}
	if _, err := ext.Invoke("reconfigure", "bad"); err == nil {
		t.Fatal("bad arg should fail")
	}
}
