package nic

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/disk"
	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// watchedFS is a filesystem that reports each read's start to onRead, so a
// test can act while a producer is inside a disk read.
type watchedFS struct {
	disk.FS
	reads  int
	onRead func(n int)
}

func (w *watchedFS) Read(off, n int64, done func()) {
	w.reads++
	if w.onRead != nil {
		w.onRead(w.reads)
	}
	w.FS.Read(off, n, done)
}

// prodRig is a scheduler card fed by one producer: on its own disk (local,
// path C) or on a disk card across a PCI segment (peer, path B).
type prodRig struct {
	eng    *sim.Engine
	src    *Card // the card whose disk the producer reads
	sched  *Card
	ext    *SchedulerExt
	fs     *watchedFS
	client *netsim.Client
	tel    *telemetry.Registry
	log    strings.Builder // every dispatched frame: seq and enqueue time
}

func newProdRig(t *testing.T, peer bool, memory int64, spec dwcs.StreamSpec) *prodRig {
	t.Helper()
	eng := sim.NewEngine(7)
	t.Cleanup(eng.Close)
	pci := bus.New(eng, bus.PCI("pci0"))
	r := &prodRig{eng: eng}
	r.sched = New(eng, Config{Name: "ni-sched", PCI: pci, CacheOn: true, Memory: memory})
	r.src = r.sched
	if peer {
		r.src = New(eng, Config{Name: "ni-disk", PCI: pci})
	}
	d := disk.New(eng, disk.DefaultSCSI("d0"))
	r.fs = &watchedFS{FS: disk.NewDOSFS(d)}
	r.src.AttachDisk(d, r.fs)
	r.client = netsim.NewClient(eng, "client-1")
	sw := netsim.NewSwitch(eng, "sw0", 90*sim.Microsecond)
	sw.Attach("client-1", netsim.Fast100(eng, "sw-c1", r.client))
	r.sched.ConnectEthernet(netsim.Fast100(eng, "eth", sw))
	ext, err := r.sched.LoadScheduler(SchedulerConfig{EligibleEarly: 5 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r.ext = ext
	r.tel = telemetry.New()
	ext.Instrument(r.tel)
	ext.OnDispatch = func(p *dwcs.Packet) {
		fmt.Fprintf(&r.log, " %d@%d", p.Seq, p.Enqueued/sim.Microsecond)
	}
	if err := ext.AddStream(spec); err != nil {
		t.Fatal(err)
	}
	return r
}

// overload attaches a controller whose periodic evaluation is stopped, so
// the test alone moves its gate and ladder.
func (r *prodRig) overload() *overload.Controller {
	ctl := overload.NewController(r.sched.Name, r.sched.Mem.Size())
	r.ext.AttachOverload(ctl)
	ctl.Stop()
	return ctl
}

func (r *prodRig) spawn(peer bool, clip *mpeg.Clip, every sim.Time, loops, start int) *Producer {
	if peer {
		return r.ext.SpawnPeerProducerFrom(r.src, clip, 1, "client-1", every, loops, start)
	}
	return r.ext.SpawnLocalProducer(clip, 1, "client-1", every, loops)
}

// producerScenario is one back-pressure path: run builds the rig and
// starts the producer, check asserts what the path must produce.
type producerScenario struct {
	name  string
	peer  bool // peer only (the startFrame cursor)
	run   func(t *testing.T, peer bool) (*prodRig, *Producer)
	check func(t *testing.T, r *prodRig, p *Producer)
}

func producerClip(frames int, mean int64) *mpeg.Clip {
	clip, err := mpeg.Generate(mpeg.GenConfig{Frames: frames, FPS: 30, GOPPattern: "IBBPBB", MeanFrame: mean, Seed: 11})
	if err != nil {
		panic(err)
	}
	return clip
}

func prodSpec(period sim.Time, bufCap int) dwcs.StreamSpec {
	return dwcs.StreamSpec{ID: 1, Name: "s", Period: period,
		Loss: fixed.New(1, 2), Lossy: true, BufCap: bufCap}
}

var producerScenarios = []producerScenario{
	{name: "paced, two loops", run: func(t *testing.T, peer bool) (*prodRig, *Producer) {
		r := newProdRig(t, peer, 0, prodSpec(20*sim.Millisecond, 64))
		return r, r.spawn(peer, producerClip(24, 1500), 10*sim.Millisecond, 2, 0)
	}, check: func(t *testing.T, r *prodRig, p *Producer) {
		if p.Injected != 48 {
			t.Errorf("injected %d, want 48", p.Injected)
		}
	}},
	{name: "ring full", run: func(t *testing.T, peer bool) (*prodRig, *Producer) {
		r := newProdRig(t, peer, 0, prodSpec(30*sim.Millisecond, 2))
		return r, r.spawn(peer, producerClip(30, 1200), 0, 1, 0)
	}, check: func(t *testing.T, r *prodRig, p *Producer) {
		if p.Stalled == 0 || p.Injected != 30 {
			t.Errorf("stalled %d, injected %d; want stalls and all 30", p.Stalled, p.Injected)
		}
	}},
	{name: "card memory exhausted", run: func(t *testing.T, peer bool) (*prodRig, *Producer) {
		r := newProdRig(t, peer, 16<<10, prodSpec(20*sim.Millisecond, 64))
		return r, r.spawn(peer, producerClip(30, 3000), 5*sim.Millisecond, 1, 0)
	}, check: func(t *testing.T, r *prodRig, p *Producer) {
		if p.Stalled == 0 || p.Injected != 30 {
			t.Errorf("stalled %d, injected %d; want stalls and all 30", p.Stalled, p.Injected)
		}
	}},
	{name: "overload gate", run: func(t *testing.T, peer bool) (*prodRig, *Producer) {
		r := newProdRig(t, peer, 0, prodSpec(20*sim.Millisecond, 64))
		ctl := r.overload()
		r.eng.At(105*sim.Millisecond, func() { ctl.BP.Update(ctl.BP.High) })
		r.eng.At(263*sim.Millisecond, func() { ctl.BP.Update(0) })
		return r, r.spawn(peer, producerClip(30, 1500), 10*sim.Millisecond, 1, 0)
	}, check: func(t *testing.T, r *prodRig, p *Producer) {
		if p.Throttled == 0 || p.Injected != 30 {
			t.Errorf("throttled %d, injected %d; want throttles and all 30", p.Throttled, p.Injected)
		}
	}},
	{name: "ladder sheds B frames", run: func(t *testing.T, peer bool) (*prodRig, *Producer) {
		r := newProdRig(t, peer, 0, prodSpec(20*sim.Millisecond, 64))
		ctl := r.overload()
		ctl.Ladder.Sustain = 1
		r.eng.At(95*sim.Millisecond, func() { ctl.Ladder.Evaluate(1); ctl.Ladder.Evaluate(1) })
		r.eng.At(301*sim.Millisecond, func() { ctl.Ladder.Evaluate(0); ctl.Ladder.Evaluate(0) })
		return r, r.spawn(peer, producerClip(40, 1500), 10*sim.Millisecond, 1, 0)
	}, check: func(t *testing.T, r *prodRig, p *Producer) {
		if p.Shed == 0 || p.Injected+p.Shed != 40 {
			t.Errorf("shed %d, injected %d; want sheds summing to 40", p.Shed, p.Injected)
		}
	}},
	{name: "stream removed mid-read", run: func(t *testing.T, peer bool) (*prodRig, *Producer) {
		r := newProdRig(t, peer, 0, prodSpec(20*sim.Millisecond, 64))
		r.fs.onRead = func(n int) {
			if n == 12 { // inside the 12th frame's disk read
				r.eng.After(sim.Microsecond, func() {
					if err := r.ext.RemoveStream(1); err != nil {
						t.Error(err)
					}
				})
			}
		}
		return r, r.spawn(peer, producerClip(30, 1500), 10*sim.Millisecond, 1, 0)
	}, check: func(t *testing.T, r *prodRig, p *Producer) {
		if p.Orphaned != 1 || p.Injected != 11 {
			t.Errorf("orphaned %d, injected %d; want 1 and 11", p.Orphaned, p.Injected)
		}
		if r.fs.reads != 12 {
			t.Errorf("%d disk reads, want the producer to stop after the 12th", r.fs.reads)
		}
	}},
	{name: "startFrame cursor", peer: true, run: func(t *testing.T, peer bool) (*prodRig, *Producer) {
		r := newProdRig(t, peer, 0, prodSpec(20*sim.Millisecond, 64))
		return r, r.spawn(peer, producerClip(20, 1500), 10*sim.Millisecond, 2, 27)
	}, check: func(t *testing.T, r *prodRig, p *Producer) {
		if p.Injected != 33 {
			t.Errorf("injected %d, want 13 + 20 from frame 7", p.Injected)
		}
	}},
}

// TestProducerBackpressurePaths drives a local and a peer producer through
// every back-pressure path — ring full, card memory exhausted, overload
// gate, ladder shedding, stream removed mid-read — and the peer producer's
// startFrame cursor, pinning the counters and each dispatched frame's
// enqueue time to testdata/producers.golden.
func TestProducerBackpressurePaths(t *testing.T) {
	var got strings.Builder
	for _, sc := range producerScenarios {
		for _, peer := range []bool{false, true} {
			if sc.peer && !peer {
				continue
			}
			kind := "local"
			if peer {
				kind = "peer"
			}
			r, p := sc.run(t, peer)
			r.eng.RunUntil(5 * sim.Second)
			if used := r.sched.Mem.Used(); used != 0 {
				t.Errorf("%s/%s: %d bytes of card memory still allocated", sc.name, kind, used)
			}
			sc.check(t, r, p)
			fmt.Fprintf(&got, "%s/%s: %+v sent=%d dropped=%d recv=%d\n  enqueued:%s\n  spans:",
				sc.name, kind, *p, r.ext.Sent, r.ext.Dropped, r.client.Received, r.log.String())
			for seg := range r.tel.Spans.All() {
				if seg.Stage == telemetry.StageDisk || seg.Stage == telemetry.StageBus {
					fmt.Fprintf(&got, " %s%d:%d-%d", seg.Stage, seg.Seq, seg.Start/sim.Microsecond, seg.End/sim.Microsecond)
				}
			}
			got.WriteString("\n")
		}
	}
	const golden = "testdata/producers.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("producer behaviour left the golden.\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
