package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"repro/internal/blackbox"
	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/mpeg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// replayShape says which of the daemon's two data paths to replay.
type replayShape struct {
	streams int
	frames  int64 // frames to put on the wire, as the real run delivered
	soak    bool  // Heaps selector, one-datagram frames, in-process ingest, churn
}

// replayLayers are the spans of the replay that the daemon process itself
// executes; their self times add up to dwcsd.replay_us_per_frame. Reading
// the datagrams back is the harness's cost on the sender path and is kept
// out; in a soak the daemon ingests its own traffic, so there it counts.
var replayLayers = []string{"dwcs.Enqueue", "dwcs.Schedule", "proto.FragmentFrame", "host.Write",
	"obs.Record", "slo.Eval", "telemetry.Snapshot", "dwcs.AddRemove"}

// layerReplay drives the daemon's data path from the bench, un-paced, for
// the frame count of a real run: Enqueue → Schedule → FragmentFrame →
// loopback Write → (soak: Ingest) → two spans, a flight-recorder event and
// the counters, with SLO evaluation and registry snapshots at the daemon's
// cadence on a virtual clock. Each period's frames go through one layer at
// a time, so a span covers a whole round and the tracing cost stays small
// against the work. What the real daemon spends beyond this — its loop,
// its mutex, its sleeps and wake-ups — is dwcsd.glue_us_per_frame.
func layerReplay(shape replayShape, tr *tracer) (usPerFrame, allocMB float64, err error) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, 0, err
	}
	defer rx.Close()
	if _, err := setRcvBuf(rx, wantRcvBuf); err != nil {
		return 0, 0, err
	}
	tx, err := net.Dial("udp", rx.LocalAddr().String())
	if err != nil {
		return 0, 0, err
	}
	defer tx.Close()

	period := sim.Time(daemonPeriod)
	var clock sim.Time
	sel := dwcs.Scan
	if shape.soak {
		sel = dwcs.Heaps
	}
	sched := dwcs.New(dwcs.Config{Now: func() sim.Time { return clock }, Selector: sel, EligibleEarly: period / 4})
	reg, sentN := daemonRegistry(shape.streams)
	mon := slo.NewMonitor("replay", slo.Config{})
	rec, err := blackbox.New(blackbox.Config{Name: "replay"})
	if err != nil {
		return 0, 0, err
	}
	reg.Spans.Observer = mon.ObserveSegment
	add := func(id int) error {
		spec := dwcs.StreamSpec{ID: id, Name: fmt.Sprintf("s%d", id), Period: period,
			Loss: fixed.New(1, 2), Lossy: true, BufCap: 16}
		if err := sched.AddStream(spec); err != nil {
			return err
		}
		mon.Track(slo.FromSpec(spec, 4*period), func() (int64, int64) {
			st, err := sched.Stats(id)
			if err != nil {
				return 0, 0
			}
			return st.Attempts(), st.Losses()
		})
		return nil
	}
	live := make([]int, shape.streams)
	for i := range live {
		live[i] = i
		if err := add(i); err != nil {
			return 0, 0, err
		}
	}

	clip := mpeg.GenerateDefault()
	payload := mpeg.Encode(clip, payloadSeed)
	if shape.soak {
		payload = make([]byte, 1024)
		rand.New(rand.NewSource(2)).Read(payload)
	}
	reasm := proto.NewReassembler(func(uint32, uint32, []byte) {})
	buf := make([]byte, 64<<10)
	rounds := (shape.frames + int64(shape.streams) - 1) / int64(shape.streams)
	churnAt := rounds / 2
	packets := make([]dwcs.Packet, 0, shape.streams)
	var lastSnap, lastEval sim.Time
	var frames int64
	var rerr error
	fail := func(err error) {
		if rerr == nil {
			rerr = err
		}
	}

	firstSpan := len(tr.spans)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.do("dwcsd.replay", func() {
		for r := int64(0); r < rounds && rerr == nil; r++ {
			clock = sim.Time(r) * period
			if shape.soak && r == churnAt {
				// The soak's churn: a quarter of the sessions leave and are
				// replaced under fresh IDs.
				tr.do("dwcs.AddRemove", func() {
					for i := 0; i < len(live)/4; i++ {
						fail(sched.RemoveStream(live[i]))
						live[i] += shape.streams
						fail(add(live[i]))
					}
				})
			}
			tr.do("dwcs.Enqueue", func() {
				for _, id := range live {
					var p dwcs.Packet
					if shape.soak {
						p.Bytes = 256 + (r%4)*128
					} else {
						f := clip.Frames[int(r)%len(clip.Frames)]
						p.Bytes, p.Offset = f.Size, f.Offset
					}
					fail(sched.Enqueue(id, p))
				}
			})
			clock += period - period/4 // every head comes eligible, none is late
			packets = packets[:0]
			tr.do("dwcs.Schedule", func() {
				for {
					d := sched.Schedule()
					if d.Packet == nil {
						return
					}
					packets = append(packets, *d.Packet)
				}
			})
			var frags [][]byte
			tr.do("proto.FragmentFrame", func() {
				for _, p := range packets {
					frags = append(frags, proto.FragmentFrame(uint32(p.StreamID), uint32(p.Seq), payload[p.Offset:p.Offset+p.Bytes])...)
				}
			})
			tr.do("host.Write", func() {
				for _, f := range frags {
					if _, err := tx.Write(f); err != nil {
						fail(err)
						return
					}
				}
			})
			tr.do("obs.Record", func() {
				for _, p := range packets {
					reg.Span(p.StreamID, p.Seq, telemetry.StageQueue, "replay", p.Enqueued, clock)
					reg.Span(p.StreamID, p.Seq, telemetry.StageTx, "replay", clock, clock)
					if !shape.soak || p.Seq%64 == 0 {
						rec.Record(blackbox.Event{At: clock, Kind: blackbox.KindDecision,
							Stream: p.StreamID, Seq: p.Seq, A: p.Bytes})
					}
					sentN.Inc()
				}
			})
			drain := "harness.Read"
			if shape.soak {
				drain = "proto.Ingest"
			}
			tr.do(drain, func() {
				for range frags {
					rx.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
					n, err := rx.Read(buf)
					if err != nil {
						fail(fmt.Errorf("replay lost a datagram on loopback: %w", err))
						return
					}
					if shape.soak {
						_ = reasm.Ingest(buf[:n]) // well-formed by construction
					}
				}
			})
			if clock-lastSnap >= 500*sim.Millisecond {
				tr.do("telemetry.Snapshot", func() { reg.Snapshot(clock) })
				lastSnap = clock
			}
			if clock-lastEval >= mon.Cfg.EvalEvery {
				tr.do("slo.Eval", mon.Eval)
				lastEval = clock
			}
			frames += int64(len(packets))
			tr.count("replay.frames", int64(len(packets)))
			tr.count("replay.datagrams", int64(len(frags)))
		}
	})
	runtime.ReadMemStats(&after)
	if rerr != nil {
		return 0, 0, rerr
	}
	if frames == 0 {
		return 0, 0, fmt.Errorf("replay scheduled no frame")
	}
	self := tr.selfNs(firstSpan)
	var ns int64
	for _, name := range replayLayers {
		ns += self[name]
	}
	if shape.soak {
		ns += self["proto.Ingest"]
	}
	return float64(ns) / 1e3 / float64(frames), float64(after.TotalAlloc-before.TotalAlloc) / 1e6, nil
}
