package nic

import (
	"errors"
	"testing"

	"repro/internal/bus"
	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/sim"
)

// twoSchedCards builds a migration source and target: two scheduler cards on
// one PCI segment and one switch, configured as the cluster and the fleet
// configure theirs (dispatch 20 ms ahead of each deadline).
func twoSchedCards(t *testing.T) (*sim.Engine, [2]*SchedulerExt) {
	t.Helper()
	eng := sim.NewEngine(11)
	pci := bus.New(eng, bus.PCI("pci0"))
	sw := netsim.NewSwitch(eng, "sw0", 90*sim.Microsecond)
	sw.Attach("client-1", netsim.Fast100(eng, "sw-c1", netsim.NewClient(eng, "client-1")))
	var exts [2]*SchedulerExt
	for i, name := range []string{"ni0", "ni1"} {
		card := New(eng, Config{Name: name, PCI: pci, CacheOn: true})
		card.ConnectEthernet(netsim.Fast100(eng, name+"-eth", sw))
		ext, err := card.LoadScheduler(SchedulerConfig{EligibleEarly: 20 * sim.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		exts[i] = ext
	}
	return eng, exts
}

// migSpec has a (1,4) window so a partial window position is visible across
// the hop (1/2 resets to full after one service).
func migSpec(id int) dwcs.StreamSpec {
	return dwcs.StreamSpec{ID: id, Name: "movie", Period: 160 * sim.Millisecond,
		Loss: fixed.New(1, 4), Lossy: true, BufCap: 8, NominalBytes: 12_000}
}

func enqueueAddressed(t *testing.T, ext *SchedulerExt, id, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := ext.Enqueue(id, dwcs.Packet{Bytes: 12_000, Payload: AddrPayload("client-1")}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDetachImportPreservesWindowCursorAndReplaysQueued: the two calls a live
// migration makes. A stream partway through its loss window, with frames
// still queued, is detached from one card and imported on another: the image
// carries the (x,y) window and a frame cursor rewound past the flushed
// frames, the stream keeps its ID and service history, and the re-enqueued
// descriptors reclaim their original sequence numbers.
func TestDetachImportPreservesWindowCursorAndReplaysQueued(t *testing.T) {
	eng, exts := twoSchedCards(t)
	src, dst := exts[0], exts[1]
	const id = 5
	if err := src.AddStream(migSpec(id)); err != nil {
		t.Fatal(err)
	}
	enqueueAddressed(t, src, id, 3)
	// Run past the first frame's eligibility (deadline 160 ms − 20 ms early
	// window): one frame serviced, (1,4) → (1,3); two frames stay queued.
	eng.RunUntil(200 * sim.Millisecond)
	if st, err := src.Sched.Stats(id); err != nil || st.Serviced != 1 {
		t.Fatalf("pre-detach stats = %+v err=%v, want serviced=1", st, err)
	}
	before, err := src.Sched.ExportStream(id)
	if err != nil {
		t.Fatal(err)
	}

	img, queued, err := src.DetachStream(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(queued) != 2 {
		t.Fatalf("detached %d queued frames, want 2", len(queued))
	}
	if img.WindowX != 1 || img.WindowY != 3 {
		t.Fatalf("image window = (%d,%d), want (1,3)", img.WindowX, img.WindowY)
	}
	if img.Seq != before.Seq-2 || img.Seq != queued[0].Seq || img.Queued != 0 {
		t.Fatalf("image cursor = %d queued=%d, want rewound to the first flushed frame %d (was %d)",
			img.Seq, img.Queued, queued[0].Seq, before.Seq)
	}
	if _, _, err := src.Sched.Window(id); err == nil {
		t.Fatal("source still owns the stream after detach")
	}

	if err := dst.ImportStream(img); err != nil {
		t.Fatal(err)
	}
	if cx, cy, err := dst.Sched.Window(id); err != nil || cx != 1 || cy != 3 {
		t.Fatalf("target window = (%d,%d) err=%v, want (1,3) under the same stream ID", cx, cy, err)
	}
	if st, err := dst.Sched.Stats(id); err != nil || st.Serviced != 1 {
		t.Fatalf("target stats = %+v err=%v, want serviced=1 carried over", st, err)
	}
	for _, pkt := range queued {
		if pkt.Payload != nil {
			t.Fatal("detached descriptor still references source card memory")
		}
		pkt.Payload = AddrPayload("client-1")
		if err := dst.Enqueue(id, pkt); err != nil {
			t.Fatal(err)
		}
	}
	after, err := dst.Sched.ExportStream(id)
	if err != nil {
		t.Fatal(err)
	}
	if after.Seq != before.Seq || after.Queued != 2 {
		t.Fatalf("target cursor = %d queued=%d after replay, want the source's %d and 2",
			after.Seq, after.Queued, before.Seq)
	}
	replayed, err := dst.Sched.FlushStream(id)
	if err != nil {
		t.Fatal(err)
	}
	for i, pkt := range replayed {
		if pkt.Seq != queued[i].Seq {
			t.Fatalf("replayed frame %d has seq %d, want its original %d", i, pkt.Seq, queued[i].Seq)
		}
	}
}

// TestBudgetLedgerConservationAcrossDetachImport: a migration must release on
// the source exactly what admission charged and charge the target through
// the same front door — and a target past its high-water mark refuses the
// import without touching its ledger.
func TestBudgetLedgerConservationAcrossDetachImport(t *testing.T) {
	_, exts := twoSchedCards(t)
	src, dst := exts[0], exts[1]
	for _, ext := range exts {
		ext.AttachOverload(overload.NewController(ext.Card.Name, ext.Card.Mem.Size()))
	}
	b0, b1 := src.Overload.Budget, dst.Overload.Budget
	const id = 5
	if err := src.AddStream(migSpec(id)); err != nil {
		t.Fatal(err)
	}
	enqueueAddressed(t, src, id, 3)
	charged := b0.Used()
	if charged == 0 {
		t.Fatal("admission charged nothing")
	}

	img, _, err := src.DetachStream(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := b0.Used(); got != 0 {
		t.Fatalf("source budget used = %d after detach, want 0", got)
	}
	if ch, rel := b0.Ledger(); ch != rel {
		t.Fatalf("source ledger charged=%d released=%d, want conservation", ch, rel)
	}

	// Target pinned at its high-water mark: the import is refused like a new
	// viewer would be, and nothing is released that was never taken.
	fill := b1.HighWater() - b1.Used()
	if err := b1.Charge(overload.ClassLeak, fill); err != nil {
		t.Fatal(err)
	}
	ch0, rel0 := b1.Ledger()
	if err := dst.ImportStream(img); !errors.Is(err, overload.ErrAdmission) {
		t.Fatalf("import past high water: err = %v, want overload.ErrAdmission", err)
	}
	if ch, rel := b1.Ledger(); ch != ch0 || rel != rel0 || b1.Used() != fill {
		t.Fatalf("refused import moved the target ledger: charged %d→%d released %d→%d used=%d",
			ch0, ch, rel0, rel, b1.Used())
	}
	if _, _, err := dst.Sched.Window(id); err == nil {
		t.Fatal("refused import left the stream registered on the target")
	}

	b1.Release(overload.ClassLeak, fill)
	if err := dst.ImportStream(img); err != nil {
		t.Fatal(err)
	}
	if got := b1.Used(); got != charged || b0.Used()+got != charged {
		t.Fatalf("target budget used = %d (source %d), want the stream's %d moved whole",
			got, b0.Used(), charged)
	}
}
