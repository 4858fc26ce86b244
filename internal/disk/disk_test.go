package disk

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func run1000FrameReads(t *testing.T, fs FS, eng *sim.Engine) sim.Time {
	t.Helper()
	const frames = 1000
	const frameSize = 1000
	var total sim.Time
	var issue func(i int)
	issue = func(i int) {
		if i == frames {
			return
		}
		start := eng.Now()
		fs.Read(int64(i)*frameSize, frameSize, func() {
			total += eng.Now() - start
			issue(i + 1)
		})
	}
	issue(0)
	eng.Run()
	return total / frames
}

func TestDosFsFrameReadAbout4ms(t *testing.T) {
	// Table 4: the 4.2 ms disk component of Experiments II and III.
	eng := sim.NewEngine(1)
	d := New(eng, DefaultSCSI("ni-disk"))
	fs := NewDOSFS(d)
	avg := run1000FrameReads(t, fs, eng)
	ms := avg.Milliseconds()
	if ms < 3.8 || ms > 4.7 {
		t.Fatalf("dosFs avg frame read = %.2f ms, want ≈4.2", ms)
	}
}

func TestUFSFrameReadFastViaCacheAndPrefetch(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, DefaultSCSI("sys-disk"))
	fs := NewUFS(eng, d)
	avg := run1000FrameReads(t, fs, eng)
	ms := avg.Milliseconds()
	if ms > 1.0 {
		t.Fatalf("UFS avg frame read = %.3f ms, want < 1 (cache+prefetch)", ms)
	}
	if fs.Hits <= fs.Misses {
		t.Fatalf("expected mostly cache hits, got %d hits / %d misses", fs.Hits, fs.Misses)
	}
}

func TestDosFsWithoutFATCacheRoughlyDoubles(t *testing.T) {
	eng1 := sim.NewEngine(1)
	d1 := New(eng1, DefaultSCSI("a"))
	cached := run1000FrameReads(t, NewDOSFS(d1), eng1)

	eng2 := sim.NewEngine(1)
	d2 := New(eng2, DefaultSCSI("b"))
	fs := NewDOSFS(d2)
	fs.FATCached = false
	uncached := run1000FrameReads(t, fs, eng2)

	ratio := float64(uncached) / float64(cached)
	if ratio < 1.4 || ratio > 2.6 {
		t.Fatalf("no-FAT-cache/FAT-cache ratio = %.2f, want ~1.5–2.5×", ratio)
	}
}

func TestFilesystemOrdering(t *testing.T) {
	// The Table 4 shape: UFS ≪ dosFs < dosFs-without-FAT-cache.
	avg := func(mk func(*sim.Engine, *Disk) FS) sim.Time {
		eng := sim.NewEngine(1)
		d := New(eng, DefaultSCSI("x"))
		return run1000FrameReads(t, mk(eng, d), eng)
	}
	ufs := avg(func(e *sim.Engine, d *Disk) FS { return NewUFS(e, d) })
	dos := avg(func(e *sim.Engine, d *Disk) FS { return NewDOSFS(d) })
	nofat := avg(func(e *sim.Engine, d *Disk) FS {
		f := NewDOSFS(d)
		f.FATCached = false
		return f
	})
	if !(ufs < dos && dos < nofat) {
		t.Fatalf("ordering violated: ufs=%v dos=%v nofat=%v", ufs, dos, nofat)
	}
}

func TestAccessTimeComponents(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, DefaultSCSI("x"))
	p := d.Params()
	// First access from head 0 at offset 0: no seek.
	base := d.AccessTime(0, 1000)
	want := p.CmdOverhead + p.RotLatency() + sim.Time(1000*int64(sim.Second)/p.TransferBps)
	if base != want {
		t.Fatalf("no-seek access = %v, want %v", base, want)
	}
	// Same-cylinder offset: still no seek.
	if got := d.AccessTime(4096, 1000); got != want {
		t.Fatalf("same-cylinder access = %v, want %v", got, want)
	}
	// Near offset (past the cylinder, within NearBytes) adds a track seek.
	if got := d.AccessTime(200<<10, 1000); got != want+p.TrackSeek {
		t.Fatalf("near access = %v, want %v", got, want+p.TrackSeek)
	}
	// Far offset adds an average seek.
	if got := d.AccessTime(10<<20, 1000); got != want+p.AvgSeek {
		t.Fatalf("far access = %v, want %v", got, want+p.AvgSeek)
	}
}

func TestRotationalLatencyAt7200RPM(t *testing.T) {
	p := DefaultSCSI("x")
	// 7200 RPM → 8.33 ms/rev → 4.17 ms average.
	ms := p.RotLatency().Milliseconds()
	if ms < 4.0 || ms > 4.3 {
		t.Fatalf("rotational latency = %.2f ms, want ≈4.17", ms)
	}
}

func TestDiskSerializesRequests(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, DefaultSCSI("x"))
	var finish []sim.Time
	for i := 0; i < 3; i++ {
		d.Read(0, 1000, func() { finish = append(finish, eng.Now()) })
	}
	eng.Run()
	if len(finish) != 3 {
		t.Fatalf("completions = %d", len(finish))
	}
	for i := 1; i < len(finish); i++ {
		if finish[i] <= finish[i-1] {
			t.Fatalf("requests overlapped: %v", finish)
		}
	}
	if d.Stats.Reads != 3 || d.Stats.BytesRead != 3000 {
		t.Fatalf("stats = %+v", d.Stats)
	}
}

func TestBadAccessPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, DefaultSCSI("x"))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	d.AccessTime(-1, 10)
}

func TestUFSMultiBlockRead(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, DefaultSCSI("x"))
	fs := NewUFS(eng, d)
	done := false
	// Spans blocks 0 and 1 (8 KB blocks).
	fs.Read(8000, 1000, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("multi-block read did not complete")
	}
	if d.Stats.Reads < 2 {
		t.Fatalf("expected ≥2 block reads, got %d", d.Stats.Reads)
	}
}

func TestUFSZeroLengthRead(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, DefaultSCSI("x"))
	fs := NewUFS(eng, d)
	done := false
	fs.Read(100, 0, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("zero-length read did not complete")
	}
}

func TestUFSEvictionBoundsCache(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, DefaultSCSI("x"))
	fs := NewUFS(eng, d)
	fs.MaxBlocks = 4
	var next func(i int64)
	next = func(i int64) {
		if i == 64 {
			return
		}
		fs.Read(i*fs.BlockSize, 100, func() { next(i + 1) })
	}
	next(0)
	eng.Run()
	if len(fs.cache) > fs.MaxBlocks+2 { // +in-flight prefetch slack
		t.Fatalf("cache grew to %d blocks, cap %d", len(fs.cache), fs.MaxBlocks)
	}
}

func TestUFSConcurrentReadersOfSameBlockShareLoad(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, DefaultSCSI("x"))
	fs := NewUFS(eng, d)
	fs.Prefetch = false
	done := 0
	for i := 0; i < 5; i++ {
		fs.Read(0, 100, func() { done++ })
	}
	eng.Run()
	if done != 5 {
		t.Fatalf("completions = %d", done)
	}
	if d.Stats.Reads != 1 {
		t.Fatalf("disk reads = %d, want 1 (shared block load)", d.Stats.Reads)
	}
}

// Property: AccessTime grows monotonically with transfer size.
func TestAccessTimeMonotoneInSize(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, DefaultSCSI("x"))
	f := func(a, b uint32) bool {
		if a > b {
			a, b = b, a
		}
		return d.AccessTime(0, int64(a)) <= d.AccessTime(0, int64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every DOSFS read eventually completes exactly once.
func TestDOSFSCompletionProperty(t *testing.T) {
	f := func(offsets []uint16, fatCached bool) bool {
		eng := sim.NewEngine(3)
		d := New(eng, DefaultSCSI("x"))
		fs := NewDOSFS(d)
		fs.FATCached = fatCached
		completions := 0
		for _, off := range offsets {
			fs.Read(int64(off), 512, func() { completions++ })
		}
		eng.Run()
		return completions == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Queued reads are served in arrival order, each timed from the head
// position the previous read left, and each done runs at its completion.
func TestQueuedReadsServeInOrderFromHead(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, DefaultSCSI("d"))
	ref := New(sim.NewEngine(1), DefaultSCSI("ref"))
	offs := []int64{0, 4 << 20, 4<<20 + 1000, 4<<20 + 500<<10} // none, long, none, near
	var want []sim.Time
	var at sim.Time
	for _, off := range offs {
		at += ref.AccessTime(off, 1000)
		ref.head = off + 1000
		want = append(want, at)
	}
	var got []sim.Time
	for _, off := range offs {
		d.Read(off, 1000, func() { got = append(got, eng.Now()) })
	}
	if d.QueueLen() != len(offs)-1 {
		t.Fatalf("queue length %d, want %d", d.QueueLen(), len(offs)-1)
	}
	eng.Run()
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("completions %v, want %v", got, want)
		}
	}
	if d.Stats.Reads != int64(len(offs)) || d.Stats.SeekTime != d.p.AvgSeek+d.p.TrackSeek {
		t.Fatalf("stats %+v", d.Stats)
	}
}

// A steady-state read, queued behind others, allocates nothing: requests
// wait by value and the grant and completion callbacks are built once.
func TestDiskReadDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, DefaultSCSI("d"))
	done := func() {}
	round := func() {
		for i := int64(0); i < 4; i++ {
			d.Read(i*1000, 1000, done)
		}
		eng.Run()
	}
	round() // grow the wait lines and the event arena
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%v allocs per four reads, want 0", allocs)
	}
}

// BenchmarkDiskRead is the spindle's own number: host time and allocations
// per frame read (grant, access-time model, completion).
func BenchmarkDiskRead(b *testing.B) {
	eng := sim.NewEngine(1)
	d := New(eng, DefaultSCSI("d"))
	done := func() {}
	d.Read(0, 1000, done)
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Read(int64(i%1024)*1000, 1000, done)
		eng.Run()
	}
}
