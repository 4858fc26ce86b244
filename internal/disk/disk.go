// Package disk models the SCSI disks attached to the I2O cards and to the
// host disk controller, plus the two filesystems the paper measures through:
// the VxWorks dos-based filesystem (dosFs) and the Solaris UFS.
//
// Calibration anchors (Table 4):
//
//   - A single 1000-byte frame read through dosFs with the FAT cached costs
//     ≈ 4.2 ms — dominated by rotational latency, because the driver issues
//     one synchronous access per frame with no read-ahead (the paper's
//     VxWorks driver even runs with the data cache disabled).
//   - The same file read through UFS costs ≈ 0.1–0.3 ms per frame on
//     average: UFS's 8 KB logical blocks, buffer cache, and prefetching
//     serve 7 of 8 frames from memory.
//   - dosFs mounted on the host without FAT caching pays a periodic
//     metadata detour that roughly doubles the effective per-frame cost,
//     producing the 8 ms host-path figure.
package disk

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Params describes a disk mechanism.
type Params struct {
	Name        string
	RPM         int64    // spindle speed
	TransferBps int64    // media transfer rate, bytes/second
	CmdOverhead sim.Time // controller + SCSI command processing
	TrackSeek   sim.Time // short (near) seek
	AvgSeek     sim.Time // long (random) seek
	SameCyl     int64    // |Δoffset| below this stays on-cylinder (no seek)
	NearBytes   int64    // |Δoffset| below this counts as a near seek
}

// DefaultSCSI returns the late-90s SCSI disk used for calibration:
// 7200 RPM (8.33 ms/rev, 4.17 ms average rotational latency), 10 MB/s media
// rate.
func DefaultSCSI(name string) Params {
	return Params{
		Name:        name,
		RPM:         7200,
		TransferBps: 10_000_000,
		CmdOverhead: 30 * sim.Microsecond,
		TrackSeek:   1 * sim.Millisecond,
		AvgSeek:     8500 * sim.Microsecond,
		SameCyl:     64 << 10,
		NearBytes:   1 << 20,
	}
}

// RotLatency returns the average rotational latency (half a revolution).
func (p Params) RotLatency() sim.Time {
	return sim.Time(int64(sim.Second) * 30 / p.RPM) // 60s/RPM / 2
}

// Stats counts disk activity.
type Stats struct {
	Reads     int64
	BytesRead int64
	SeekTime  sim.Time
}

// Disk is one spindle: a FIFO resource plus a head-position model. Requests
// are synchronous at the modelled driver level — exactly one outstanding
// operation, like the paper's polled VxWorks driver.
//
// A read allocates nothing: the requests wait in a FIFO by value, in the
// order the spindle resource grants them, and the grant and completion
// callbacks are built once. The access time is computed at grant, from the
// head position the previous read left.
type Disk struct {
	eng     *sim.Engine
	p       Params
	res     *sim.Resource
	head    int64 // byte offset just past the last access
	degrade int64 // access-time multiplier set by Degrade (0/1 = healthy)

	reqs     sim.FIFO[readReq] // reads not yet granted, in arrival order
	done     func()            // the read in service's done
	grantFn  func()            // d.grant, built once
	finishFn func()            // d.finish, built once

	// Stats accumulates access counters.
	Stats Stats
}

// readReq is one Read waiting for the spindle.
type readReq struct {
	off, n int64
	done   func()
}

// New returns a disk with its head at offset 0.
func New(eng *sim.Engine, p Params) *Disk {
	d := &Disk{eng: eng, p: p, res: sim.NewResource(eng, p.Name)}
	d.grantFn, d.finishFn = d.grant, d.finish
	return d
}

// Params returns the mechanism parameters.
func (d *Disk) Params() Params { return d.p }

// Instrument exports the spindle's access counters under the disk telemetry
// component. Several disks registered on one registry sum into one
// component-level series.
func (d *Disk) Instrument(reg *telemetry.Registry) {
	reg.CounterFunc("disk", "reads_total",
		"disk read operations", func() int64 { return d.Stats.Reads })
	reg.CounterFunc("disk", "bytes_read_total",
		"bytes read from disk", func() int64 { return d.Stats.BytesRead })
	reg.GaugeFunc("disk", "seek_time_ms",
		"accumulated seek time (milliseconds)", func() float64 { return d.Stats.SeekTime.Milliseconds() })
}

// AccessTime returns the service time for reading n bytes at off given the
// current head position. Every access pays average rotational latency: the
// modelled driver has no read-ahead, so by the time the next request
// arrives the target sector has rotated past (this is what makes a
// sequential 1000-byte frame read cost ≈ 4.2 ms, matching Table 4).
func (d *Disk) AccessTime(off, n int64) sim.Time {
	if n < 0 || off < 0 {
		panic(fmt.Sprintf("disk %s: bad access off=%d n=%d", d.p.Name, off, n))
	}
	t := d.p.CmdOverhead + d.p.RotLatency()
	t += sim.Time(n * int64(sim.Second) / d.p.TransferBps)
	delta := off - d.head
	if delta < 0 {
		delta = -delta
	}
	switch {
	case delta <= d.p.SameCyl:
		// still on (or adjacent to) the current cylinder: no seek
	case delta <= d.p.NearBytes:
		t += d.p.TrackSeek
	default:
		t += d.p.AvgSeek
	}
	return t
}

// Read performs a read of n bytes at offset off and invokes done when the
// data is in the requester's buffer. Requests queue FIFO at the spindle.
func (d *Disk) Read(off, n int64, done func()) {
	d.reqs.Push(readReq{off: off, n: n, done: done})
	d.res.Acquire(d.grantFn)
}

// grant starts the oldest waiting read: the spindle grants in arrival
// order, so it is the head of reqs.
func (d *Disk) grant() {
	q := d.reqs.Pop()
	t := d.degradeTime(d.AccessTime(q.off, q.n))
	delta := q.off - d.head
	if delta < 0 {
		delta = -delta
	}
	if delta > d.p.SameCyl {
		if delta <= d.p.NearBytes {
			d.Stats.SeekTime += d.p.TrackSeek
		} else {
			d.Stats.SeekTime += d.p.AvgSeek
		}
	}
	d.head = q.off + q.n
	d.Stats.Reads++
	d.Stats.BytesRead += q.n
	d.done = q.done
	d.eng.After(t, d.finishFn)
}

// finish completes the read in service: the spindle goes to the next
// waiting read first, then the finished read's done runs.
func (d *Disk) finish() {
	done := d.done
	d.done = nil
	d.res.Release()
	if done != nil {
		done()
	}
}

// Utilization reports the fraction of time the spindle was busy.
func (d *Disk) Utilization() float64 { return d.res.Utilization() }

// QueueLen returns the number of requests waiting for the mechanism — a
// prefetch-pressure input for overload control.
func (d *Disk) QueueLen() int { return d.res.QueueLen() }

// FS is a filesystem through which frames are read.
type FS interface {
	// Read delivers n bytes at offset off of the (single, implicit) media
	// file, invoking done when the bytes are available to the caller.
	Read(off, n int64, done func())
	// Name identifies the filesystem for reports.
	Name() string
}

// DOSFS models the VxWorks dos-based filesystem. With FATCached (the native
// VxWorks configuration on the NI) every read is a single synchronous disk
// access. Without it (the paper's Solaris mount of the VxWorks filesystem)
// every MetaEvery-th read detours to the FAT region first, destroying
// sequentiality for the following data access.
type DOSFS struct {
	Disk      *Disk
	FATCached bool
	MetaEvery int64 // with FATCached=false: FAT detour every k reads (k ≥ 1)
	FATOffset int64 // byte offset of the FAT region

	reads int64
	// Data reads waiting for their FAT detour, in the order the disk
	// completes the detours, and the detour's completion, built once.
	detoured  sim.FIFO[readReq]
	fatDoneFn func()
}

// NewDOSFS returns a dosFs over d with the FAT cached (the NI-resident
// configuration).
func NewDOSFS(d *Disk) *DOSFS {
	// The FAT lives at the front of the partition, a short seek away from
	// the small media file used in the experiments.
	return &DOSFS{Disk: d, FATCached: true, MetaEvery: 2, FATOffset: 0}
}

// Name implements FS.
func (f *DOSFS) Name() string {
	if f.FATCached {
		return "dosFs"
	}
	return "dosFs-nofatcache"
}

// Read implements FS.
func (f *DOSFS) Read(off, n int64, done func()) {
	f.reads++
	if !f.FATCached && f.MetaEvery > 0 && f.reads%f.MetaEvery == 1 {
		// FAT detour: read a FAT sector far from the data, then the data.
		if f.fatDoneFn == nil {
			f.fatDoneFn = f.fatDone
		}
		f.detoured.Push(readReq{off: off, n: n, done: done})
		f.Disk.Read(f.FATOffset, 512, f.fatDoneFn)
		return
	}
	f.Disk.Read(off, n, done)
}

// fatDone starts the data read of the oldest finished FAT detour.
func (f *DOSFS) fatDone() {
	q := f.detoured.Pop()
	f.Disk.Read(q.off, q.n, q.done)
}

// UFS models the Solaris UFS: 8 KB logical blocks, a buffer cache, and
// one-block read-ahead. Sequential small reads mostly hit the cache.
type UFS struct {
	Disk      *Disk
	BlockSize int64
	HitCost   sim.Time // buffer-cache lookup + copy-out per read
	Prefetch  bool
	MaxBlocks int // cache capacity in blocks (FIFO eviction)

	eng     *sim.Engine
	cache   map[int64]*blockState
	order   []int64 // FIFO eviction order of ready blocks
	Hits    int64
	Misses  int64
	demands int64

	// Blocks being loaded, in the order the disk completes them, and the
	// load's completion, built once; finished reads, kept for reuse.
	loading  sim.FIFO[int64]
	loadedFn func()
	free     []*ufsRead
}

// ufsRead is one Read walking its blocks in order. A finished read is
// reused, so its step callback is built once.
type ufsRead struct {
	u       *UFS
	b, last int64 // the block waited for, and the read's last block
	done    func()
	nextFn  func() // r.next
}

type blockState struct {
	ready   bool
	waiters []func()
}

// NewUFS returns a UFS over d with the paper's 8 KB logical block size,
// prefetch enabled, and a 256-block cache.
func NewUFS(eng *sim.Engine, d *Disk) *UFS {
	u := &UFS{
		Disk:      d,
		BlockSize: 8 << 10,
		HitCost:   60 * sim.Microsecond,
		Prefetch:  true,
		MaxBlocks: 256,
		eng:       eng,
		cache:     make(map[int64]*blockState),
	}
	u.loadedFn = u.loaded
	return u
}

// Name implements FS.
func (u *UFS) Name() string { return "ufs" }

// Read implements FS. Reads spanning multiple blocks wait for each block in
// order.
func (u *UFS) Read(off, n int64, done func()) {
	first := off / u.BlockSize
	last := (off + n - 1) / u.BlockSize
	if n == 0 {
		last = first
	}
	var r *ufsRead
	if k := len(u.free); k > 0 {
		r, u.free = u.free[k-1], u.free[:k-1]
	} else {
		r = &ufsRead{u: u}
		r.nextFn = r.next
	}
	r.b, r.last, r.done = first, last, done
	u.ensure(first, true, r.nextFn)
}

// next runs once block r.b is resident: it waits for the next block or,
// all blocks resident, charges the copy-out and completes.
func (r *ufsRead) next() {
	u := r.u
	if r.b < r.last {
		r.b++
		u.ensure(r.b, true, r.nextFn)
		return
	}
	done := r.done
	r.done = nil
	u.free = append(u.free, r)
	u.eng.After(u.HitCost, done)
}

// ensure makes block b resident, then calls ready. demand marks whether this
// is a foreground request (counted as hit/miss) or a prefetch.
func (u *UFS) ensure(b int64, demand bool, ready func()) {
	st, ok := u.cache[b]
	if ok && st.ready {
		if demand {
			u.Hits++
		}
		ready()
		return
	}
	if ok { // load in flight
		if demand {
			u.Misses++
		}
		st.waiters = append(st.waiters, ready)
		return
	}
	if demand {
		u.Misses++
	}
	st = &blockState{waiters: []func(){ready}}
	u.cache[b] = st
	u.loading.Push(b)
	u.Disk.Read(b*u.BlockSize, u.BlockSize, u.loadedFn)
	// Read-ahead is driven by demand misses only; a prefetch never chains
	// into further prefetches (otherwise one read would walk the whole file).
	if u.Prefetch && demand {
		if _, have := u.cache[b+1]; !have {
			u.ensure(b+1, false, func() {})
		}
	}
}

// loaded makes the oldest loading block resident and wakes its waiters. A
// loading block is not in the eviction order, so its cache entry is the one
// ensure made.
func (u *UFS) loaded() {
	b := u.loading.Pop()
	st := u.cache[b]
	st.ready = true
	u.order = append(u.order, b)
	u.evict()
	waiters := st.waiters
	st.waiters = nil
	for _, w := range waiters {
		w()
	}
}

func (u *UFS) evict() {
	for len(u.order) > u.MaxBlocks {
		old := u.order[0]
		u.order = u.order[1:]
		delete(u.cache, old)
	}
}
