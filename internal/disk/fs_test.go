package disk

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// fsWorkload starts overlapping reads — multi-block, repeated, evicted and
// re-read, zero-length, some from concurrent readers — against a small-cache
// UFS and a dosFs without its FAT cache, and logs every completion.
func fsWorkload() string {
	eng := sim.NewEngine(1)
	ufs := NewUFS(eng, New(eng, DefaultSCSI("u")))
	ufs.MaxBlocks = 4
	dos := NewDOSFS(New(eng, DefaultSCSI("d")))
	dos.FATCached = false
	var log strings.Builder
	for i := 0; i < 40; i++ {
		off := int64(i*i*977) % (96 << 10)
		n := int64(1+i%4) * 3000
		if i%9 == 4 {
			n = 0
		}
		at := sim.Time(i/3) * 2 * sim.Millisecond
		for _, fs := range []FS{ufs, dos} {
			eng.At(at, func() {
				fs.Read(off, n, func() { fmt.Fprintf(&log, "%s %d@%d\n", fs.Name(), i, eng.Now()) })
			})
		}
	}
	eng.Run()
	fmt.Fprintf(&log, "ufs hits=%d misses=%d\n", ufs.Hits, ufs.Misses)
	return log.String()
}

// The filesystems complete every read at the instant and in the order
// pinned by fsWorkloadGolden, captured when each read chained its own
// callbacks.
func TestFilesystemCompletionsMatchGolden(t *testing.T) {
	if got := fsWorkload(); got != fsWorkloadGolden {
		t.Errorf("completions left the golden.\n--- got\n%s--- want\n%s", got, fsWorkloadGolden)
	}
}

// A read of resident UFS blocks and a dosFs read with its FAT detour
// allocate nothing: their callbacks are built once.
func TestFilesystemReadsDoNotAllocate(t *testing.T) {
	eng := sim.NewEngine(1)
	ufs := NewUFS(eng, New(eng, DefaultSCSI("u")))
	dos := NewDOSFS(New(eng, DefaultSCSI("d")))
	dos.FATCached = false
	done := func() {}
	for _, c := range []struct {
		name string
		read func()
	}{
		{"ufs resident", func() { ufs.Read(1000, 12000, done); ufs.Read(500, 100, done) }},
		{"dosFs detour", func() { dos.Read(0, 1000, done); dos.Read(5000, 1000, done) }},
	} {
		round := func() { c.read(); eng.Run() }
		round() // load the blocks, grow the wait lines and the event arena
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Errorf("%s: %v allocs per round, want 0", c.name, allocs)
		}
	}
}

// fsWorkloadGolden is fsWorkload's log from the filesystems whose reads
// built their callbacks per call.
const fsWorkloadGolden = `ufs 0@5075866
ufs 1@5075866
dosFs-nofatcache 1@9044532
ufs 4@10091732
ufs 2@10091732
ufs 3@15107598
dosFs-nofatcache 3@18689064
ufs 32@20060000
ufs 5@20123464
ufs 11@20123464
ufs 18@20123464
ufs 25@20123464
ufs 35@22060000
ufs 23@25139330
ufs 15@25139330
ufs 27@25139330
ufs 39@26060000
dosFs-nofatcache 5@27733596
ufs 12@30155196
ufs 6@30155196
ufs 21@30155196
ufs 29@30155196
ufs 38@30155196
ufs 8@35171062
dosFs-nofatcache 7@37378128
ufs 13@40186928
ufs 19@40186928
ufs 37@40186928
ufs 22@45202794
ufs 28@45202794
ufs 24@45202794
ufs 26@45202794
dosFs-nofatcache 0@46122660
ufs 36@50218660
ufs 9@50218660
ufs 33@50218660
dosFs-nofatcache 9@51919326
ufs 17@55234526
ufs 14@60250392
ufs 20@60250392
ufs 30@60250392
dosFs-nofatcache 11@62563858
ufs 16@65266258
ufs 31@65266258
ufs 34@65266258
ufs 10@70282124
dosFs-nofatcache 13@72008390
ufs 7@80313856
dosFs-nofatcache 15@82652922
dosFs-nofatcache 17@92697454
dosFs-nofatcache 19@103341986
dosFs-nofatcache 2@113686518
dosFs-nofatcache 21@118483184
dosFs-nofatcache 23@128127716
dosFs-nofatcache 25@137172248
dosFs-nofatcache 27@146816780
dosFs-nofatcache 29@155861312
dosFs-nofatcache 31@164305844
dosFs-nofatcache 33@174350376
dosFs-nofatcache 35@184994908
dosFs-nofatcache 4@189191574
dosFs-nofatcache 37@198236106
dosFs-nofatcache 39@208880638
dosFs-nofatcache 6@213977304
dosFs-nofatcache 8@218473970
dosFs-nofatcache 10@223570636
dosFs-nofatcache 12@228067302
dosFs-nofatcache 14@233163968
dosFs-nofatcache 16@237660634
dosFs-nofatcache 18@242757300
dosFs-nofatcache 20@247253966
dosFs-nofatcache 22@251450632
dosFs-nofatcache 24@255947298
dosFs-nofatcache 26@261043964
dosFs-nofatcache 28@265540630
dosFs-nofatcache 30@270637296
dosFs-nofatcache 32@276133962
dosFs-nofatcache 34@281230628
dosFs-nofatcache 36@285727294
dosFs-nofatcache 38@290823960
ufs hits=7 misses=65
`
