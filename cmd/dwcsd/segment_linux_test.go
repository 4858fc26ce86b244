package main

import (
	"bytes"
	"math/rand"
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/proto"
)

// loopback is a connected UDP socket pair on 127.0.0.1.
func loopback(t *testing.T) (tx, rx *net.UDPConn) {
	t.Helper()
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rx.Close() })
	_ = rx.SetReadBuffer(1 << 20)
	c, err := net.Dial("udp", rx.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c.(*net.UDPConn), rx
}

// readDatagrams reads n datagrams, failing if they do not arrive in a second.
func readDatagrams(t *testing.T, rx *net.UDPConn, n int) [][]byte {
	t.Helper()
	rx.SetReadDeadline(time.Now().Add(time.Second))
	out := make([][]byte, 0, n)
	buf := make([]byte, 64<<10)
	for len(out) < n {
		m, err := rx.Read(buf)
		if err != nil {
			t.Fatalf("after %d of %d datagrams: %v", len(out), n, err)
		}
		out = append(out, bytes.Clone(buf[:m]))
	}
	return out
}

// wireOf is what emit builds for a frame: its fragments back to back.
func wireOf(stream, seq uint32, frame []byte) []byte {
	return bytes.Join(proto.FragmentFrame(stream, seq, frame), nil)
}

func testFrame(n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(b)
	return b
}

func gsoWriterOf(t *testing.T, tx *net.UDPConn) *gsoWriter {
	t.Helper()
	g, ok := newSegmentWriter(tx).(*gsoWriter)
	if !ok {
		t.Fatalf("newSegmentWriter(*net.UDPConn) = %T, want *gsoWriter", newSegmentWriter(tx))
	}
	return g
}

// (a) What arrives for a frame sent in one segmented send is, datagram for
// datagram and in order, proto.FragmentFrame of it.
func TestSegmentedSendMatchesFragmentFrame(t *testing.T) {
	tx, rx := loopback(t)
	g := gsoWriterOf(t, tx)
	for seq, size := range []int{0, 900, proto.MaxMediaPayload, 4 * proto.MaxMediaPayload, 3*proto.MaxMediaPayload + 137, 4000} {
		frame := testFrame(size)
		want := proto.FragmentFrame(7, uint32(seq), frame)
		if err := g.writeSegments(wireOf(7, uint32(seq), frame), segmentLen); err != nil {
			t.Fatalf("%d-byte frame: %v", size, err)
		}
		got := readDatagrams(t, rx, len(want))
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%d-byte frame: datagram %d of %d differs (%d bytes, want %d)", size, i, len(want), len(got[i]), len(want[i]))
			}
		}
	}
	if g.refused {
		t.Fatal("the loopback refused UDP_SEGMENT")
	}
}

// (b) A frame past one send's limits goes out in several and still
// reassembles: the byte limit binds at the media segment size (44 segments a
// send), the 64-segment limit at a small one.
func TestSegmentedSendChunksLargeFrames(t *testing.T) {
	tx, rx := loopback(t)
	g := gsoWriterOf(t, tx)

	frame := testFrame(70*proto.MaxMediaPayload + 11) // 71 datagrams, 103 KB
	var got []byte
	reasm := proto.NewReassembler(func(stream, seq uint32, f []byte) { got = bytes.Clone(f) })
	if err := g.writeSegments(wireOf(3, 9, frame), segmentLen); err != nil {
		t.Fatal(err)
	}
	for _, d := range readDatagrams(t, rx, 71) {
		if err := reasm.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, frame) {
		t.Fatalf("reassembled %d bytes, want the %d sent", len(got), len(frame))
	}

	const seg, n = 100, 150 // 150 segments: sends of 64, 64 and 22
	raw := testFrame(seg*(n-1) + 40)
	if err := g.writeSegments(raw, seg); err != nil {
		t.Fatal(err)
	}
	for i, d := range readDatagrams(t, rx, n) {
		if want := raw[i*seg : min((i+1)*seg, len(raw))]; !bytes.Equal(d, want) {
			t.Fatalf("segment %d of %d: %d bytes, want %d", i, n, len(d), len(want))
		}
	}
}

// (c) A kernel that turns the control message down — here because the
// socket has UDP checksums off, which segmentation requires — gets the frame
// one datagram per write, and every later frame too, even once the cause is
// gone.
func TestSegmentedSendFallsBackOnceAndStays(t *testing.T) {
	tx, rx := loopback(t)
	g := gsoWriterOf(t, tx)
	noCheck := func(v int) {
		rc, err := tx.SyscallConn()
		if err != nil {
			t.Fatal(err)
		}
		var serr error
		if err := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, v)
		}); err != nil || serr != nil {
			t.Fatal(err, serr)
		}
	}
	noCheck(1)
	for seq := uint32(0); seq < 3; seq++ {
		if seq == 1 {
			noCheck(0)
		}
		frame := testFrame(4000)
		want := proto.FragmentFrame(1, seq, frame)
		if err := g.writeSegments(wireOf(1, seq, frame), segmentLen); err != nil {
			t.Fatal(err)
		}
		if !g.refused {
			t.Fatalf("frame %d: the kernel took a segmented send on a no-checksum socket", seq)
		}
		got := readDatagrams(t, rx, len(want))
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d: datagram %d differs after the fallback", seq, i)
			}
		}
	}
	for _, no := range []syscall.Errno{syscall.EINVAL, syscall.EIO, syscall.ENOPROTOOPT, syscall.EOPNOTSUPP} {
		if !gsoRefused(&net.OpError{Op: "write", Err: no}) {
			t.Errorf("%v is not taken as a refusal", no)
		}
	}
	for _, no := range []syscall.Errno{syscall.ECONNREFUSED, syscall.ENOBUFS, syscall.EAGAIN, syscall.EMSGSIZE} {
		if gsoRefused(&net.OpError{Op: "write", Err: no}) {
			t.Errorf("%v is taken as a refusal", no)
		}
	}
}

// One segmented send of a four-datagram frame allocates nothing.
func TestSegmentedSendDoesNotAllocate(t *testing.T) {
	tx, _ := loopback(t)
	g := gsoWriterOf(t, tx)
	wire := wireOf(1, 1, testFrame(4000))
	if allocs := testing.AllocsPerRun(100, func() {
		if err := g.writeSegments(wire, segmentLen); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a segmented send allocates %.0f times", allocs)
	}
}
