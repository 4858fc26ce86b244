package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

// referenceFragmentFrame is FragmentFrame as it stood before AppendFragment
// existed: header fields written with PutUint32 into a fresh slice per
// fragment. The tests hold the rebuilt call to these bytes.
func referenceFragmentFrame(streamID, seq uint32, frame []byte) [][]byte {
	marshal := func(frameSize, fragOff uint32, frag []byte) []byte {
		out := make([]byte, MediaHeaderLen+len(frag))
		binary.BigEndian.PutUint32(out[0:4], MediaMagic)
		binary.BigEndian.PutUint32(out[4:8], streamID)
		binary.BigEndian.PutUint32(out[8:12], seq)
		binary.BigEndian.PutUint32(out[12:16], frameSize)
		binary.BigEndian.PutUint32(out[16:20], fragOff)
		copy(out[MediaHeaderLen:], frag)
		return out
	}
	if len(frame) == 0 {
		return [][]byte{marshal(0, 0, nil)}
	}
	var out [][]byte
	for off := 0; off < len(frame); off += MaxMediaPayload {
		end := min(off+MaxMediaPayload, len(frame))
		out = append(out, marshal(uint32(len(frame)), uint32(off), frame[off:end]))
	}
	return out
}

// AppendFragment into one reused buffer, and FragmentFrame rebuilt on it,
// produce the reference bytes at every size that matters.
func TestAppendFragmentMatchesReference(t *testing.T) {
	for _, size := range []int{0, 1, MaxMediaPayload - 1, MaxMediaPayload, MaxMediaPayload + 1, 5000} {
		frame := make([]byte, size)
		for i := range frame {
			frame[i] = byte(i*31 + 7)
		}
		want := referenceFragmentFrame(9, 0xdeadbeef, frame)
		got := FragmentFrame(9, 0xdeadbeef, frame)
		if len(got) != len(want) {
			t.Fatalf("size %d: FragmentFrame gives %d fragments, want %d", size, len(got), len(want))
		}
		buf := make([]byte, 0, MediaHeaderLen+MaxMediaPayload)
		n := 0
		for off := 0; off == 0 || off < len(frame); off += MaxMediaPayload {
			buf = AppendFragment(buf[:0], 9, 0xdeadbeef, frame, off)
			if n >= len(want) || !bytes.Equal(buf, want[n]) {
				t.Fatalf("size %d: AppendFragment at offset %d differs from the reference", size, off)
			}
			if !bytes.Equal(got[n], want[n]) {
				t.Fatalf("size %d: FragmentFrame fragment %d differs from the reference", size, n)
			}
			n++
		}
		if n != len(want) {
			t.Fatalf("size %d: the append loop made %d fragments, want %d", size, n, len(want))
		}
	}
}

func TestAppendFragmentDoesNotAllocate(t *testing.T) {
	frame := make([]byte, 5000)
	buf := make([]byte, 0, MediaHeaderLen+MaxMediaPayload)
	allocs := testing.AllocsPerRun(100, func() {
		for off := 0; off < len(frame); off += MaxMediaPayload {
			buf = AppendFragment(buf[:0], 1, 2, frame, off)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendFragment into a sized buffer allocates %.0f times per frame", allocs)
	}
}

// hdr builds a media datagram with an arbitrary (possibly lying) header.
func hdr(stream, seq, frameSize, fragOff uint32, payload int) []byte {
	return appendMedia(nil, MediaHeader{StreamID: stream, Seq: seq, FrameSize: frameSize, FragOff: fragOff},
		make([]byte, payload))
}

// The two datagram sequences that crashed dwcsd -recv: a later fragment
// whose header claims a bigger frame than the one its buffer was sized for,
// and a header claiming a 4 GiB frame. Both are errors, both are counted,
// and the reassembler goes on working.
func TestReassemblerRejectsLyingHeaders(t *testing.T) {
	var done [][]byte
	r := NewReassembler(func(_, _ uint32, f []byte) { done = append(done, f) })

	if err := r.Ingest(hdr(1, 5, 100, 0, 50)); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(hdr(1, 5, 10000, 5000, 50)); err == nil {
		t.Fatal("fragment with a different frame size accepted")
	}
	if err := r.Ingest(hdr(2, 0, 0xFFFFFFFF, 0, 10)); err == nil {
		t.Fatal("4 GiB frame size accepted")
	}
	if err := r.Ingest(hdr(2, 0, MaxFrameSize+1, 0, 10)); err == nil {
		t.Fatal("frame size just past MaxFrameSize accepted")
	}
	if r.Malformed != 3 {
		t.Fatalf("Malformed = %d, want 3", r.Malformed)
	}
	// The frame the liar tried to join is intact and completes.
	if err := r.Ingest(hdr(1, 5, 100, 50, 50)); err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || len(done[0]) != 100 || r.Completed != 1 || r.Pending() != 0 {
		t.Fatalf("after the attack: %d frames done, completed=%d pending=%d", len(done), r.Completed, r.Pending())
	}
	// And a frame of exactly MaxFrameSize is legal.
	if err := r.Ingest(hdr(3, 0, MaxFrameSize, 0, MaxMediaPayload)); err != nil {
		t.Fatal(err)
	}
}

// A repeated fragment must not count twice towards completion: the frame
// would be delivered with a hole in it.
func TestReassemblerIgnoresDuplicateFragment(t *testing.T) {
	frame := bytes.Repeat([]byte{0xAB}, 2*MaxMediaPayload)
	frags := FragmentFrame(1, 0, frame)
	var got []byte
	r := NewReassembler(func(_, _ uint32, f []byte) { got = f })
	if err := r.Ingest(frags[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(frags[0]); err == nil {
		t.Fatal("duplicate fragment accepted")
	}
	if got != nil {
		t.Fatal("frame delivered with its second half missing")
	}
	if err := r.Ingest(frags[1]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame) || r.Malformed != 1 {
		t.Fatalf("frame wrong after a duplicate (malformed=%d)", r.Malformed)
	}
}

// FuzzReassemblerIngest feeds the reassembler a datagram stream cut from
// the fuzz input (2-byte big-endian length, then that many bytes, repeated).
// Whatever arrives, Ingest must not panic, must not deliver a frame larger
// than MaxFrameSize, and its counters must add up.
func FuzzReassemblerIngest(f *testing.F) {
	pack := func(datagrams ...[]byte) []byte {
		var in []byte
		for _, d := range datagrams {
			in = binary.BigEndian.AppendUint16(in, uint16(len(d)))
			in = append(in, d...)
		}
		return in
	}
	valid := FragmentFrame(7, 3, bytes.Repeat([]byte{1}, 3*MaxMediaPayload+99))
	f.Add(pack(hdr(1, 5, 100, 0, 50), hdr(1, 5, 10000, 5000, 50))) // crashed: slice bounds out of range [5000:100]
	f.Add(pack(hdr(1, 0, 0xFFFFFFFF, 0, 0)))                       // made a 4 GiB buffer
	f.Add(pack(valid...))
	f.Add(pack(valid[0], valid[0], valid[1])) // duplicate fragment
	f.Fuzz(func(t *testing.T, in []byte) {
		var delivered int64
		r := NewReassembler(func(_, _ uint32, frame []byte) {
			delivered++
			if len(frame) > MaxFrameSize {
				t.Fatalf("delivered a %d-byte frame", len(frame))
			}
		})
		var ingested, rejected int64
		for len(in) >= 2 {
			n := int(binary.BigEndian.Uint16(in))
			in = in[2:]
			n = min(n, len(in))
			if r.Ingest(in[:n]) != nil {
				rejected++
			}
			ingested++
			in = in[n:]
		}
		if r.Malformed != rejected || r.Completed != delivered {
			t.Fatalf("counters: malformed=%d (rejected %d), completed=%d (delivered %d)",
				r.Malformed, rejected, r.Completed, delivered)
		}
		if r.Completed+r.Discarded+int64(r.Pending()) > ingested {
			t.Fatalf("more frames (%d done, %d discarded, %d pending) than datagrams (%d)",
				r.Completed, r.Discarded, r.Pending(), ingested)
		}
	})
}

// FuzzUnmarshalMedia: whatever UnmarshalMedia accepts is bounded and
// round-trips through MarshalMedia.
func FuzzUnmarshalMedia(f *testing.F) {
	f.Add(hdr(1, 2, 3, 0, 3))
	f.Add(hdr(1, 2, 0xFFFFFFFF, 0xFFFFFFF0, 8))
	f.Add([]byte("DWCS"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		h, frag, err := UnmarshalMedia(b)
		if err != nil {
			return
		}
		if h.FrameSize > MaxFrameSize || uint64(h.FragOff)+uint64(len(frag)) > uint64(h.FrameSize) {
			t.Fatalf("accepted header %+v with a %d-byte fragment", h, len(frag))
		}
		if !bytes.Equal(MarshalMedia(h, frag), b) {
			t.Fatalf("header %+v does not round-trip", h)
		}
	})
}

func TestMediaHeaderRoundTrip(t *testing.T) {
	h := MediaHeader{StreamID: 3, Seq: 99, FrameSize: 1000, FragOff: 500}
	frag := bytes.Repeat([]byte{0xAB}, 500)
	b := MarshalMedia(h, frag)
	got, body, err := UnmarshalMedia(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h || !bytes.Equal(body, frag) {
		t.Fatalf("mismatch: %+v", got)
	}
	if _, _, err := UnmarshalMedia(b[:10]); !errors.Is(err, ErrTooShort) {
		t.Errorf("short: %v", err)
	}
	b[0] = 0
	if _, _, err := UnmarshalMedia(b); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic: %v", err)
	}
	over := MarshalMedia(MediaHeader{FrameSize: 10, FragOff: 8}, []byte{1, 2, 3, 4})
	if _, _, err := UnmarshalMedia(over); err == nil {
		t.Error("fragment overflow not detected")
	}
}

func TestFragmentAndReassemble(t *testing.T) {
	frame := make([]byte, 3*MaxMediaPayload+123)
	for i := range frame {
		frame[i] = byte(i * 7)
	}
	frags := FragmentFrame(5, 42, frame)
	if len(frags) != 4 {
		t.Fatalf("fragments = %d, want 4", len(frags))
	}
	var gotStream, gotSeq uint32
	var got []byte
	r := NewReassembler(func(s, q uint32, f []byte) {
		gotStream, gotSeq = s, q
		got = f
	})
	for _, f := range frags {
		if err := r.Ingest(f); err != nil {
			t.Fatal(err)
		}
	}
	if gotStream != 5 || gotSeq != 42 {
		t.Fatalf("ids = %d/%d", gotStream, gotSeq)
	}
	if !bytes.Equal(got, frame) {
		t.Fatal("reassembled frame differs")
	}
	if r.Completed != 1 || r.Pending() != 0 {
		t.Fatalf("completed=%d pending=%d", r.Completed, r.Pending())
	}
}

func TestReassemblerDiscardsIncompleteOnNewFrame(t *testing.T) {
	frameA := make([]byte, 2*MaxMediaPayload)
	frameB := []byte("tiny")
	fragsA := FragmentFrame(1, 1, frameA)
	fragsB := FragmentFrame(1, 2, frameB)
	done := 0
	r := NewReassembler(func(_, seq uint32, f []byte) {
		done++
		if seq != 2 || !bytes.Equal(f, frameB) {
			t.Fatalf("wrong frame completed: seq=%d", seq)
		}
	})
	r.Ingest(fragsA[0]) // first half of A, second half lost
	r.Ingest(fragsB[0]) // B arrives: A must be discarded
	if done != 1 || r.Discarded != 1 {
		t.Fatalf("done=%d discarded=%d", done, r.Discarded)
	}
}

func TestReassemblerInterleavedStreams(t *testing.T) {
	fa := bytes.Repeat([]byte{1}, 2*MaxMediaPayload)
	fb := bytes.Repeat([]byte{2}, 2*MaxMediaPayload)
	a := FragmentFrame(1, 0, fa)
	b := FragmentFrame(2, 0, fb)
	completed := map[uint32][]byte{}
	r := NewReassembler(func(s, _ uint32, f []byte) { completed[s] = f })
	r.Ingest(a[0])
	r.Ingest(b[0])
	r.Ingest(a[1])
	r.Ingest(b[1])
	if !bytes.Equal(completed[1], fa) || !bytes.Equal(completed[2], fb) {
		t.Fatal("interleaved streams not reassembled independently")
	}
}

func TestZeroLengthFrame(t *testing.T) {
	frags := FragmentFrame(1, 7, nil)
	if len(frags) != 1 {
		t.Fatalf("fragments = %d", len(frags))
	}
	seen := false
	r := NewReassembler(func(_, seq uint32, f []byte) {
		seen = true
		if seq != 7 || len(f) != 0 {
			t.Fatalf("seq=%d len=%d", seq, len(f))
		}
	})
	if err := r.Ingest(frags[0]); err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Fatal("empty frame not delivered")
	}
}

// Property: fragment+reassemble is the identity for any frame content.
func TestFragmentReassembleProperty(t *testing.T) {
	f := func(frame []byte, stream, seq uint32) bool {
		var got []byte
		ok := false
		r := NewReassembler(func(s, q uint32, f []byte) {
			ok = s == stream && q == seq
			got = f
		})
		for _, frag := range FragmentFrame(stream, seq, frame) {
			if r.Ingest(frag) != nil {
				return false
			}
		}
		return ok && bytes.Equal(got, frame)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the media parser never panics on arbitrary byte soup.
func TestParsersRobustToRandomBytes(t *testing.T) {
	f := func(raw []byte) bool {
		// It may error; it may not panic.
		_, _, _ = UnmarshalMedia(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a reassembler fed arbitrary interleavings of valid fragments
// and garbage never completes a frame with wrong content.
func TestReassemblerRobustness(t *testing.T) {
	f := func(garbage [][]byte, frame []byte, seed uint32) bool {
		ok := true
		r := NewReassembler(func(_, _ uint32, got []byte) {
			if !bytes.Equal(got, frame) {
				ok = false
			}
		})
		frags := FragmentFrame(1, seed, frame)
		gi := 0
		for _, fr := range frags {
			if gi < len(garbage) {
				_ = r.Ingest(garbage[gi]) // errors ignored; must not corrupt
				gi++
			}
			if err := r.Ingest(fr); err != nil {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
