// Package proto implements the media framing that carries one MPEG frame
// across several UDP datagrams and reassembles it at the client.
//
// The simulation charges protocol *time* in internal/netsim; this package
// supplies the media bytes for the path that touches a real network
// (cmd/dwcsd), where the kernel writes the UDP/IP headers.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Sizes of the encapsulation a media datagram rides in.
const (
	// EthMTU is the classic Ethernet payload limit.
	EthMTU        = 1500
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
)

// MediaHeaderLen is the size of the media framing header that rides inside
// each UDP datagram: magic(4) stream(4) seq(4) frameSize(4) fragOff(4).
const MediaHeaderLen = 20

// MediaMagic identifies DWCS media datagrams ("DWCS").
const MediaMagic = 0x44574353

// MaxMediaPayload is the media payload per datagram such that the whole
// UDP/IP packet fits one Ethernet frame.
const MaxMediaPayload = EthMTU - IPv4HeaderLen - UDPHeaderLen - MediaHeaderLen

// MediaHeader describes one fragment of one media frame.
type MediaHeader struct {
	StreamID  uint32
	Seq       uint32 // frame sequence number within the stream
	FrameSize uint32 // total size of the media frame
	FragOff   uint32 // offset of this fragment within the frame
}

// MaxFrameSize bounds the frame size a media header may declare. It is far
// above any clip frame; a header claiming more is malformed, so a hostile
// datagram cannot make a receiver allocate gigabytes.
const MaxFrameSize = 1 << 20

// Errors returned by UnmarshalMedia.
var (
	ErrTooShort = errors.New("proto: buffer too short")
	ErrBadMagic = errors.New("proto: bad media magic")
)

// appendMedia appends the media header and a fragment payload to dst.
func appendMedia(dst []byte, h MediaHeader, frag []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, MediaMagic)
	dst = binary.BigEndian.AppendUint32(dst, h.StreamID)
	dst = binary.BigEndian.AppendUint32(dst, h.Seq)
	dst = binary.BigEndian.AppendUint32(dst, h.FrameSize)
	dst = binary.BigEndian.AppendUint32(dst, h.FragOff)
	return append(dst, frag...)
}

// MarshalMedia prepends the media header to a fragment payload.
func MarshalMedia(h MediaHeader, frag []byte) []byte {
	return appendMedia(make([]byte, 0, MediaHeaderLen+len(frag)), h, frag)
}

// UnmarshalMedia splits a datagram payload into header and fragment.
func UnmarshalMedia(b []byte) (MediaHeader, []byte, error) {
	if len(b) < MediaHeaderLen {
		return MediaHeader{}, nil, ErrTooShort
	}
	if binary.BigEndian.Uint32(b[0:4]) != MediaMagic {
		return MediaHeader{}, nil, ErrBadMagic
	}
	h := MediaHeader{
		StreamID:  binary.BigEndian.Uint32(b[4:8]),
		Seq:       binary.BigEndian.Uint32(b[8:12]),
		FrameSize: binary.BigEndian.Uint32(b[12:16]),
		FragOff:   binary.BigEndian.Uint32(b[16:20]),
	}
	if h.FrameSize > MaxFrameSize {
		return MediaHeader{}, nil, fmt.Errorf("proto: frame size %d exceeds the %d limit", h.FrameSize, MaxFrameSize)
	}
	if uint64(h.FragOff)+uint64(len(b)-MediaHeaderLen) > uint64(h.FrameSize) {
		return MediaHeader{}, nil, fmt.Errorf("proto: fragment exceeds frame (%d+%d > %d)",
			h.FragOff, len(b)-MediaHeaderLen, h.FrameSize)
	}
	return h, b[MediaHeaderLen:], nil
}

// AppendFragment appends to dst the datagram payload carrying the fragment
// of frame that starts at off — header plus at most MaxMediaPayload of media
// data — and returns the extended slice. It allocates nothing when dst has
// room, so a sender can build every datagram in one reused buffer:
//
//	for off := 0; off == 0 || off < len(frame); off += MaxMediaPayload {
//		buf = AppendFragment(buf[:0], stream, seq, frame, off)
//		send(buf)
//	}
//
// A zero-length frame is one empty fragment at off 0, so the receiver still
// observes the sequence number.
func AppendFragment(dst []byte, streamID, seq uint32, frame []byte, off int) []byte {
	end := min(off+MaxMediaPayload, len(frame))
	return appendMedia(dst, MediaHeader{
		StreamID:  streamID,
		Seq:       seq,
		FrameSize: uint32(len(frame)),
		FragOff:   uint32(off),
	}, frame[off:end])
}

// FragmentFrame splits one media frame into datagram payloads, each at most
// MaxMediaPayload of media data. A zero-length frame yields one empty
// fragment so the receiver still observes the sequence number.
func FragmentFrame(streamID, seq uint32, frame []byte) [][]byte {
	out := make([][]byte, 0, max(1, (len(frame)+MaxMediaPayload-1)/MaxMediaPayload))
	for off := 0; off == 0 || off < len(frame); off += MaxMediaPayload {
		n := min(MaxMediaPayload, len(frame)-off)
		out = append(out, AppendFragment(make([]byte, 0, MediaHeaderLen+n), streamID, seq, frame, off))
	}
	return out
}

// Reassembler rebuilds media frames from fragments, per stream. Frames may
// interleave across streams but fragments of one frame are assumed to
// arrive in order within their stream (UDP on a single path), with gaps
// allowed — an incomplete frame is discarded when a fragment of a newer
// frame arrives (a player can't use half a frame late).
type Reassembler struct {
	// OnFrame receives each completed frame.
	OnFrame func(streamID, seq uint32, frame []byte)

	partial map[uint32]*partialFrame

	// Completed and Discarded count reassembly outcomes; Malformed counts
	// datagrams Ingest rejected.
	Completed int64
	Discarded int64
	Malformed int64
}

type partialFrame struct {
	seq  uint32
	buf  []byte
	got  int
	next int // end offset of the last fragment taken
}

// NewReassembler returns an empty reassembler.
func NewReassembler(onFrame func(streamID, seq uint32, frame []byte)) *Reassembler {
	return &Reassembler{OnFrame: onFrame, partial: make(map[uint32]*partialFrame)}
}

// Ingest consumes one datagram payload. Malformed datagrams — a bad header,
// a frame size that disagrees with the frame's first fragment, a fragment
// that repeats or overlaps one already taken — are counted, reported as
// errors and otherwise ignored: the frame they claimed to belong to is left
// as it was.
func (r *Reassembler) Ingest(b []byte) error {
	h, frag, err := UnmarshalMedia(b)
	if err != nil {
		r.Malformed++
		return err
	}
	p := r.partial[h.StreamID]
	if p != nil && p.seq != h.Seq {
		// Newer (or re-ordered) frame: the half-built one is lost.
		r.Discarded++
		delete(r.partial, h.StreamID)
		p = nil
	}
	if p == nil {
		p = &partialFrame{seq: h.Seq, buf: make([]byte, h.FrameSize)}
		r.partial[h.StreamID] = p
	}
	// UnmarshalMedia bounded the fragment by its own header's frame size;
	// only a header that agrees with the buffer's size bounds it by the
	// buffer.
	if int(h.FrameSize) != len(p.buf) {
		r.Malformed++
		return fmt.Errorf("proto: stream %d frame %d: fragment declares frame size %d, frame has %d",
			h.StreamID, h.Seq, h.FrameSize, len(p.buf))
	}
	if int(h.FragOff) < p.next {
		r.Malformed++
		return fmt.Errorf("proto: stream %d frame %d: fragment at %d repeats bytes before %d",
			h.StreamID, h.Seq, h.FragOff, p.next)
	}
	copy(p.buf[h.FragOff:], frag)
	p.got += len(frag)
	p.next = int(h.FragOff) + len(frag)
	if p.got >= len(p.buf) {
		delete(r.partial, h.StreamID)
		r.Completed++
		if r.OnFrame != nil {
			r.OnFrame(h.StreamID, h.Seq, p.buf)
		}
	}
	return nil
}

// Pending reports streams with incomplete frames.
func (r *Reassembler) Pending() int { return len(r.partial) }
