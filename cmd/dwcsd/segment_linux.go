//go:build linux

package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"unsafe"
)

const (
	// udpSegment is UDP_SEGMENT from <linux/udp.h> (Linux ≥ 4.18), which
	// package syscall does not name.
	udpSegment = 103
	// One segmented send carries at most 64 segments and, like any UDP
	// payload, at most 65 507 bytes; a larger frame goes out in several.
	maxSendSegments = 64
	maxSendBytes    = 65507
)

// gsoWriter hands the kernel a whole frame in one sendmsg carrying a
// SOL_UDP/UDP_SEGMENT control message: the kernel cuts the buffer into
// datagrams of the segment size (the last one shorter) after one trip
// through the socket layer instead of one per datagram, and the receiver
// cannot tell the difference. The segment plus IP and UDP headers must fit
// the path MTU, as each datagram had to before. A kernel or device that
// refuses the control message gets one datagram per write from then on.
type gsoWriter struct {
	conn    *net.UDPConn
	oob     []byte // the control message; only the segment size changes
	each    datagramWriter
	refused bool
}

// newSegmentWriter returns the gsoWriter of a UDP socket; anything else (a
// test's writer, soak's stallWriter) is written one datagram at a time.
func newSegmentWriter(w io.Writer) segmentWriter {
	conn, ok := w.(*net.UDPConn)
	if !ok {
		return datagramWriter{w}
	}
	g := &gsoWriter{conn: conn, each: datagramWriter{conn}, oob: make([]byte, syscall.CmsgSpace(2))}
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&g.oob[0]))
	h.Level, h.Type = syscall.IPPROTO_UDP, udpSegment
	h.SetLen(syscall.CmsgLen(2))
	return g
}

func (g *gsoWriter) writeSegments(b []byte, seg int) error {
	if g.refused || len(b) <= seg {
		return g.each.writeSegments(b, seg)
	}
	*(*uint16)(unsafe.Pointer(&g.oob[syscall.CmsgLen(0)])) = uint16(seg)
	perSend := min(maxSendSegments, maxSendBytes/seg) * seg
	for len(b) > 0 {
		n := min(perSend, len(b))
		if _, _, err := g.conn.WriteMsgUDP(b[:n], g.oob, nil); err != nil {
			if !gsoRefused(err) {
				return err
			}
			g.refused = true
			fmt.Fprintf(os.Stderr, "dwcsd: UDP_SEGMENT refused (%v); sending one datagram per write from now on\n", err)
			return g.each.writeSegments(b, seg)
		}
		b = b[n:]
	}
	return nil
}

// gsoRefused reports the errors with which Linux turns down a segmented
// send as such — no such option, no checksum offload on the device,
// checksums disabled on the socket — rather than this frame.
func gsoRefused(err error) bool {
	for _, no := range []syscall.Errno{syscall.EINVAL, syscall.EIO, syscall.ENOPROTOOPT, syscall.EOPNOTSUPP} {
		if errors.Is(err, no) {
			return true
		}
	}
	return false
}
