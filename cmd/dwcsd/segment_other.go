//go:build !linux

package main

import "io"

// newSegmentWriter: without UDP_SEGMENT a frame goes out one write per
// datagram.
func newSegmentWriter(w io.Writer) segmentWriter { return datagramWriter{w} }
