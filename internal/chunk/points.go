// Package chunk implements TimeCrypt's client-side data serialization
// pipeline (paper §4.1): batching time-ordered points into fixed-interval
// chunks, computing per-chunk statistical digests, compressing point
// payloads, and sealing both under the stream's key material (HEAC for the
// digest, AES-GCM-128 for the raw payload).
package chunk

import (
	"encoding/binary"
	"fmt"
)

// Point is one time series record: a value observed at a timestamp.
// Timestamps are Unix milliseconds; values are scaled integers (the paper's
// scheme operates over integers mod 2^64).
type Point struct {
	TS  int64
	Val int64
}

// MarshalPoints serializes points with delta-encoded timestamps and
// zigzag-varint values — the compact integer layout common to time series
// stores (Gorilla-style). Points must be sorted by timestamp.
func MarshalPoints(pts []Point) []byte {
	return appendPoints(make([]byte, 0, 2+len(pts)*4), pts)
}

// appendPoints appends the MarshalPoints encoding of pts to buf.
func appendPoints(buf []byte, pts []Point) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(pts)))
	var prevTS, prevDelta int64
	for i, p := range pts {
		switch i {
		case 0:
			buf = binary.AppendVarint(buf, p.TS)
		default:
			// Delta-of-delta: consecutive sensor readings have
			// near-constant spacing, so this is usually 0.
			delta := p.TS - prevTS
			buf = binary.AppendVarint(buf, delta-prevDelta)
			prevDelta = delta
		}
		prevTS = p.TS
		buf = binary.AppendVarint(buf, p.Val)
	}
	return buf
}

// UnmarshalPoints decodes a payload produced by MarshalPoints.
func UnmarshalPoints(data []byte) ([]Point, error) {
	n, off := binary.Uvarint(data)
	if off <= 0 {
		return nil, fmt.Errorf("chunk: truncated point count")
	}
	if n > uint64(len(data)) { // each point needs >= 2 bytes; cheap sanity bound
		return nil, fmt.Errorf("chunk: implausible point count %d for %d bytes", n, len(data))
	}
	pts := make([]Point, 0, n)
	rest := data[off:]
	var prevTS, prevDelta int64
	for i := uint64(0); i < n; i++ {
		tsv, k := binary.Varint(rest)
		if k <= 0 {
			return nil, fmt.Errorf("chunk: truncated timestamp at point %d", i)
		}
		rest = rest[k:]
		var ts int64
		if i == 0 {
			ts = tsv
		} else {
			delta := prevDelta + tsv
			ts = prevTS + delta
			prevDelta = delta
		}
		prevTS = ts
		val, k := binary.Varint(rest)
		if k <= 0 {
			return nil, fmt.Errorf("chunk: truncated value at point %d", i)
		}
		rest = rest[k:]
		pts = append(pts, Point{TS: ts, Val: val})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("chunk: %d trailing bytes after points", len(rest))
	}
	return pts, nil
}
