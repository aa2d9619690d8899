package chunk

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"io"
	"sync"
)

// Compression selects the lossless codec applied to a chunk's serialized
// point payload before encryption. The paper's default is zlib, with the
// codec chosen per stream based on what compresses that data best (§4.1
// footnote 2); the varint delta encoding in MarshalPoints already acts as a
// domain-specific pre-pass.
type Compression uint8

const (
	// CompressionZlib applies RFC 1950 deflate. It is the zero value so
	// that it is the default, matching the paper ("with zlib as
	// default", §4.1).
	CompressionZlib Compression = iota
	// CompressionNone stores the serialized points as-is.
	CompressionNone
)

// String returns the canonical codec name.
func (c Compression) String() string {
	switch c {
	case CompressionNone:
		return "none"
	case CompressionZlib:
		return "zlib"
	default:
		return fmt.Sprintf("Compression(%d)", uint8(c))
	}
}

// ParseCompression converts a canonical codec name into a Compression.
func ParseCompression(s string) (Compression, error) {
	switch s {
	case "none":
		return CompressionNone, nil
	case "zlib":
		return CompressionZlib, nil
	}
	return 0, fmt.Errorf("chunk: unknown compression %q", s)
}

// maxDecompressed bounds decompression output to defend against
// decompression bombs from a malicious store.
const maxDecompressed = 64 << 20

// deflater is a reusable zlib compressor with the buffer it writes into
// and one for its input (Seal serializes the points there). A deflate
// state is ~800 KB (window plus hash chains), which is what a
// zlib.NewWriter per chunk used to allocate; a Reset writer produces the
// same bytes as a fresh one. The states live in one process-wide pool and
// not one per stream or Writer: a process with a hundred open streams seals
// on a handful of goroutines at a time, and the pool empties itself across
// garbage collections once sealing stops.
type deflater struct {
	zw  *zlib.Writer
	raw []byte
	out []byte
}

// Write appends to the output buffer (the zlib.Writer's sink).
func (d *deflater) Write(p []byte) (int, error) {
	d.out = append(d.out, p...)
	return len(p), nil
}

var deflaters = sync.Pool{New: func() any {
	d := new(deflater)
	d.zw = zlib.NewWriter(d) // the deflate state itself is built on first Write
	return d
}}

// encode returns data under codec c without copying the result out:
// CompressionNone yields data itself, zlib yields d's own buffer, which is
// valid only until d is used again or returned to the pool.
func (d *deflater) encode(c Compression, data []byte) ([]byte, error) {
	switch c {
	case CompressionNone:
		return data, nil
	case CompressionZlib:
		d.out = d.out[:0]
		d.zw.Reset(d)
		if _, err := d.zw.Write(data); err != nil {
			return nil, err
		}
		if err := d.zw.Close(); err != nil {
			return nil, err
		}
		return d.out, nil
	default:
		return nil, fmt.Errorf("chunk: unknown compression %d", c)
	}
}

// inflater is the reading counterpart: a zlib reader reused through
// zlib.Resetter, the bytes.Reader it reads from (a flate.Reader, so zlib
// adds no bufio layer), and the buffer it inflates into.
type inflater struct {
	src bytes.Reader
	zr  io.ReadCloser // nil until the first payload with a valid header
	out []byte
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// release returns the inflater to the pool without a reference to the last
// payload, so an idle pooled reader pins no caller memory.
func (in *inflater) release() {
	in.src.Reset(nil)
	inflaters.Put(in)
}

// decode reverses encode under the same ownership rule: the result is data
// itself or in's own buffer, valid until in is used again or released.
// Reset re-initialises the reader completely, so a corrupt payload leaves
// nothing behind for the next one.
func (in *inflater) decode(c Compression, data []byte) ([]byte, error) {
	switch c {
	case CompressionNone:
		return data, nil
	case CompressionZlib:
		in.src.Reset(data)
		var err error
		if in.zr == nil {
			in.zr, err = zlib.NewReader(&in.src)
		} else {
			err = in.zr.(zlib.Resetter).Reset(&in.src, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("chunk: zlib: %w", err)
		}
		in.out = in.out[:0]
		for {
			if len(in.out) == cap(in.out) {
				in.out = append(in.out, 0)[:len(in.out)]
			}
			// Never read past the limit plus the one byte that proves
			// the payload exceeds it.
			n, err := in.zr.Read(in.out[len(in.out):min(cap(in.out), maxDecompressed+1)])
			in.out = in.out[:len(in.out)+n]
			if len(in.out) > maxDecompressed {
				return nil, fmt.Errorf("chunk: decompressed payload exceeds %d bytes", maxDecompressed)
			}
			if err == io.EOF {
				return in.out, nil
			}
			if err != nil {
				return nil, fmt.Errorf("chunk: zlib: %w", err)
			}
		}
	default:
		return nil, fmt.Errorf("chunk: unknown compression %d", c)
	}
}

// owned copies a codec's result out of pooled (or caller) memory.
func owned(b []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// Compress encodes data with the codec. The result is the caller's.
func Compress(c Compression, data []byte) ([]byte, error) {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	return owned(d.encode(c, data))
}

// Decompress reverses Compress. The result is the caller's.
func Decompress(c Compression, data []byte) ([]byte, error) {
	in := inflaters.Get().(*inflater)
	defer in.release()
	return owned(in.decode(c, data))
}
