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
// codec being whatever compresses that data best (§4.1 footnote 2); the
// varint delta encoding in MarshalPoints already acts as a domain-specific
// pre-pass. As a stream's setting it names the codec its chunks may use —
// Seal records per chunk the one it did use (see encodePoints); as a
// Sealed's field, and for Compress, it names exactly one codec.
type Compression uint8

const (
	// CompressionZlib applies RFC 1950 deflate. It is the zero value so
	// that it is the default, matching the paper ("with zlib as
	// default", §4.1). A stream set to zlib deflates the chunks that
	// shrink and stores the others as-is.
	CompressionZlib Compression = iota
	// CompressionNone stores the serialized points as-is, always.
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

// maxDecompressed bounds decompression output to defend against
// decompression bombs from a malicious store.
const maxDecompressed = 64 << 20

// deflater is a reusable zlib compressor with the buffer it writes into. A
// deflate state is ~800 KB (window plus hash chains), which is what a
// zlib.NewWriter per chunk used to allocate; a Reset writer produces the
// same bytes as a fresh one. The states live in one process-wide pool and
// not one per stream or Writer: a process with a hundred open streams seals
// on a handful of goroutines at a time, and the pool empties itself across
// garbage collections once sealing stops.
type deflater struct {
	zw  *zlib.Writer
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

// deflateGate is the serialized size below which a payload is stored as-is
// without being offered to deflate. Taking a deflate state out of the pool
// and resetting it clears ~640 KB of hash tables (~18 µs, against ~5 µs for
// the rest of a seal), so for payloads that cannot win "deflate and keep the
// smaller" is not good enough: they must not touch a deflater at all.
//
// Measured over 200 chunks at each of 6…128 points per chunk, for the
// DevOps and mHealth generators, a constant-value and a random-walk stream:
// the smallest payload zlib shrank was 27 bytes (constant values, by 1
// byte; 31 bytes by 5), then mHealth's from 36 bytes, DevOps' from 48 and
// the random walk's from 107. DevOps' 6-point chunks serialize to 20–26
// bytes and deflate to 34. zlib cannot emit fewer than 9 bytes for a
// non-empty input (2 header, ≥ 3 deflate, 4 Adler-32), so the gate can
// forfeit at most deflateGate − 9 = 23 bytes — 5 measured — on a chunk
// whose fixed overhead (152 B digest, 12 B nonce, 16 B tag, header) is
// ≥ 190 B. It is not a knob and nothing sets it.
const deflateGate = 32

// pointBuf is the pooled buffer a chunk's points are serialized into, with
// room for the AEAD's associated data so that neither is allocated per
// seal. It is pooled apart from the deflate states: most small payloads
// need only this.
type pointBuf struct {
	b   []byte
	aad [aadSize]byte
}

var pointBufs = sync.Pool{New: func() any { return new(pointBuf) }}

// encodedPoints is a chunk's point payload under the codec chosen for it.
// data lives in pooled memory (buf's, or d's when deflate won) and is
// valid until release.
type encodedPoints struct {
	data  []byte
	codec Compression
	buf   *pointBuf
	d     *deflater // nil unless data is d's output
}

func (e *encodedPoints) release() {
	pointBufs.Put(e.buf)
	if e.d != nil {
		deflaters.Put(e.d)
	}
}

// encodePoints is the one place a chunk's payload is built, for encrypted
// and plaintext chunks alike: it checks that the points are in time order,
// serializes them, and chooses the codec per chunk. Under CompressionNone,
// and below deflateGate, the serialized points are the payload; otherwise
// they are deflated and whichever form is smaller is kept (raw on a tie:
// it is cheaper to open). The caller must release the result.
func encodePoints(comp Compression, pts []Point) (encodedPoints, error) {
	if comp != CompressionZlib && comp != CompressionNone {
		return encodedPoints{}, fmt.Errorf("chunk: unknown compression %d", comp)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TS < pts[i-1].TS {
			return encodedPoints{}, fmt.Errorf("chunk: points out of order at %d", i)
		}
	}
	buf := pointBufs.Get().(*pointBuf)
	buf.b = appendPoints(buf.b[:0], pts)
	e := encodedPoints{data: buf.b, codec: CompressionNone, buf: buf}
	if comp == CompressionNone || len(buf.b) < deflateGate {
		return e, nil
	}
	d := deflaters.Get().(*deflater)
	deflated, err := d.encode(CompressionZlib, buf.b)
	if err != nil {
		deflaters.Put(d)
		e.release()
		return encodedPoints{}, err
	}
	if len(deflated) < len(buf.b) {
		e.data, e.codec, e.d = deflated, CompressionZlib, d
	} else {
		deflaters.Put(d)
	}
	return e, nil
}

// decodePoints parses a point payload stored under codec c. A raw payload
// takes no inflater from the pool; a deflated one is parsed straight out of
// the pooled inflater's buffer (UnmarshalPoints keeps no reference to its
// input).
func decodePoints(c Compression, payload []byte) ([]Point, error) {
	if c == CompressionNone {
		return UnmarshalPoints(payload)
	}
	in := inflaters.Get().(*inflater)
	defer in.release()
	raw, err := in.decode(c, payload)
	if err != nil {
		return nil, err
	}
	return UnmarshalPoints(raw)
}
