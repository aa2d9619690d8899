package chunk

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"

	"repro/internal/core"
)

// Sealed is one encrypted chunk as stored at the untrusted server: the
// HEAC-encrypted digest vector feeding the statistical index, and the
// AES-GCM-sealed compressed point payload (paper §4.1).
type Sealed struct {
	// Index is the chunk position within the stream (t0-relative).
	Index uint64
	// Start/End bound the chunk's time interval [Start, End) in Unix ms.
	Start, End int64
	// Digest is the HEAC ciphertext vector.
	Digest []uint64
	// Compression names the codec applied to this chunk's payload before
	// encryption. It is chosen per chunk: a zlib stream holds raw chunks
	// wherever deflate would not have shrunk them.
	Compression Compression
	// CodecBound says Compression is part of the AEAD's associated data,
	// so a store that rewrites it fails authentication. Seal sets it;
	// chunks sealed before the codec was chosen per chunk have it clear
	// and are opened under the 24-byte associated data they were sealed
	// with (see OpenInStream for what protects those).
	CodecBound bool
	// Payload is nonce || AES-GCM(compressed points). Empty for
	// digest-only chunks (e.g. after DeleteRange keeps digests, §4.6).
	Payload []byte
	// Plain marks an unencrypted chunk (the paper's insecure plaintext
	// baseline: same pipeline, digest and payload in the clear).
	Plain bool
}

// aadSize is the associated data of a codec-bound chunk: the legacy 24
// bytes and the codec.
const aadSize = 25

// appendAAD binds the chunk's identity into the AEAD so a malicious store
// cannot transplant payloads between chunks or streams, and — for chunks
// with CodecBound — cannot relabel the payload's codec either.
func appendAAD(buf []byte, s *Sealed) []byte {
	buf = binary.BigEndian.AppendUint64(buf, s.Index)
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.Start))
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.End))
	if s.CodecBound {
		buf = append(buf, byte(s.Compression))
	}
	return buf
}

// Seal encrypts a chunk: it computes the plaintext digest per spec,
// encrypts it with HEAC at the chunk's position, encodes the points under
// the codec comp allows (encodePoints), and seals them under the chunk key
// with the codec actually used bound into the associated data.
func Seal(enc *core.Encryptor, spec DigestSpec, comp Compression, index uint64, start, end int64, pts []Point) (*Sealed, error) {
	if end <= start {
		return nil, fmt.Errorf("chunk: invalid interval [%d,%d)", start, end)
	}
	points, err := encodePoints(comp, pts)
	if err != nil {
		return nil, err
	}
	defer points.release()
	digest := spec.Compute(pts, nil)
	encDigest, err := enc.EncryptDigest(index, digest, digest) // in place: the plaintext is not needed again
	if err != nil {
		return nil, fmt.Errorf("chunk: encrypting digest: %w", err)
	}
	key, err := enc.ChunkKeyAt(index)
	if err != nil {
		return nil, fmt.Errorf("chunk: deriving chunk key: %w", err)
	}
	aead, err := core.ChunkAEAD(key)
	if err != nil {
		return nil, err
	}
	s := &Sealed{
		Index:       index,
		Start:       start,
		End:         end,
		Digest:      encDigest,
		Compression: points.codec,
		CodecBound:  true,
	}
	// One allocation of the final size: the nonce is drawn straight into
	// its place and the AEAD encrypts out of the pooled buffer.
	ns := aead.NonceSize()
	payload := make([]byte, ns, ns+len(points.data)+aead.Overhead())
	if _, err := rand.Read(payload); err != nil {
		return nil, fmt.Errorf("chunk: reading nonce: %w", err)
	}
	s.Payload = aead.Seal(payload, payload[:ns], points.data, appendAAD(points.buf.aad[:0], s))
	return s, nil
}

// SealPlain builds a plaintext chunk for the insecure baseline the paper
// compares against: the digest stays in the clear (the server aggregates
// 64-bit unencrypted values) and the payload is encoded exactly as Seal
// encodes it but not encrypted. The storage and wire paths are identical
// to the secure mode.
func SealPlain(spec DigestSpec, comp Compression, index uint64, start, end int64, pts []Point) (*Sealed, error) {
	if end <= start {
		return nil, fmt.Errorf("chunk: invalid interval [%d,%d)", start, end)
	}
	points, err := encodePoints(comp, pts)
	if err != nil {
		return nil, err
	}
	defer points.release()
	return &Sealed{
		Index:       index,
		Start:       start,
		End:         end,
		Digest:      spec.Compute(pts, nil),
		Compression: points.codec,
		Payload:     append([]byte(nil), points.data...),
		Plain:       true,
	}, nil
}

// OpenPlain decodes the payload of a chunk built with SealPlain.
func OpenPlain(s *Sealed) ([]Point, error) {
	if !s.Plain {
		return nil, fmt.Errorf("chunk %d: not a plaintext chunk", s.Index)
	}
	if len(s.Payload) == 0 {
		return nil, fmt.Errorf("chunk %d: payload deleted (digest-only)", s.Index)
	}
	return decodePoints(s.Compression, s.Payload)
}

// Open decrypts a sealed chunk's point payload using a principal's key
// material. The leaf source must cover keystream positions Index and
// Index+1 (i.e. full-resolution access; resolution-restricted principals
// cannot open raw chunks). A reader that knows the stream's configured
// codec should use OpenInStream.
func Open(leaves core.LeafSource, s *Sealed) ([]Point, error) {
	if len(s.Payload) == 0 {
		return nil, fmt.Errorf("chunk %d: payload deleted (digest-only)", s.Index)
	}
	leafI, err := leaves.Leaf(s.Index)
	if err != nil {
		return nil, err
	}
	leafJ, err := leaves.Leaf(s.Index + 1)
	if err != nil {
		return nil, err
	}
	aead, err := core.ChunkAEAD(core.ChunkKey(leafI, leafJ))
	if err != nil {
		return nil, err
	}
	if len(s.Payload) < aead.NonceSize() {
		return nil, fmt.Errorf("chunk %d: payload shorter than nonce", s.Index)
	}
	nonce, box := s.Payload[:aead.NonceSize()], s.Payload[aead.NonceSize():]
	var ad [aadSize]byte
	points, err := aead.Open(nil, nonce, box, appendAAD(ad[:0], s))
	if err != nil {
		return nil, fmt.Errorf("chunk %d: authentication failed: %w", s.Index, err)
	}
	return decodePoints(s.Compression, points)
}

// OpenInStream is Open for a reader that knows the codec its stream was
// created with. Before the codec was chosen per chunk it was not
// authenticated either, and every chunk carried its stream's: a chunk
// without CodecBound that names another codec has been relabeled by the
// store (a deflate stream read as raw points can parse — 0x78 is "120
// points"), and is refused.
func OpenInStream(leaves core.LeafSource, stream Compression, s *Sealed) ([]Point, error) {
	if !s.CodecBound && s.Compression != stream {
		return nil, fmt.Errorf("chunk %d: unauthenticated codec %v in a %v stream", s.Index, s.Compression, stream)
	}
	return Open(leaves, s)
}

// Bits of MarshalSealed's flags byte. A reader from before flagCodecBound
// ignores the bit, opens the chunk under the 24-byte associated data and
// reports an authentication failure.
const (
	flagPlain      = 1 << 0
	flagCodecBound = 1 << 1
)

// MarshalSealed encodes a sealed chunk for KV storage or the wire.
func MarshalSealed(s *Sealed) []byte {
	buf := make([]byte, 0, 32+8*len(s.Digest)+len(s.Payload))
	buf = binary.AppendUvarint(buf, s.Index)
	buf = binary.AppendVarint(buf, s.Start)
	buf = binary.AppendVarint(buf, s.End)
	buf = append(buf, byte(s.Compression))
	var flags byte
	if s.Plain {
		flags |= flagPlain
	}
	if s.CodecBound {
		flags |= flagCodecBound
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(s.Digest)))
	for _, d := range s.Digest {
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], d)
		buf = append(buf, tmp[:]...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Payload)))
	buf = append(buf, s.Payload...)
	return buf
}

// UnmarshalSealed decodes a chunk encoded by MarshalSealed.
func UnmarshalSealed(data []byte) (*Sealed, error) {
	s := &Sealed{}
	idx, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("chunk: truncated index")
	}
	data = data[k:]
	s.Index = idx
	start, k := binary.Varint(data)
	if k <= 0 {
		return nil, fmt.Errorf("chunk: truncated start")
	}
	data = data[k:]
	s.Start = start
	end, k := binary.Varint(data)
	if k <= 0 {
		return nil, fmt.Errorf("chunk: truncated end")
	}
	data = data[k:]
	s.End = end
	if len(data) < 2 {
		return nil, fmt.Errorf("chunk: truncated compression/flags bytes")
	}
	s.Compression = Compression(data[0])
	s.Plain = data[1]&flagPlain != 0
	s.CodecBound = data[1]&flagCodecBound != 0
	data = data[2:]
	dn, k := binary.Uvarint(data)
	if k <= 0 || dn > 1<<24 {
		return nil, fmt.Errorf("chunk: bad digest length")
	}
	data = data[k:]
	if uint64(len(data)) < dn*8 {
		return nil, fmt.Errorf("chunk: truncated digest")
	}
	s.Digest = make([]uint64, dn)
	for i := range s.Digest {
		s.Digest[i] = binary.BigEndian.Uint64(data[i*8:])
	}
	data = data[dn*8:]
	pn, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("chunk: bad payload length")
	}
	data = data[k:]
	if uint64(len(data)) != pn {
		return nil, fmt.Errorf("chunk: payload length %d, have %d bytes", pn, len(data))
	}
	if pn > 0 {
		s.Payload = append([]byte(nil), data...)
	}
	return s, nil
}
