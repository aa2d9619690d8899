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
	// Compression names the codec applied before encryption.
	Compression Compression
	// Payload is nonce || AES-GCM(compressed points). Empty for
	// digest-only chunks (e.g. after DeleteRange keeps digests, §4.6).
	Payload []byte
	// Plain marks an unencrypted chunk (the paper's insecure plaintext
	// baseline: same pipeline, digest and payload in the clear).
	Plain bool
}

// aad binds the chunk's identity into the AEAD so a malicious store cannot
// transplant payloads between chunks or streams.
func aad(index uint64, start, end int64) (buf [24]byte) {
	binary.BigEndian.PutUint64(buf[:], index)
	binary.BigEndian.PutUint64(buf[8:], uint64(start))
	binary.BigEndian.PutUint64(buf[16:], uint64(end))
	return buf
}

// Seal encrypts a chunk: it computes the plaintext digest per spec,
// encrypts it with HEAC at the chunk's position, compresses the serialized
// points, and seals them under the chunk key.
func Seal(enc *core.Encryptor, spec DigestSpec, comp Compression, index uint64, start, end int64, pts []Point) (*Sealed, error) {
	if end <= start {
		return nil, fmt.Errorf("chunk: invalid interval [%d,%d)", start, end)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TS < pts[i-1].TS {
			return nil, fmt.Errorf("chunk: points out of order at %d", i)
		}
	}
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
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	d.raw = appendPoints(d.raw[:0], pts)
	compressed, err := d.encode(comp, d.raw)
	if err != nil {
		return nil, err
	}
	// One allocation of the final size: the nonce is drawn straight into
	// its place and the AEAD encrypts out of the deflater's buffer.
	ns := aead.NonceSize()
	payload := make([]byte, ns, ns+len(compressed)+aead.Overhead())
	if _, err := rand.Read(payload); err != nil {
		return nil, fmt.Errorf("chunk: reading nonce: %w", err)
	}
	ad := aad(index, start, end)
	payload = aead.Seal(payload, payload[:ns], compressed, ad[:])
	return &Sealed{
		Index:       index,
		Start:       start,
		End:         end,
		Digest:      encDigest,
		Compression: comp,
		Payload:     payload,
	}, nil
}

// SealPlain builds a plaintext chunk for the insecure baseline the paper
// compares against: the digest stays in the clear (the server aggregates
// 64-bit unencrypted values) and the payload is compressed but not
// encrypted. The storage and wire paths are identical to the secure mode.
func SealPlain(spec DigestSpec, comp Compression, index uint64, start, end int64, pts []Point) (*Sealed, error) {
	if end <= start {
		return nil, fmt.Errorf("chunk: invalid interval [%d,%d)", start, end)
	}
	digest := spec.Compute(pts, nil)
	compressed, err := Compress(comp, MarshalPoints(pts))
	if err != nil {
		return nil, err
	}
	return &Sealed{
		Index:       index,
		Start:       start,
		End:         end,
		Digest:      append([]uint64(nil), digest...),
		Compression: comp,
		Payload:     compressed,
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
	return unmarshalCompressed(s.Compression, s.Payload)
}

// unmarshalCompressed decodes a compressed point payload. UnmarshalPoints
// keeps no reference to its input, so the points are parsed straight out of
// the pooled inflater's buffer.
func unmarshalCompressed(c Compression, compressed []byte) ([]Point, error) {
	in := inflaters.Get().(*inflater)
	defer in.release()
	raw, err := in.decode(c, compressed)
	if err != nil {
		return nil, err
	}
	return UnmarshalPoints(raw)
}

// Open decrypts a sealed chunk's point payload using a principal's key
// material. The leaf source must cover keystream positions Index and
// Index+1 (i.e. full-resolution access; resolution-restricted principals
// cannot open raw chunks).
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
	ad := aad(s.Index, s.Start, s.End)
	compressed, err := aead.Open(nil, nonce, box, ad[:])
	if err != nil {
		return nil, fmt.Errorf("chunk %d: authentication failed: %w", s.Index, err)
	}
	return unmarshalCompressed(s.Compression, compressed)
}

// MarshalSealed encodes a sealed chunk for KV storage or the wire.
func MarshalSealed(s *Sealed) []byte {
	buf := make([]byte, 0, 32+8*len(s.Digest)+len(s.Payload))
	buf = binary.AppendUvarint(buf, s.Index)
	buf = binary.AppendVarint(buf, s.Start)
	buf = binary.AppendVarint(buf, s.End)
	buf = append(buf, byte(s.Compression))
	var flags byte
	if s.Plain {
		flags |= 1
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
	s.Plain = data[1]&1 != 0
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
