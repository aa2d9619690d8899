package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// subKeysInto is the shared SubKeys/SubKeysAt body: AES-CTR over a pooled
// key schedule (no per-call cipher allocation), folding each block into a
// uint64 with the paper's length-matching hash.
func subKeysInto(leaf Node, dst []uint64, elems []uint32) []uint64 {
	s := getSched()
	s.rekey((*[16]byte)(&leaf))
	var in, out [16]byte
	if elems == nil {
		for e := range dst {
			binary.BigEndian.PutUint64(in[8:], uint64(e))
			s.encrypt(&out, &in)
			dst[e] = binary.BigEndian.Uint64(out[:8]) ^ binary.BigEndian.Uint64(out[8:])
		}
	} else {
		for x, e := range elems {
			binary.BigEndian.PutUint64(in[8:], uint64(e))
			s.encrypt(&out, &in)
			dst[x] = binary.BigEndian.Uint64(out[:8]) ^ binary.BigEndian.Uint64(out[8:])
		}
	}
	putSched(s)
	return dst
}

// LeafSource derives keystream leaves. Both the owner's Tree/Walker and a
// principal's KeySet/Walker satisfy it.
type LeafSource interface {
	Leaf(i uint64) (Node, error)
}

// SubKeys expands a keystream leaf into n per-element subkeys, one for each
// slot of a digest vector. The expansion is AES-128 in counter mode keyed by
// the leaf, with the paper's length-matching hash (§A.1.5) folding each
// 16-byte block into a uint64 by XORing its two halves.
//
// dst is overwritten and returned; pass a slice of length n to avoid
// allocation. With a caller-provided dst the derivation performs zero heap
// allocations.
func SubKeys(leaf Node, dst []uint64) []uint64 {
	return subKeysInto(leaf, dst, nil)
}

// SubKeysAt expands a keystream leaf into subkeys at the given digest
// element indices: the projected counterpart of SubKeys, for decrypting
// aggregates whose vectors the server projected down to selected elements.
// dst[x] receives the subkey for element elems[x]; pass a slice of length
// len(elems) to avoid allocation.
func SubKeysAt(leaf Node, elems []uint32, dst []uint64) []uint64 {
	if dst == nil {
		dst = make([]uint64, len(elems))
	}
	return subKeysInto(leaf, dst, elems)
}

// EncryptVec encrypts the digest vector m for chunk i under HEAC with key
// canceling (paper §4.2.2): element e becomes
//
//	c[e] = m[e] + sub(leaf_i, e) − sub(leaf_{i+1}, e)  (mod 2^64).
//
// leafI and leafJ must be the keystream leaves for positions i and i+1.
// The result is written into dst (allocated if nil) and returned.
func EncryptVec(leafI, leafJ Node, m, dst []uint64) []uint64 {
	if dst == nil {
		dst = make([]uint64, len(m))
	}
	ki := make([]uint64, len(m))
	kj := make([]uint64, len(m))
	SubKeys(leafI, ki)
	SubKeys(leafJ, kj)
	for e := range m {
		dst[e] = m[e] + ki[e] - kj[e]
	}
	return dst
}

// DecryptVec decrypts an in-range aggregated ciphertext vector covering
// chunk positions [i, j). Because inner keys telescope, only the outer
// leaves for positions i and j are required (paper eq. 4):
//
//	m[e] = c[e] − sub(leaf_i, e) + sub(leaf_j, e)  (mod 2^64).
//
// For a single chunk, j = i+1. The result is written into dst (allocated if
// nil) and returned.
func DecryptVec(leafI, leafJ Node, c, dst []uint64) []uint64 {
	if dst == nil {
		dst = make([]uint64, len(c))
	}
	ki := make([]uint64, len(c))
	kj := make([]uint64, len(c))
	SubKeys(leafI, ki)
	SubKeys(leafJ, kj)
	for e := range c {
		dst[e] = c[e] - ki[e] + kj[e]
	}
	return dst
}

// AddVec homomorphically aggregates src into dst (element-wise modular
// addition over 2^64). Vectors must have equal length.
func AddVec(dst, src []uint64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("core: AddVec length mismatch %d != %d", len(dst), len(src)))
	}
	for e := range src {
		dst[e] += src[e]
	}
}

// ChunkKeySize is the AES key length used for raw chunk payload encryption
// (AES-GCM-128, paper §4.1).
const ChunkKeySize = 16

// ChunkKey derives the AES-GCM key protecting chunk i's raw payload from
// the two adjacent keystream leaves: H(leaf_i || leaf_{i+1}) truncated to
// 128 bits (paper §4.3). A principal holding the full-resolution keystream
// segment can open chunks; resolution-restricted principals (who only hold
// sparse outer leaves) cannot.
func ChunkKey(leafI, leafJ Node) [ChunkKeySize]byte {
	// sha256.Sum256 over a stack concatenation; sha256.New + Sum(nil)
	// would heap-allocate the hash state and digest per chunk.
	var buf [32]byte
	copy(buf[:16], leafI[:])
	copy(buf[16:], leafJ[:])
	sum := sha256.Sum256(buf[:])
	var key [ChunkKeySize]byte
	copy(key[:], sum[:ChunkKeySize])
	return key
}

// ChunkAEAD returns the AES-GCM AEAD for a chunk key.
func ChunkAEAD(key [ChunkKeySize]byte) (cipher.AEAD, error) {
	b, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(b)
}

// Encryptor encrypts consecutive chunk digests for one stream. It holds a
// sequential Walker so that ingesting chunk i+1 after chunk i costs O(1)
// amortized PRG expansions, and caches the leaf pair and subkey vectors of
// the current position: advancing from chunk i to i+1 promotes leaf_{i+1}
// and its already-derived subkeys from the right slot to the left, so
// sequential sealing performs one subkey expansion per chunk instead of two
// — the same telescoping the HEAC construction exploits for decryption.
// EncryptDigest and ChunkKeyAt at the same position share the cached pair,
// so a full Seal derives each leaf exactly once.
//
// The decrypt path telescopes the same way: the right edge of the last
// decrypted window is kept, so a page of contiguous windows [i, j), [j, k),
// … derives each edge once.
//
// Not safe for concurrent use; create one per producer goroutine.
type Encryptor struct {
	walker       *Walker
	cur          uint64 // position whose leaf pair is cached
	leafI, leafJ Node   // leaves cur and cur+1
	haveCur      bool
	kiBuf, kjBuf []uint64 // cached subkeys of leafI/leafJ
	kiN, kjN     int      // valid lengths (-1 = not derived)

	// Decrypt path: ki is scratch for a window's left edge; edge is its
	// right edge, kept for the next window.
	ki   []uint64
	edge decryptEdge

	// What the decrypt path has derived, for tests that count instead of
	// timing.
	leafDerivations, subKeyExpansions uint64
}

// decryptEdge is the right edge of the last decrypted window: its leaf and
// the subkeys expanded from it, which are the left edge of a window that
// starts where that one ended.
type decryptEdge struct {
	ok    bool
	pos   uint64
	leaf  Node
	keys  []uint64 // subkeys of leaf: all of the first len(keys) if !proj, else at elems
	proj  bool
	elems []uint32 // own copy of the projection keys was derived at
}

// matches reports whether the edge's subkeys are the ones a window of n
// elements under projection elems (nil: none) needs.
func (d *decryptEdge) matches(n int, elems []uint32) bool {
	if len(d.keys) != n || d.proj != (elems != nil) {
		return false
	}
	for x, e := range elems {
		if d.elems[x] != e {
			return false
		}
	}
	return true
}

// NewEncryptor returns an Encryptor drawing leaves from the walker
// (obtained via Tree.NewWalker or KeySet.NewWalker).
func NewEncryptor(w *Walker) *Encryptor {
	return &Encryptor{walker: w, kiN: -1, kjN: -1}
}

// seek positions the leaf-pair cache at i, reusing the right slot as the
// new left slot when advancing one chunk (the sequential ingest pattern).
func (e *Encryptor) seek(i uint64) error {
	if e.haveCur && e.cur == i {
		return nil
	}
	if e.haveCur && e.cur+1 == i {
		e.leafI = e.leafJ
		e.kiBuf, e.kjBuf = e.kjBuf, e.kiBuf
		e.kiN, e.kjN = e.kjN, -1
	} else {
		l, err := e.walker.Leaf(i)
		if err != nil {
			return err
		}
		e.leafI = l
		e.kiN, e.kjN = -1, -1
	}
	r, err := e.walker.Leaf(i + 1)
	if err != nil {
		e.haveCur = false // leafI state is torn; recompute on next call
		return err
	}
	e.leafJ, e.cur, e.haveCur = r, i, true
	return nil
}

// subkeys returns the cached n-length subkey vectors of the current leaf
// pair, deriving whichever slot is missing or was cached at another length.
func (e *Encryptor) subkeys(n int) ([]uint64, []uint64) {
	if cap(e.kiBuf) < n {
		e.kiBuf = make([]uint64, n)
		e.kiN = -1
	}
	if cap(e.kjBuf) < n {
		e.kjBuf = make([]uint64, n)
		e.kjN = -1
	}
	if e.kiN != n {
		SubKeys(e.leafI, e.kiBuf[:n])
		e.kiN = n
	}
	if e.kjN != n {
		SubKeys(e.leafJ, e.kjBuf[:n])
		e.kjN = n
	}
	return e.kiBuf[:n], e.kjBuf[:n]
}

// EncryptDigest encrypts chunk i's digest vector in place semantics: the
// ciphertext is written to dst (allocated if nil) and returned.
func (e *Encryptor) EncryptDigest(i uint64, m, dst []uint64) ([]uint64, error) {
	if err := e.seek(i); err != nil {
		return nil, err
	}
	if dst == nil {
		dst = make([]uint64, len(m))
	}
	ki, kj := e.subkeys(len(m))
	for x := range m {
		dst[x] = m[x] + ki[x] - kj[x]
	}
	return dst, nil
}

// DecryptRange decrypts an aggregate ciphertext covering chunk positions
// [i, j). It requires the walker's key material to cover leaves i and j.
// The plaintext is written to dst (allocated if nil; c itself decrypts in
// place) and returned.
func (e *Encryptor) DecryptRange(i, j uint64, c, dst []uint64) ([]uint64, error) {
	return e.decryptRange(i, j, nil, c, dst)
}

// DecryptRangeElems decrypts a projected aggregate ciphertext covering
// chunk positions [i, j): c[x] is the ciphertext of digest element
// elems[x] of the full vector, so the canceling subkeys are derived at
// those original indices (the projection must not shift key positions, or
// every element would decrypt under the wrong pad).
func (e *Encryptor) DecryptRangeElems(i, j uint64, elems []uint32, c, dst []uint64) ([]uint64, error) {
	if len(elems) != len(c) {
		return nil, fmt.Errorf("core: %d projected elements but %d ciphertext values", len(elems), len(c))
	}
	return e.decryptRange(i, j, elems, c, dst)
}

// decryptRange is the shared body; elems nil means the full vector. The
// window's right edge replaces e.edge, and its left edge is taken from
// there when the previous window ended at i.
func (e *Encryptor) decryptRange(i, j uint64, elems []uint32, c, dst []uint64) ([]uint64, error) {
	if j <= i {
		return nil, fmt.Errorf("core: invalid decrypt range [%d,%d)", i, j)
	}
	n := len(c)
	edge := &e.edge
	leafI, reuse := edge.leaf, edge.ok && edge.pos == i
	if !reuse {
		var err error
		if leafI, err = e.walker.Leaf(i); err != nil {
			return nil, err
		}
		e.leafDerivations++
	}
	leafJ, err := e.walker.Leaf(j)
	if err != nil {
		return nil, err
	}
	e.leafDerivations++
	if reuse && edge.matches(n, elems) {
		e.ki, edge.keys = edge.keys, e.ki
	} else {
		if cap(e.ki) < n {
			e.ki = make([]uint64, n)
		}
		e.ki = subKeysInto(leafI, e.ki[:n], elems)
		e.subKeyExpansions++
	}
	if cap(edge.keys) < n {
		edge.keys = make([]uint64, n)
	}
	edge.keys = subKeysInto(leafJ, edge.keys[:n], elems)
	e.subKeyExpansions++
	edge.ok, edge.pos, edge.leaf = true, j, leafJ
	edge.proj, edge.elems = elems != nil, append(edge.elems[:0], elems...)
	if dst == nil {
		dst = make([]uint64, n)
	}
	ki, kj := e.ki, edge.keys
	for x := range c {
		dst[x] = c[x] - ki[x] + kj[x]
	}
	return dst, nil
}

// ChunkKeyAt derives the raw-payload AES key for chunk i.
func (e *Encryptor) ChunkKeyAt(i uint64) ([ChunkKeySize]byte, error) {
	if err := e.seek(i); err != nil {
		return [ChunkKeySize]byte{}, err
	}
	return ChunkKey(e.leafI, e.leafJ), nil
}
