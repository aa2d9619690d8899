package core

import (
	"crypto/sha256"
	"fmt"
)

// Node is a 16-byte (128-bit) pseudorandom string labelling one node of the
// key-derivation tree. Leaf nodes are the keystream; inner nodes are access
// tokens.
type Node [16]byte

// PRG is a length-doubling pseudorandom generator G(x) = G0(x) || G1(x)
// used to expand a tree node into its two children (paper §4.2.3).
//
// Implementations must be deterministic and safe for concurrent use.
type PRG interface {
	// Expand computes the left child G0(x) and right child G1(x) of x.
	Expand(x Node) (left, right Node)
	// Name identifies the construction (used in benchmark output).
	Name() string
}

// PRGKind selects one of the built-in PRG constructions.
type PRGKind int

const (
	// PRGAES expands nodes with AES-128: G0(x) = AES_x(0^16),
	// G1(x) = AES_x(0^15 || 1) — the paper's "AES-NI" variant and the
	// default. The expansion runs on a pooled in-package key schedule
	// rather than crypto/aes: every GGM step keys AES with a fresh node,
	// and aes.NewCipher heap-allocates ~0.5 KB per key, which made the
	// PRG the dominant garbage producer on the ingest path. AES stays the
	// default even though BenchmarkHotPath/prg-* measures the pure-Go
	// schedule within ~15% of the sha256 variant (≈0.31 µs vs ≈0.27 µs
	// per expansion, both 0 allocs; hmac is ~3x slower at ≈0.88 µs): the
	// PRG kind is baked into every stream's key material, so the default
	// tracks the paper's construction and keeps all derived keystreams
	// stable, and AES also feeds SubKeys where one key expansion
	// amortizes over a whole digest vector of block encryptions.
	PRGAES PRGKind = iota
	// PRGSHA256 expands nodes with a hash: G_b(x) = SHA-256(b || x)[:16].
	PRGSHA256
	// PRGHMAC expands nodes with HMAC: G_b(x) = HMAC-SHA-256(x, b)[:16].
	PRGHMAC
)

// NewPRG returns the built-in PRG for kind. It panics on an unknown kind;
// use one of the PRGKind constants.
func NewPRG(kind PRGKind) PRG {
	switch kind {
	case PRGAES:
		return aesPRG{}
	case PRGSHA256:
		return shaPRG{}
	case PRGHMAC:
		return hmacPRG{}
	default:
		panic(fmt.Sprintf("core: unknown PRGKind %d", int(kind)))
	}
}

// String returns the canonical name of the PRG kind.
func (k PRGKind) String() string {
	switch k {
	case PRGAES:
		return "aes"
	case PRGSHA256:
		return "sha256"
	case PRGHMAC:
		return "hmac"
	default:
		return fmt.Sprintf("PRGKind(%d)", int(k))
	}
}

type aesPRG struct{}

func (aesPRG) Name() string { return "aes" }

// prgZero and prgOne are the two fixed child-selector plaintexts. They are
// package-level so Expand never writes them — shared read-only state.
var (
	prgZero = [16]byte{}
	prgOne  = [16]byte{15: 1}
)

func (aesPRG) Expand(x Node) (left, right Node) {
	s := getSched()
	s.rekey((*[16]byte)(&x))
	s.encrypt((*[16]byte)(&left), &prgZero)
	s.encrypt((*[16]byte)(&right), &prgOne)
	putSched(s)
	return left, right
}

type shaPRG struct{}

func (shaPRG) Name() string { return "sha256" }

func (shaPRG) Expand(x Node) (left, right Node) {
	var buf [17]byte
	copy(buf[1:], x[:])
	buf[0] = 0
	l := sha256.Sum256(buf[:])
	buf[0] = 1
	r := sha256.Sum256(buf[:])
	copy(left[:], l[:16])
	copy(right[:], r[:16])
	return left, right
}

type hmacPRG struct{}

func (hmacPRG) Name() string { return "hmac" }

func (hmacPRG) Expand(x Node) (left, right Node) {
	// HMAC-SHA-256(x, b) spelled out over stack buffers instead of
	// hmac.New + mac.Sum(nil), which heap-allocate two hash states and a
	// sum slice per expansion. The 16-byte key is shorter than the 64-byte
	// SHA-256 block, so K' is the zero-padded key; TestHotPathGoldenParity
	// pins the output against golden vectors captured from the crypto/hmac
	// construction.
	var ipad, opad [64]byte
	for i := range ipad {
		ipad[i] = 0x36
		opad[i] = 0x5C
	}
	for i, b := range x {
		ipad[i] ^= b
		opad[i] ^= b
	}
	var inner [65]byte // (K' ⊕ ipad) || selector byte
	copy(inner[:64], ipad[:])
	var outer [96]byte // (K' ⊕ opad) || inner hash
	copy(outer[:64], opad[:])

	inner[64] = 0
	ih := sha256.Sum256(inner[:])
	copy(outer[64:], ih[:])
	oh := sha256.Sum256(outer[:])
	copy(left[:], oh[:16])

	inner[64] = 1
	ih = sha256.Sum256(inner[:])
	copy(outer[64:], ih[:])
	oh = sha256.Sum256(outer[:])
	copy(right[:], oh[:16])
	return left, right
}
