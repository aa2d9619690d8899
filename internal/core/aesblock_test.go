package core

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// TestAESBlockFIPSVector checks the FIPS-197 Appendix B example.
func TestAESBlockFIPSVector(t *testing.T) {
	key, _ := hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
	pt, _ := hex.DecodeString("3243f6a8885a308d313198a2e0370734")
	want, _ := hex.DecodeString("3925841d02dc09fbdc118597196a0b32")

	var s aesSched
	var k, in [16]byte
	copy(k[:], key)
	copy(in[:], pt)
	s.rekey(&k)
	var out [16]byte
	s.encrypt(&out, &in)
	if !bytes.Equal(out[:], want) {
		t.Fatalf("FIPS-197 vector mismatch:\n got %x\nwant %x", out, want)
	}
}

// TestAESBlockMatchesStdlib proves the in-package schedule encrypts
// identically to crypto/aes for random keys and blocks, including rekeying
// the same schedule object (the pooled usage pattern).
func TestAESBlockMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s aesSched
	for i := 0; i < 2000; i++ {
		var key, in [16]byte
		rng.Read(key[:])
		rng.Read(in[:])

		s.rekey(&key)
		var got [16]byte
		s.encrypt(&got, &in)

		std, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var want [16]byte
		std.Encrypt(want[:], in[:])
		if got != want {
			t.Fatalf("iteration %d: key %x block %x:\n got %x\nwant %x", i, key, in, got, want)
		}
	}
}

// TestAESBlockInPlace verifies dst may alias src (the PRG expands a node
// into itself when walking down the tree).
func TestAESBlockInPlace(t *testing.T) {
	var s aesSched
	key := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	s.rekey(&key)
	in := [16]byte{0xAA, 0xBB}
	var want [16]byte
	s.encrypt(&want, &in)
	got := in
	s.encrypt(&got, &got)
	if got != want {
		t.Fatalf("in-place encrypt diverged: got %x want %x", got, want)
	}
}

// TestAESSchedZeroAlloc pins the whole rekey+encrypt cycle — including the
// pool round-trip — at zero heap allocations.
func TestAESSchedZeroAlloc(t *testing.T) {
	key := [16]byte{0x5A}
	var in, out [16]byte
	allocs := testing.AllocsPerRun(1000, func() {
		s := getSched()
		s.rekey(&key)
		s.encrypt(&out, &in)
		putSched(s)
	})
	if allocs != 0 {
		t.Fatalf("pooled rekey+encrypt allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkAESSchedExpand(b *testing.B) {
	// One PRG step: rekey + two block encryptions (pooled schedule).
	key := [16]byte{0x5A}
	var l, r [16]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := getSched()
		s.rekey(&key)
		s.encrypt(&l, &l)
		s.encrypt(&r, &r)
		putSched(s)
	}
}

func BenchmarkAESStdlibExpand(b *testing.B) {
	// The seed path: aes.NewCipher + two block encryptions per step.
	key := [16]byte{0x5A}
	var l, r [16]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk, _ := aes.NewCipher(key[:])
		blk.Encrypt(l[:], l[:])
		blk.Encrypt(r[:], r[:])
	}
}

// The same trade over a whole digest vector, where one key expansion is
// amortised over 19 block encryptions (ROADMAP 4(e), settled in
// docs/PERFORMANCE.md): the pooled pure-Go schedule against stdlib AES.

func BenchmarkSubKeysSched(b *testing.B) {
	leaf := Node{0x5A}
	dst := make([]uint64, 19)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		leaf[1] = byte(i)
		SubKeys(leaf, dst)
	}
}

func BenchmarkSubKeysStdlib(b *testing.B) {
	leaf := Node{0x5A}
	dst := make([]uint64, 19)
	var in, out [16]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		leaf[1] = byte(i)
		blk, _ := aes.NewCipher(leaf[:])
		for e := range dst {
			binary.BigEndian.PutUint64(in[8:], uint64(e))
			blk.Encrypt(out[:], in[:])
			dst[e] = binary.BigEndian.Uint64(out[:8]) ^ binary.BigEndian.Uint64(out[8:])
		}
	}
}
