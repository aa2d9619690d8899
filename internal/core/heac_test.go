package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestSubKeysDeterministicAndDistinct(t *testing.T) {
	leaf := Node{1, 2, 3}
	a := SubKeys(leaf, make([]uint64, 8))
	b := SubKeys(leaf, make([]uint64, 8))
	for e := range a {
		if a[e] != b[e] {
			t.Fatal("SubKeys not deterministic")
		}
	}
	seen := make(map[uint64]bool)
	for _, k := range a {
		if seen[k] {
			t.Fatal("subkey collision within one leaf")
		}
		seen[k] = true
	}
	other := SubKeys(Node{4, 5, 6}, make([]uint64, 8))
	same := 0
	for e := range a {
		if a[e] == other[e] {
			same++
		}
	}
	if same == len(a) {
		t.Error("subkeys identical across different leaves")
	}
}

func TestEncryptDecryptSingleChunk(t *testing.T) {
	tree := testTree(t, 10)
	l0, _ := tree.Leaf(0)
	l1, _ := tree.Leaf(1)
	m := []uint64{42, 7, 1 << 63, 0}
	c := EncryptVec(l0, l1, m, nil)
	for e := range m {
		if c[e] == m[e] {
			t.Errorf("ciphertext element %d equals plaintext", e)
		}
	}
	got := DecryptVec(l0, l1, c, nil)
	for e := range m {
		if got[e] != m[e] {
			t.Fatalf("element %d: got %d want %d", e, got[e], m[e])
		}
	}
}

// The heart of HEAC: aggregating any contiguous run of ciphertexts is
// decryptable with only the two outer leaves (key canceling, §4.2.2).
func TestKeyCancelingRangeAggregation(t *testing.T) {
	tree := testTree(t, 12)
	w := tree.NewWalker()
	enc := NewEncryptor(w)
	const n = 200
	const vec = 3
	plain := make([][]uint64, n)
	cipher := make([][]uint64, n)
	for i := 0; i < n; i++ {
		plain[i] = []uint64{rand.Uint64(), uint64(i), uint64(i * i)}
		c, err := enc.EncryptDigest(uint64(i), plain[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		cipher[i] = append([]uint64(nil), c...)
	}
	dec := NewEncryptor(tree.NewWalker())
	for trial := 0; trial < 100; trial++ {
		a := rand.IntN(n)
		b := a + 1 + rand.IntN(n-a)
		agg := make([]uint64, vec)
		for i := a; i < b; i++ {
			AddVec(agg, cipher[i])
		}
		got, err := dec.DecryptRange(uint64(a), uint64(b), agg, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, vec)
		for i := a; i < b; i++ {
			for e := 0; e < vec; e++ {
				want[e] += plain[i][e]
			}
		}
		for e := 0; e < vec; e++ {
			if got[e] != want[e] {
				t.Fatalf("range [%d,%d) element %d: got %d want %d", a, b, e, got[e], want[e])
			}
		}
	}
}

func TestDecryptWithWrongLeavesFails(t *testing.T) {
	tree := testTree(t, 10)
	l0, _ := tree.Leaf(0)
	l1, _ := tree.Leaf(1)
	l2, _ := tree.Leaf(2)
	m := []uint64{12345}
	c := EncryptVec(l0, l1, m, nil)
	if got := DecryptVec(l0, l2, c, nil); got[0] == m[0] {
		t.Error("decryption with wrong right leaf should not yield plaintext")
	}
	if got := DecryptVec(l1, l2, c, nil); got[0] == m[0] {
		t.Error("decryption with wrong leaves should not yield plaintext")
	}
}

func TestDecryptRangeValidation(t *testing.T) {
	tree := testTree(t, 10)
	dec := NewEncryptor(tree.NewWalker())
	if _, err := dec.DecryptRange(5, 5, []uint64{1}, nil); err == nil {
		t.Error("expected error for empty range")
	}
	if _, err := dec.DecryptRange(6, 5, []uint64{1}, nil); err == nil {
		t.Error("expected error for reversed range")
	}
}

func TestAddSubVec(t *testing.T) {
	a := []uint64{1, 2, ^uint64(0)}
	b := []uint64{10, 20, 1}
	AddVec(a, b)
	if a[0] != 11 || a[1] != 22 || a[2] != 0 {
		t.Errorf("AddVec wrong: %v", a)
	}
	// Subtracting is adding the negation mod 2^64.
	neg := make([]uint64, len(b))
	for i, v := range b {
		neg[i] = -v
	}
	AddVec(a, neg)
	if a[0] != 1 || a[1] != 2 || a[2] != ^uint64(0) {
		t.Errorf("AddVec of the negation wrong: %v", a)
	}
}

func TestAddVecLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	AddVec([]uint64{1}, []uint64{1, 2})
}

func TestChunkKeyDistinctPerPosition(t *testing.T) {
	tree := testTree(t, 10)
	enc := NewEncryptor(tree.NewWalker())
	k0, err := enc.ChunkKeyAt(0)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := enc.ChunkKeyAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if k0 == k1 {
		t.Error("chunk keys for adjacent chunks collide")
	}
	// Deterministic recomputation.
	enc2 := NewEncryptor(tree.NewWalker())
	k0b, _ := enc2.ChunkKeyAt(0)
	if k0 != k0b {
		t.Error("chunk key not deterministic")
	}
}

func TestChunkAEADRoundTrip(t *testing.T) {
	tree := testTree(t, 10)
	enc := NewEncryptor(tree.NewWalker())
	key, _ := enc.ChunkKeyAt(7)
	aead, err := ChunkAEAD(key)
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, aead.NonceSize())
	ct := aead.Seal(nil, nonce, []byte("chunk payload"), nil)
	pt, err := aead.Open(nil, nonce, ct, nil)
	if err != nil || string(pt) != "chunk payload" {
		t.Fatalf("AEAD round trip failed: %v", err)
	}
	ct[0] ^= 1
	if _, err := aead.Open(nil, nonce, ct, nil); err == nil {
		t.Error("tampered ciphertext accepted")
	}
}

// Property: ciphertext addition is homomorphic for any pair of adjacent
// chunks and any plaintexts (mod 2^64 wraparound included).
func TestHomomorphismProperty(t *testing.T) {
	tree := testTree(t, 10)
	l0, _ := tree.Leaf(0)
	l1, _ := tree.Leaf(1)
	l2, _ := tree.Leaf(2)
	f := func(m1, m2 uint64) bool {
		c1 := EncryptVec(l0, l1, []uint64{m1}, nil)
		c2 := EncryptVec(l1, l2, []uint64{m2}, nil)
		AddVec(c1, c2)
		got := DecryptVec(l0, l2, c1, nil)
		return got[0] == m1+m2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A principal with a restricted key set can decrypt aggregates within its
// range but not beyond it — end-to-end access control at the HEAC layer.
func TestPrincipalRangeRestriction(t *testing.T) {
	tree := testTree(t, 10)
	owner := NewEncryptor(tree.NewWalker())
	const n = 64
	cipher := make([][]uint64, n)
	var total uint64
	for i := 0; i < n; i++ {
		m := []uint64{uint64(i + 1)}
		total += uint64(i + 1)
		c, err := owner.EncryptDigest(uint64(i), m, nil)
		if err != nil {
			t.Fatal(err)
		}
		cipher[i] = append([]uint64(nil), c...)
	}
	// Grant leaves [16, 32]: decryptable aggregates are [i, j) with
	// 16 <= i < j <= 32.
	tokens, _ := tree.Cover(16, 32)
	ks, err := NewKeySet(NewPRG(PRGAES), 10, tokens)
	if err != nil {
		t.Fatal(err)
	}
	principal := NewEncryptor(ks.NewWalker())
	agg := make([]uint64, 1)
	for i := 16; i < 32; i++ {
		AddVec(agg, cipher[i])
	}
	got, err := principal.DecryptRange(16, 32, agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i := 16; i < 32; i++ {
		want += uint64(i + 1)
	}
	if got[0] != want {
		t.Fatalf("got %d want %d", got[0], want)
	}
	// Out-of-range aggregate must be rejected (missing leaf 33).
	aggAll := make([]uint64, 1)
	for i := 0; i < n; i++ {
		AddVec(aggAll, cipher[i])
	}
	if _, err := principal.DecryptRange(0, uint64(n), aggAll, nil); err == nil {
		t.Error("principal decrypted beyond its grant")
	}
}

// TestSubKeysAtMatchesSubKeys proves the projected expansion derives the
// same per-element pads as the dense one.
func TestSubKeysAtMatchesSubKeys(t *testing.T) {
	var leaf Node
	for i := range leaf {
		leaf[i] = byte(i * 7)
	}
	dense := SubKeys(leaf, make([]uint64, 19))
	elems := []uint32{0, 2, 7, 18}
	proj := SubKeysAt(leaf, elems, nil)
	for x, e := range elems {
		if proj[x] != dense[e] {
			t.Errorf("SubKeysAt[%d] (elem %d) = %d, want %d", x, e, proj[x], dense[e])
		}
	}
}

// TestDecryptRangeElems encrypts a run of digest vectors, homomorphically
// sums them, projects the aggregate, and checks the projected decryption
// recovers exactly the selected plaintext elements.
func TestDecryptRangeElems(t *testing.T) {
	tree, err := GenerateTree(NewPRG(PRGAES), 12)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncryptor(tree.NewWalker())
	const vlen = 8
	want := make([]uint64, vlen)
	var agg []uint64
	for i := uint64(0); i < 5; i++ {
		m := make([]uint64, vlen)
		for e := range m {
			m[e] = i*100 + uint64(e)
			want[e] += m[e]
		}
		c, err := enc.EncryptDigest(i, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if agg == nil {
			agg = append([]uint64(nil), c...)
		} else {
			AddVec(agg, c)
		}
	}
	elems := []uint32{1, 3, 6}
	proj := make([]uint64, len(elems))
	for x, e := range elems {
		proj[x] = agg[e]
	}
	dec := NewEncryptor(tree.NewWalker())
	got, err := dec.DecryptRangeElems(0, 5, elems, proj, nil)
	if err != nil {
		t.Fatal(err)
	}
	for x, e := range elems {
		if got[x] != want[e] {
			t.Errorf("element %d = %d, want %d", e, got[x], want[e])
		}
	}
	// Shape errors fail loudly.
	if _, err := dec.DecryptRangeElems(3, 3, elems, proj, nil); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := dec.DecryptRangeElems(0, 5, elems, proj[:2], nil); err == nil {
		t.Error("length mismatch accepted")
	}
}
