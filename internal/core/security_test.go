package core

import (
	"math"
	"math/bits"
	"testing"
)

// Statistical sanity checks on the constructions' outputs. These are not
// proofs (see §A.1 of the paper for those); they catch implementation
// mistakes that would break the pseudorandomness assumptions the proofs
// rest on — biased bits, reused keys, structure leaking through ciphertexts.

// bitBalance returns the fraction of set bits across the samples.
func bitBalance(samples []uint64) float64 {
	ones := 0
	for _, s := range samples {
		ones += bits.OnesCount64(s)
	}
	return float64(ones) / float64(64*len(samples))
}

func TestKeystreamBitBalance(t *testing.T) {
	tree := testTree(t, 16)
	const n = 4096
	samples := make([]uint64, n)
	buf := make([]uint64, 1)
	for i := uint64(0); i < n; i++ {
		leaf, err := tree.Leaf(i)
		if err != nil {
			t.Fatal(err)
		}
		SubKeys(leaf, buf)
		samples[i] = buf[0]
	}
	// For 4096·64 fair coin flips, the balance should be within ~4σ of
	// 0.5 (σ = 0.5/√(n·64) ≈ 0.001).
	if b := bitBalance(samples); math.Abs(b-0.5) > 0.004 {
		t.Errorf("keystream bit balance %.4f, want ~0.5", b)
	}
}

func TestKeystreamSerialCorrelation(t *testing.T) {
	// Adjacent subkeys must not share structure: the XOR of neighbours
	// should also be balanced.
	tree := testTree(t, 16)
	const n = 4096
	prev := uint64(0)
	xors := make([]uint64, 0, n)
	buf := make([]uint64, 1)
	for i := uint64(0); i < n; i++ {
		leaf, _ := tree.Leaf(i)
		SubKeys(leaf, buf)
		if i > 0 {
			xors = append(xors, buf[0]^prev)
		}
		prev = buf[0]
	}
	if b := bitBalance(xors); math.Abs(b-0.5) > 0.004 {
		t.Errorf("adjacent-key XOR balance %.4f, want ~0.5", b)
	}
}

func TestCiphertextsOfEqualPlaintextsDiffer(t *testing.T) {
	// Encrypting the same message at different positions must produce
	// unrelated ciphertexts (fresh one-time keys).
	tree := testTree(t, 16)
	enc := NewEncryptor(tree.NewWalker())
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 2048; i++ {
		c, err := enc.EncryptDigest(i, []uint64{42}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[c[0]]; dup {
			t.Fatalf("positions %d and %d produced identical ciphertexts", prev, i)
		}
		seen[c[0]] = i
	}
}

func TestCiphertextBitBalance(t *testing.T) {
	// Even an all-zeros plaintext stream must yield balanced ciphertext
	// bits (the canceling keys are pseudorandom).
	tree := testTree(t, 16)
	enc := NewEncryptor(tree.NewWalker())
	const n = 4096
	samples := make([]uint64, n)
	m := []uint64{0}
	for i := uint64(0); i < n; i++ {
		c, err := enc.EncryptDigest(i, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		samples[i] = c[0]
	}
	if b := bitBalance(samples); math.Abs(b-0.5) > 0.004 {
		t.Errorf("ciphertext bit balance %.4f for zero plaintexts", b)
	}
}

func TestAggregateWithoutKeysLooksRandom(t *testing.T) {
	// The server's view: an in-range aggregate of known plaintexts must
	// not reveal their sum. Aggregate 100 zero-plaintext ciphertexts;
	// the result equals k_a − k_b, which should be balanced, not zero.
	tree := testTree(t, 16)
	enc := NewEncryptor(tree.NewWalker())
	agg := make([]uint64, 1)
	for i := uint64(0); i < 100; i++ {
		c, err := enc.EncryptDigest(i, []uint64{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		AddVec(agg, c)
	}
	if agg[0] == 0 {
		t.Fatal("aggregate of zero plaintexts is zero: outer keys leaked")
	}
	if pop := bits.OnesCount64(agg[0]); pop < 16 || pop > 48 {
		t.Errorf("aggregate popcount %d looks structured", pop)
	}
}

func TestSiblingTokensIndependent(t *testing.T) {
	// A principal holding the left half of the tree derives nothing
	// about the right half: all right-half leaves must differ from every
	// derived left-half leaf (trivially true) and, more importantly, the
	// right-half leaves must be unreachable through the KeySet API.
	tree := testTree(t, 10)
	half := tree.NumLeaves() / 2
	tokens, err := tree.Cover(0, half-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tokens) != 1 || tokens[0].Depth != 1 {
		t.Fatalf("left half should be one depth-1 token, got %+v", tokens)
	}
	ks, err := NewKeySet(NewPRG(PRGAES), 10, tokens)
	if err != nil {
		t.Fatal(err)
	}
	for i := half; i < tree.NumLeaves(); i += 37 {
		if _, err := ks.Leaf(i); err == nil {
			t.Fatalf("left-half token derived right-half leaf %d", i)
		}
	}
}

func TestDualKeyRegressionChainsOneWay(t *testing.T) {
	// Possession of a mid-chain token gives exactly the interval and the
	// keys outside it differ from everything derivable inside.
	d, err := NewDualKeyRegression(256)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := d.Share(100, 150)
	if err != nil {
		t.Fatal(err)
	}
	inside := make(map[Node]bool)
	for _, k := range tokenKeys(t, tok) {
		inside[k] = true
	}
	for j := uint64(0); j < 256; j++ {
		if j >= 100 && j <= 150 {
			continue
		}
		k, _ := d.KeyAt(j)
		if inside[k] {
			t.Fatalf("outside key %d equals an inside key", j)
		}
	}
}

func TestEnvelopeKeysUnlinkable(t *testing.T) {
	// Resolution keys must not equal the outer leaves they encrypt, nor
	// each other.
	rs, err := NewResolutionStream(6, 64)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := rs.Share(0, 62)
	if err != nil {
		t.Fatal(err)
	}
	keys := tokenKeys(t, tok.Token)
	seen := make(map[Node]bool)
	for _, k := range keys {
		if seen[k] {
			t.Fatal("resolution key reuse")
		}
		seen[k] = true
	}
}
