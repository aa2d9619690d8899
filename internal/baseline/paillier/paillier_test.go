package paillier

import (
	"math/big"
	"testing"
	"testing/quick"
)

// testBits keeps test key generation fast; security is irrelevant here.
const testBits = 512

func testKey(t *testing.T) *PrivateKey {
	t.Helper()
	key, err := GenerateKey(testBits)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	key := testKey(t)
	for _, m := range []uint64{0, 1, 42, 1 << 40, ^uint64(0)} {
		c, err := key.EncryptUint64(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := key.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Uint64() != m {
			t.Errorf("Decrypt(Enc(%d)) = %v", m, got)
		}
		gotCRT, err := key.DecryptCRT(c)
		if err != nil {
			t.Fatal(err)
		}
		if gotCRT.Cmp(got) != 0 {
			t.Errorf("CRT decrypt %v != standard %v", gotCRT, got)
		}
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	key := testKey(t)
	a, _ := key.EncryptUint64(7)
	b, _ := key.EncryptUint64(7)
	if a.Cmp(b) == 0 {
		t.Error("two encryptions of 7 are identical")
	}
}

func TestAdditiveHomomorphism(t *testing.T) {
	key := testKey(t)
	c1, _ := key.EncryptUint64(1234)
	c2, _ := key.EncryptUint64(8766)
	sum := key.AddInto(c1, c2)
	got, err := key.Decrypt(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got.Uint64() != 10000 {
		t.Errorf("homomorphic sum = %v, want 10000", got)
	}
}

func TestAddIntoAccumulates(t *testing.T) {
	key := testKey(t)
	acc, _ := key.EncryptUint64(0)
	var want uint64
	for i := uint64(1); i <= 20; i++ {
		c, _ := key.EncryptUint64(i)
		key.AddInto(acc, c)
		want += i
	}
	got, _ := key.DecryptCRT(acc)
	if got.Uint64() != want {
		t.Errorf("accumulated sum = %v, want %d", got, want)
	}
}

func TestPlaintextRangeChecks(t *testing.T) {
	key := testKey(t)
	if _, err := key.Encrypt(big.NewInt(-1)); err == nil {
		t.Error("negative plaintext accepted")
	}
	if _, err := key.Encrypt(key.N); err == nil {
		t.Error("plaintext >= n accepted")
	}
	if _, err := key.Decrypt(big.NewInt(0)); err == nil {
		t.Error("zero ciphertext accepted")
	}
	if _, err := key.Decrypt(key.N2); err == nil {
		t.Error("out-of-range ciphertext accepted")
	}
	if _, err := GenerateKey(32); err == nil {
		t.Error("tiny modulus accepted")
	}
}

func TestHomomorphismProperty(t *testing.T) {
	key := testKey(t)
	f := func(a, b uint32) bool {
		c1, err := key.EncryptUint64(uint64(a))
		if err != nil {
			return false
		}
		c2, err := key.EncryptUint64(uint64(b))
		if err != nil {
			return false
		}
		got, err := key.DecryptCRT(key.AddInto(c1, c2))
		if err != nil {
			return false
		}
		return got.Uint64() == uint64(a)+uint64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCiphertextBytes(t *testing.T) {
	key := testKey(t)
	if got := key.CiphertextBytes(); got != testBits/4 {
		t.Errorf("CiphertextBytes = %d, want %d (2x modulus)", got, testBits/4)
	}
}
