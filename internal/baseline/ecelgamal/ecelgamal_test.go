package ecelgamal

import (
	"crypto/elliptic"
	"testing"
)

func testSetup(t *testing.T) (*PrivateKey, *DlogTable) {
	t.Helper()
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	table, err := NewDlogTable(1<<20, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	return key, table
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	key, table := testSetup(t)
	for _, m := range []uint64{0, 1, 7, 1023, 1024, 99999, 1 << 20} {
		c, err := key.Encrypt(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := key.Decrypt(c, table)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if got != m {
			t.Errorf("Decrypt(Enc(%d)) = %d", m, got)
		}
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	key, _ := testSetup(t)
	a, _ := key.Encrypt(5)
	b, _ := key.Encrypt(5)
	if a.c1.x.Cmp(b.c1.x) == 0 {
		t.Error("two encryptions share C1 (randomness reused)")
	}
}

func TestAdditiveHomomorphism(t *testing.T) {
	key, table := testSetup(t)
	c1, _ := key.Encrypt(1000)
	c2, _ := key.Encrypt(234)
	got, err := key.Decrypt(Add(c1, c2), table)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1234 {
		t.Errorf("homomorphic sum = %d, want 1234", got)
	}
}

func TestLongAggregation(t *testing.T) {
	key, table := testSetup(t)
	acc, _ := key.Encrypt(0)
	var want uint64
	for i := uint64(1); i <= 50; i++ {
		c, _ := key.Encrypt(i)
		acc = Add(acc, c)
		want += i
	}
	got, err := key.Decrypt(acc, table)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("aggregated sum = %d, want %d", got, want)
	}
}

func TestDlogOutOfRange(t *testing.T) {
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	table, err := NewDlogTable(100, 10)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := key.Encrypt(5000)
	if _, err := key.Decrypt(c, table); err == nil {
		t.Error("discrete log beyond table max succeeded")
	}
}

func TestDlogTableValidation(t *testing.T) {
	if _, err := NewDlogTable(0, 10); err == nil {
		t.Error("zero max accepted")
	}
	if _, err := NewDlogTable(100, 0); err == nil {
		t.Error("zero baby steps accepted")
	}
}

func TestWrongKeyFailsOrWrongValue(t *testing.T) {
	key1, table := testSetup(t)
	key2, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := key1.Encrypt(42)
	got, err := key2.Decrypt(c, table)
	if err == nil && got == 42 {
		t.Error("wrong key decrypted to the right value")
	}
}

func TestCiphertextBytes(t *testing.T) {
	key, _ := testSetup(t)
	c, _ := key.Encrypt(1)
	size := 0
	for _, p := range []point{c.c1, c.c2} {
		size += len(elliptic.MarshalCompressed(curve, p.x, p.y))
	}
	if size != CiphertextBytes {
		t.Errorf("ciphertext size %d, want %d", size, CiphertextBytes)
	}
}

func TestIdentityArithmetic(t *testing.T) {
	// 0 encrypts to a ciphertext whose message point is the identity;
	// adding it must be a no-op on the plaintext.
	key, table := testSetup(t)
	zero, _ := key.Encrypt(0)
	five, _ := key.Encrypt(5)
	got, err := key.Decrypt(Add(zero, five), table)
	if err != nil || got != 5 {
		t.Errorf("0+5 = %d (%v)", got, err)
	}
}
