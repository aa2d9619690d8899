// Package ecelgamal implements additively homomorphic elliptic-curve
// ElGamal over P-256 — the paper's second strawman baseline (representing
// Pilatus/Talos-style systems, §6; 256-bit curve = 128-bit security). The
// message is encoded in the exponent (m·G), so addition of ciphertexts adds
// plaintexts, and decryption requires solving a small discrete log, done
// here with baby-step giant-step over a precomputed table.
package ecelgamal

import (
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
)

// point is an affine curve point (nil-x encodes the identity).
type point struct {
	x, y *big.Int
}

var curve = elliptic.P256()

func (p point) isIdentity() bool { return p.x == nil }

func addPoints(a, b point) point {
	if a.isIdentity() {
		return b
	}
	if b.isIdentity() {
		return a
	}
	x, y := curve.Add(a.x, a.y, b.x, b.y)
	if x.Sign() == 0 && y.Sign() == 0 {
		return point{}
	}
	return point{x, y}
}

func negPoint(a point) point {
	if a.isIdentity() {
		return a
	}
	ny := new(big.Int).Sub(curve.Params().P, a.y)
	ny.Mod(ny, curve.Params().P)
	return point{new(big.Int).Set(a.x), ny}
}

func scalarBase(k *big.Int) point {
	if k.Sign() == 0 {
		return point{}
	}
	x, y := curve.ScalarBaseMult(k.Bytes())
	return point{x, y}
}

func scalarMult(p point, k *big.Int) point {
	if p.isIdentity() || k.Sign() == 0 {
		return point{}
	}
	x, y := curve.ScalarMult(p.x, p.y, k.Bytes())
	return point{x, y}
}

// Ciphertext is an EC-ElGamal ciphertext (C1, C2) = (r·G, m·G + r·Q).
type Ciphertext struct {
	c1, c2 point
}

// CiphertextBytes is a ciphertext's serialized size (two compressed
// points), the source of the strawman's 21x index expansion in Table 2.
const CiphertextBytes = 2 * 33

// PrivateKey is the decryption key d with public Q = d·G.
type PrivateKey struct {
	PublicKey
	d *big.Int
}

// PublicKey is the encryption key.
type PublicKey struct {
	q point
}

// GenerateKey creates a key pair.
func GenerateKey() (*PrivateKey, error) {
	d, err := rand.Int(rand.Reader, curve.Params().N)
	if err != nil {
		return nil, err
	}
	if d.Sign() == 0 {
		d.SetInt64(1)
	}
	return &PrivateKey{PublicKey: PublicKey{q: scalarBase(d)}, d: d}, nil
}

// Encrypt encrypts a small non-negative integer m.
func (pub *PublicKey) Encrypt(m uint64) (*Ciphertext, error) {
	r, err := rand.Int(rand.Reader, curve.Params().N)
	if err != nil {
		return nil, err
	}
	mG := scalarBase(new(big.Int).SetUint64(m))
	rQ := scalarMult(pub.q, r)
	return &Ciphertext{c1: scalarBase(r), c2: addPoints(mG, rQ)}, nil
}

// Add homomorphically adds two ciphertexts.
func Add(a, b *Ciphertext) *Ciphertext {
	return &Ciphertext{c1: addPoints(a.c1, b.c1), c2: addPoints(a.c2, b.c2)}
}

// DlogTable solves m·G → m for 0 <= m < Max via baby-step giant-step.
// Building the table costs O(babySteps) once; each Decrypt costs at most
// Max/babySteps point additions.
type DlogTable struct {
	baby     map[string]uint64
	babyN    uint64
	giantNeg point // -(babyN)·G
	max      uint64
}

// NewDlogTable precomputes baby steps for plaintexts below max.
// babySteps = sqrt(max) balances table size against lookup time.
func NewDlogTable(max, babySteps uint64) (*DlogTable, error) {
	if babySteps == 0 || max == 0 {
		return nil, errors.New("ecelgamal: max and babySteps must be positive")
	}
	t := &DlogTable{baby: make(map[string]uint64, babySteps), babyN: babySteps, max: max}
	// baby[i·G] = i
	var acc point
	g := scalarBase(big.NewInt(1))
	for i := uint64(0); i < babySteps; i++ {
		t.baby[pointKey(acc)] = i
		acc = addPoints(acc, g)
	}
	t.giantNeg = negPoint(scalarBase(new(big.Int).SetUint64(babySteps)))
	return t, nil
}

func pointKey(p point) string {
	if p.isIdentity() {
		return "O"
	}
	return string(elliptic.MarshalCompressed(curve, p.x, p.y))
}

// lookup solves the discrete log of p.
func (t *DlogTable) lookup(p point) (uint64, error) {
	cur := p
	for giant := uint64(0); giant*t.babyN <= t.max; giant++ {
		if i, ok := t.baby[pointKey(cur)]; ok {
			return giant*t.babyN + i, nil
		}
		cur = addPoints(cur, t.giantNeg)
	}
	return 0, fmt.Errorf("ecelgamal: discrete log not found below %d", t.max)
}

// Decrypt recovers the plaintext of c, which must be below the table's max.
// This is the expensive step the paper marks N/A for large aggregates.
func (key *PrivateKey) Decrypt(c *Ciphertext, t *DlogTable) (uint64, error) {
	mG := addPoints(c.c2, negPoint(scalarMult(c.c1, key.d)))
	return t.lookup(mG)
}
