// Package paillier implements the Paillier additively homomorphic
// cryptosystem over math/big. It is one of the paper's two strawman
// baselines (representing encrypted databases such as CryptDB/Talos/Monomi,
// §6): semantically secure, additively homomorphic, but with heavy
// ciphertext expansion (2·|n| bits per value) and millisecond-scale
// operations at 128-bit security (3072-bit n).
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
)

// Key128SecurityBits is the modulus size for 128-bit security per NIST
// SP 800-57 (the paper's evaluation setting: 3072-bit keys).
const Key128SecurityBits = 3072

// PrivateKey holds the full Paillier key material.
type PrivateKey struct {
	PublicKey
	lambda *big.Int // lcm(p-1, q-1)
	mu     *big.Int // lambda^-1 mod n

	// CRT acceleration for decryption.
	p, q   *big.Int
	pp, qq *big.Int // p², q²
	hp, hq *big.Int // precomputed L_p(g^{p-1} mod p²)^-1 etc.
	pinv   *big.Int // p^-1 mod q
}

// PublicKey is the encryption key.
type PublicKey struct {
	N  *big.Int // modulus
	N2 *big.Int // n²
}

// GenerateKey creates a key pair with an n of the given bit length.
// Tests use small sizes (512); the benchmarks use Key128SecurityBits.
func GenerateKey(bits int) (*PrivateKey, error) {
	if bits < 64 {
		return nil, errors.New("paillier: modulus too small")
	}
	one := big.NewInt(1)
	for {
		p, err := rand.Prime(rand.Reader, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := rand.Prime(rand.Reader, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
		lambda := new(big.Int).Mul(pm1, qm1)
		lambda.Div(lambda, gcd)
		n2 := new(big.Int).Mul(n, n)
		mu := new(big.Int).ModInverse(lambda, n)
		if mu == nil {
			continue
		}
		key := &PrivateKey{
			PublicKey: PublicKey{N: n, N2: n2},
			lambda:    lambda,
			mu:        mu,
			p:         p,
			q:         q,
			pp:        new(big.Int).Mul(p, p),
			qq:        new(big.Int).Mul(q, q),
		}
		if err := key.precomputeCRT(); err != nil {
			continue
		}
		return key, nil
	}
}

// lFunc computes L(x) = (x - 1) / n for x ≡ 1 (mod n).
func lFunc(x, n *big.Int) *big.Int {
	r := new(big.Int).Sub(x, big.NewInt(1))
	return r.Div(r, n)
}

func (key *PrivateKey) precomputeCRT() error {
	one := big.NewInt(1)
	g := new(big.Int).Add(key.N, one) // g = n + 1
	pm1 := new(big.Int).Sub(key.p, one)
	qm1 := new(big.Int).Sub(key.q, one)
	// hp = L_p(g^{p-1} mod p²)^-1 mod p
	gp := new(big.Int).Exp(g, pm1, key.pp)
	hp := lFunc(gp, key.p)
	hp.ModInverse(hp, key.p)
	if hp == nil {
		return errors.New("paillier: CRT precompute failed (p)")
	}
	gq := new(big.Int).Exp(g, qm1, key.qq)
	hq := lFunc(gq, key.q)
	hq.ModInverse(hq, key.q)
	if hq == nil {
		return errors.New("paillier: CRT precompute failed (q)")
	}
	pinv := new(big.Int).ModInverse(key.p, key.q)
	if pinv == nil {
		return errors.New("paillier: CRT precompute failed (p^-1)")
	}
	key.hp, key.hq, key.pinv = hp, hq, pinv
	return nil
}

// Encrypt encrypts m (0 <= m < n) with the optimization g = n+1:
// c = (1 + m·n) · r^n mod n².
func (pub *PublicKey) Encrypt(m *big.Int) (*big.Int, error) {
	if m.Sign() < 0 || m.Cmp(pub.N) >= 0 {
		return nil, fmt.Errorf("paillier: plaintext out of range")
	}
	var r *big.Int
	for {
		var err error
		r, err = rand.Int(rand.Reader, pub.N)
		if err != nil {
			return nil, err
		}
		if r.Sign() > 0 && new(big.Int).GCD(nil, nil, r, pub.N).Cmp(big.NewInt(1)) == 0 {
			break
		}
	}
	// (1 + m·n) mod n²
	gm := new(big.Int).Mul(m, pub.N)
	gm.Add(gm, big.NewInt(1))
	gm.Mod(gm, pub.N2)
	rn := new(big.Int).Exp(r, pub.N, pub.N2)
	c := gm.Mul(gm, rn)
	return c.Mod(c, pub.N2), nil
}

// EncryptUint64 is a convenience wrapper for benchmark plaintexts.
func (pub *PublicKey) EncryptUint64(m uint64) (*big.Int, error) {
	return pub.Encrypt(new(big.Int).SetUint64(m))
}

// AddInto homomorphically accumulates src into dst in place:
// Dec(AddInto(c1, c2)) = m1 + m2 mod n.
func (pub *PublicKey) AddInto(dst, src *big.Int) *big.Int {
	dst.Mul(dst, src)
	return dst.Mod(dst, pub.N2)
}

// Decrypt recovers the plaintext using the standard L-function route:
// m = L(c^λ mod n²) · μ mod n.
func (key *PrivateKey) Decrypt(c *big.Int) (*big.Int, error) {
	if c.Sign() <= 0 || c.Cmp(key.N2) >= 0 {
		return nil, errors.New("paillier: ciphertext out of range")
	}
	x := new(big.Int).Exp(c, key.lambda, key.N2)
	m := lFunc(x, key.N)
	m.Mul(m, key.mu)
	return m.Mod(m, key.N), nil
}

// DecryptCRT recovers the plaintext with the CRT optimization (~4x faster:
// two half-size exponentiations instead of one full-size).
func (key *PrivateKey) DecryptCRT(c *big.Int) (*big.Int, error) {
	if c.Sign() <= 0 || c.Cmp(key.N2) >= 0 {
		return nil, errors.New("paillier: ciphertext out of range")
	}
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(key.p, one)
	qm1 := new(big.Int).Sub(key.q, one)
	// mp = L_p(c^{p-1} mod p²) · hp mod p
	cp := new(big.Int).Exp(c, pm1, key.pp)
	mp := lFunc(cp, key.p)
	mp.Mul(mp, key.hp).Mod(mp, key.p)
	cq := new(big.Int).Exp(c, qm1, key.qq)
	mq := lFunc(cq, key.q)
	mq.Mul(mq, key.hq).Mod(mq, key.q)
	// CRT combine.
	m := new(big.Int).Sub(mq, mp)
	m.Mul(m, key.pinv).Mod(m, key.q)
	m.Mul(m, key.p).Add(m, mp)
	return m, nil
}

// CiphertextBytes reports the serialized ciphertext size, the source of
// the strawman's index blow-up in Table 2 (2·|n| bits per digest element).
func (pub *PublicKey) CiphertextBytes() int { return (pub.N2.BitLen() + 7) / 8 }
