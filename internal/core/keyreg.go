package core

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
)

// Key regression (paper §A.2): hash chains with the property that states
// can be walked efficiently in one direction only. TimeCrypt uses the dual
// construction — two chains consumed in opposite directions — so a grant
// can bound the shared key interval on both ends.
//
// The chain step uses G : {0,1}^128 → {0,1}^256 instantiated as SHA-256;
// the next state is MSB_128(G(s)) and the derived key is LSB_128(G(s)).

// krStep computes MSB_λ(G(s)), the adjacent chain state.
func krStep(s Node) Node {
	sum := sha256.Sum256(s[:])
	var next Node
	copy(next[:], sum[:16])
	return next
}

// krKey computes LSB_l(G(s1 XOR s2)), the key for one state pair.
func krKey(s1, s2 Node) Node {
	var x [16]byte
	for i := range x {
		x[i] = s1[i] ^ s2[i]
	}
	sum := sha256.Sum256(x[:])
	var key Node
	copy(key[:], sum[16:])
	return key
}

// DualKeyRegression is the data-owner side of the dual key regression
// scheme. The owner holds the top of the primary chain (from which every
// state can be derived downward) and the bottom of the secondary chain
// (derivable upward), so it can compute any key and issue interval-bounded
// shares.
//
// Checkpoints every ~√n states bound owner-side derivation to O(√n) hash
// evaluations, matching the cost model in §6.2.
type DualKeyRegression struct {
	n       uint64 // number of states: indices 0..n-1
	stride  uint64
	pTop    Node   // s1_{n-1}
	sBottom Node   // s2_0
	pcks    []Node // primary checkpoints at indices 0, stride, 2*stride, ...
	scks    []Node // secondary checkpoints at the same indices
}

// NewDualKeyRegression creates a scheme with n states (keys 0..n-1) from
// fresh random seeds.
func NewDualKeyRegression(n uint64) (*DualKeyRegression, error) {
	var p, s Node
	if _, err := rand.Read(p[:]); err != nil {
		return nil, fmt.Errorf("core: reading seed: %w", err)
	}
	if _, err := rand.Read(s[:]); err != nil {
		return nil, fmt.Errorf("core: reading seed: %w", err)
	}
	return NewDualKeyRegressionFromSeeds(n, p, s)
}

// NewDualKeyRegressionFromSeeds deterministically rebuilds the scheme from
// the owner's two seeds: pTop is the primary chain head s1_{n-1} and
// sBottom the secondary chain tail s2_0.
func NewDualKeyRegressionFromSeeds(n uint64, pTop, sBottom Node) (*DualKeyRegression, error) {
	if n == 0 {
		return nil, errors.New("core: dual key regression needs at least one state")
	}
	if n > 1<<40 {
		return nil, fmt.Errorf("core: chain length %d too large", n)
	}
	d := &DualKeyRegression{n: n, pTop: pTop, sBottom: sBottom}
	d.stride = uint64(math.Sqrt(float64(n)))
	if d.stride == 0 {
		d.stride = 1
	}
	// Materialize checkpoints at indices 0, stride, 2*stride, …
	// The primary chain is generated from the top: s1_{i-1} = step(s1_i).
	nck := (n-1)/d.stride + 1
	d.pcks = make([]Node, nck)
	d.scks = make([]Node, nck)
	s1 := pTop
	for i := n - 1; ; i-- {
		if i%d.stride == 0 {
			d.pcks[i/d.stride] = s1
		}
		if i == 0 {
			break
		}
		s1 = krStep(s1)
	}
	s2 := sBottom
	for i := uint64(0); i < n; i++ {
		if i%d.stride == 0 {
			d.scks[i/d.stride] = s2
		}
		s2 = krStep(s2)
	}
	return d, nil
}

// N returns the number of keys in the scheme.
func (d *DualKeyRegression) N() uint64 { return d.n }

// Seeds returns the two owner seeds (primary head, secondary tail) for
// persistence.
func (d *DualKeyRegression) Seeds() (pTop, sBottom Node) { return d.pTop, d.sBottom }

// primaryState derives s1_j. Primary states derive downward (from high
// index to low), so we start from the nearest checkpoint at or above j.
func (d *DualKeyRegression) primaryState(j uint64) Node {
	ck := j / d.stride
	ckIdx := ck * d.stride
	s := d.pcks[ck]
	if ckIdx == j {
		return s
	}
	// The checkpoint at ckIdx is below j; use the next checkpoint up and
	// walk down to j.
	if ck+1 < uint64(len(d.pcks)) {
		start := (ck + 1) * d.stride
		s = d.pcks[ck+1]
		for i := start; i > j; i-- {
			s = krStep(s)
		}
		return s
	}
	s = d.pTop
	for i := d.n - 1; i > j; i-- {
		s = krStep(s)
	}
	return s
}

// secondaryState derives s2_j. Secondary states derive upward.
func (d *DualKeyRegression) secondaryState(j uint64) Node {
	ck := j / d.stride
	s := d.scks[ck]
	for i := ck * d.stride; i < j; i++ {
		s = krStep(s)
	}
	return s
}

// KeyAt returns key j.
func (d *DualKeyRegression) KeyAt(j uint64) (Node, error) {
	if j >= d.n {
		return Node{}, fmt.Errorf("core: key index %d out of range (n=%d)", j, d.n)
	}
	return krKey(d.primaryState(j), d.secondaryState(j)), nil
}

// Share issues a token granting exactly keys [lo, hi] (inclusive): the
// primary state at hi (derivable downward to lo and beyond, but useless
// without secondary states) and the secondary state at lo (derivable
// upward). The receiver can form state pairs only for indices in [lo, hi].
func (d *DualKeyRegression) Share(lo, hi uint64) (DualToken, error) {
	if lo > hi || hi >= d.n {
		return DualToken{}, fmt.Errorf("core: invalid share range [%d,%d] (n=%d)", lo, hi, d.n)
	}
	return DualToken{Lo: lo, Hi: hi, S1: d.primaryState(hi), S2: d.secondaryState(lo)}, nil
}

// DualToken is a principal's bounded-interval share of a dual key
// regression stream: keys Lo..Hi inclusive.
type DualToken struct {
	Lo, Hi uint64
	S1     Node // primary chain state at index Hi
	S2     Node // secondary chain state at index Lo
}

// KeyAt derives the single key j from the token; j must be within [Lo, Hi].
func (t DualToken) KeyAt(j uint64) (Node, error) {
	if j < t.Lo || j > t.Hi {
		return Node{}, fmt.Errorf("core: key %d outside token range [%d,%d]", j, t.Lo, t.Hi)
	}
	s1 := t.S1
	for i := t.Hi; i > j; i-- {
		s1 = krStep(s1)
	}
	s2 := t.S2
	for i := t.Lo; i < j; i++ {
		s2 = krStep(s2)
	}
	return krKey(s1, s2), nil
}
