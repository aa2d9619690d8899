package core

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Resolution-restricted access (paper §4.4). To let a principal query data
// only at aggregation factor f (i.e. f·Δ windows), the owner shares just the
// "outer" keystream leaves {leaf_0, leaf_f, leaf_2f, …}. Those leaves are
// not contiguous in the key-derivation tree, so they cannot be covered by a
// few tree tokens; instead the owner encrypts each outer leaf under a
// per-resolution keystream generated with dual key regression, and stores
// the resulting key envelopes at the server (§4.4.2). A principal granted a
// dual-key-regression interval downloads the envelopes and recovers exactly
// the outer leaves in that interval.

// ResolutionStream is the owner-side state for one access resolution of one
// data stream.
type ResolutionStream struct {
	// Factor is the aggregation factor f: a principal at this resolution
	// can decrypt aggregates spanning exactly [jf, (j+1)f) chunk windows
	// (and any coarser multiple).
	Factor uint64
	dkr    *DualKeyRegression
}

// NewResolutionStream creates a resolution keystream with capacity for
// maxWindows windows (envelope indices 0..maxWindows-1; window j covers
// chunks [jf, (j+1)f)).
func NewResolutionStream(factor, maxWindows uint64) (*ResolutionStream, error) {
	if factor < 1 {
		return nil, errors.New("core: resolution factor must be >= 1")
	}
	dkr, err := NewDualKeyRegression(maxWindows + 1)
	if err != nil {
		return nil, err
	}
	return &ResolutionStream{Factor: factor, dkr: dkr}, nil
}

// NewResolutionStreamFromSeeds rebuilds the owner state deterministically.
func NewResolutionStreamFromSeeds(factor, maxWindows uint64, pTop, sBottom Node) (*ResolutionStream, error) {
	if factor < 1 {
		return nil, errors.New("core: resolution factor must be >= 1")
	}
	dkr, err := NewDualKeyRegressionFromSeeds(maxWindows+1, pTop, sBottom)
	if err != nil {
		return nil, err
	}
	return &ResolutionStream{Factor: factor, dkr: dkr}, nil
}

// Seeds exposes the two dual-key-regression seeds for persistence.
func (rs *ResolutionStream) Seeds() (pTop, sBottom Node) { return rs.dkr.Seeds() }

// MaxWindows returns the number of boundary envelopes the stream can issue.
func (rs *ResolutionStream) MaxWindows() uint64 { return rs.dkr.N() - 1 }

// Envelope is an encrypted outer leaf stored at the (untrusted) server.
// Envelope j wraps keystream leaf j·f under resolution key k̄_j.
type Envelope struct {
	Index uint64 // j: window boundary index
	Box   []byte // AES-GCM sealed leaf bytes
}

// envelopeNonce derives the (unique-per-key) GCM nonce for envelope j.
// Each envelope uses a distinct single-use key, so a fixed derivation is
// safe; binding j prevents envelope transplantation.
func envelopeNonce(j uint64) []byte {
	nonce := make([]byte, 12)
	binary.BigEndian.PutUint64(nonce[4:], j)
	return nonce
}

// Seal produces envelope j containing leaf (which must be keystream leaf
// j·Factor).
func (rs *ResolutionStream) Seal(j uint64, leaf Node) (Envelope, error) {
	key, err := rs.dkr.KeyAt(j)
	if err != nil {
		return Envelope{}, err
	}
	return sealEnvelope(j, key, leaf)
}

func sealEnvelope(j uint64, key Node, leaf Node) (Envelope, error) {
	aead, err := ChunkAEAD(key)
	if err != nil {
		return Envelope{}, err
	}
	box := aead.Seal(nil, envelopeNonce(j), leaf[:], nil)
	return Envelope{Index: j, Box: box}, nil
}

// Share grants a principal windows [loWindow, hiWindow] inclusive. The
// returned token opens envelopes loWindow..hiWindow+1, i.e. the outer
// leaves bounding those windows.
func (rs *ResolutionStream) Share(loWindow, hiWindow uint64) (ResolutionToken, error) {
	if hiWindow+1 > rs.MaxWindows() {
		return ResolutionToken{}, fmt.Errorf("core: window %d beyond stream capacity %d", hiWindow, rs.MaxWindows())
	}
	dt, err := rs.dkr.Share(loWindow, hiWindow+1)
	if err != nil {
		return ResolutionToken{}, err
	}
	return ResolutionToken{Factor: rs.Factor, Token: dt}, nil
}

// ResolutionToken is the principal-side grant for a resolution stream.
type ResolutionToken struct {
	Factor uint64
	Token  DualToken
}

// Open decrypts envelope env, returning the outer keystream leaf it wraps.
func (rt ResolutionToken) Open(env Envelope) (Node, error) {
	key, err := rt.Token.KeyAt(env.Index)
	if err != nil {
		return Node{}, err
	}
	aead, err := ChunkAEAD(key)
	if err != nil {
		return Node{}, err
	}
	pt, err := aead.Open(nil, envelopeNonce(env.Index), env.Box, nil)
	if err != nil {
		return Node{}, fmt.Errorf("core: opening envelope %d: %w", env.Index, err)
	}
	if len(pt) != len(Node{}) {
		return Node{}, fmt.Errorf("core: envelope %d has %d-byte payload", env.Index, len(pt))
	}
	var leaf Node
	copy(leaf[:], pt)
	return leaf, nil
}

// ResolutionKeySet lets a principal decrypt window-aligned aggregates at a
// fixed resolution. It maps chunk positions to outer leaves recovered from
// envelopes; it satisfies LeafSource for exactly the boundary positions
// {j·f : loWindow ≤ j ≤ hiWindow+1}.
type ResolutionKeySet struct {
	factor uint64
	leaves map[uint64]Node // chunk position -> leaf
}

// OpenAll opens every envelope within the token's interval and builds a
// ResolutionKeySet. Envelopes outside the interval are ignored.
func (rt ResolutionToken) OpenAll(envs []Envelope) (*ResolutionKeySet, error) {
	ks := &ResolutionKeySet{factor: rt.Factor, leaves: make(map[uint64]Node, len(envs))}
	for _, env := range envs {
		if env.Index < rt.Token.Lo || env.Index > rt.Token.Hi {
			continue
		}
		leaf, err := rt.Open(env)
		if err != nil {
			return nil, err
		}
		ks.leaves[env.Index*rt.Factor] = leaf
	}
	return ks, nil
}

// Merge folds another key set of the same factor into ks (used when a
// principal holds several grants at one resolution).
func (ks *ResolutionKeySet) Merge(other *ResolutionKeySet) {
	if ks.leaves == nil {
		ks.leaves = make(map[uint64]Node, len(other.leaves))
	}
	if ks.factor == 0 {
		ks.factor = other.factor
	}
	for pos, leaf := range other.leaves {
		ks.leaves[pos] = leaf
	}
}

// Leaf returns the outer keystream leaf for chunk position i. Only window
// boundaries (multiples of the factor whose envelopes were opened) are
// available; anything else is an access error — exactly the paper's
// crypto-enforced resolution restriction.
func (ks *ResolutionKeySet) Leaf(i uint64) (Node, error) {
	leaf, ok := ks.leaves[i]
	if !ok {
		return Node{}, fmt.Errorf("core: resolution access does not cover chunk position %d", i)
	}
	return leaf, nil
}

// DecryptWindow decrypts an aggregate over chunk positions [i, j) using the
// key set's outer leaves. i and j must be covered boundaries.
func (ks *ResolutionKeySet) DecryptWindow(i, j uint64, c []uint64) ([]uint64, error) {
	leafI, err := ks.Leaf(i)
	if err != nil {
		return nil, err
	}
	leafJ, err := ks.Leaf(j)
	if err != nil {
		return nil, err
	}
	return DecryptVec(leafI, leafJ, c, nil), nil
}

// DecryptWindowElems decrypts a projected aggregate over [i, j): c[x] is
// the ciphertext of digest element elems[x], with subkeys derived at those
// original indices. i and j must be covered boundaries.
func (ks *ResolutionKeySet) DecryptWindowElems(i, j uint64, elems []uint32, c []uint64) ([]uint64, error) {
	if len(elems) != len(c) {
		return nil, fmt.Errorf("core: %d projected elements but %d ciphertext values", len(elems), len(c))
	}
	leafI, err := ks.Leaf(i)
	if err != nil {
		return nil, err
	}
	leafJ, err := ks.Leaf(j)
	if err != nil {
		return nil, err
	}
	ki := SubKeysAt(leafI, elems, nil)
	kj := SubKeysAt(leafJ, elems, nil)
	out := make([]uint64, len(c))
	for x := range c {
		out[x] = c[x] - ki[x] + kj[x]
	}
	return out, nil
}
