package core

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// MaxTreeHeight bounds the key-derivation tree so leaf indices fit in a
// uint64 and shifts stay well-defined.
const MaxTreeHeight = 62

// DefaultTreeHeight yields 2^30 ≈ one billion keys, the configuration the
// paper evaluates with (§6, "a keystream with one billion keys").
const DefaultTreeHeight = 30

// Tree is the owner-side GGM key-derivation tree (paper §4.2.3). The root is
// a secret random seed; the 2^height leaves form the keystream. Sharing an
// inner node (a Token) grants exactly the leaves of its subtree.
//
// Tree is safe for concurrent use; the sequential-derivation fast path lives
// in Walker, which is not.
type Tree struct {
	prg    PRG
	height int
	root   Node
}

// NewTree builds a tree of the given height over seed using prg.
func NewTree(prg PRG, height int, seed Node) (*Tree, error) {
	if prg == nil {
		return nil, errors.New("core: nil PRG")
	}
	if height < 1 || height > MaxTreeHeight {
		return nil, fmt.Errorf("core: tree height %d out of range [1,%d]", height, MaxTreeHeight)
	}
	return &Tree{prg: prg, height: height, root: seed}, nil
}

// GenerateTree builds a tree with a fresh random seed drawn from crypto/rand.
func GenerateTree(prg PRG, height int) (*Tree, error) {
	var seed Node
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("core: reading seed: %w", err)
	}
	return NewTree(prg, height, seed)
}

// Height returns the tree height h; the keystream has 2^h leaves.
func (t *Tree) Height() int { return t.height }

// NumLeaves returns the keystream length 2^h.
func (t *Tree) NumLeaves() uint64 { return uint64(1) << uint(t.height) }

// Seed returns the secret root. It is exported so the owner can persist its
// key material; never share it (it is the all-leaves token).
func (t *Tree) Seed() Node { return t.root }

// Leaf derives leaf i by walking the h PRG expansions from the root
// (paper eq. 7: TreeKD(k, t) = G_th(...G_t1(k))).
func (t *Tree) Leaf(i uint64) (Node, error) {
	if i >= t.NumLeaves() {
		return Node{}, fmt.Errorf("core: leaf %d out of range (height %d)", i, t.height)
	}
	return deriveFrom(t.prg, t.root, i, t.height), nil
}

// deriveFrom walks steps PRG expansions from node, consuming the low `steps`
// bits of path from most significant to least significant.
func deriveFrom(prg PRG, node Node, path uint64, steps int) Node {
	for d := steps - 1; d >= 0; d-- {
		l, r := prg.Expand(node)
		if path>>uint(d)&1 == 0 {
			node = l
		} else {
			node = r
		}
	}
	return node
}

// Token is a shareable inner node of the key-derivation tree: an access
// token (paper §4.2.3, "Sharing"). A token at depth d with index p covers
// leaves [p << (h-d), (p+1) << (h-d)).
type Token struct {
	// Depth is the number of edges from the root (0 = root itself).
	Depth uint8
	// Index is the path prefix from the root, i.e. the node's position
	// within its level.
	Index uint64
	// Key is the node's pseudorandom string, from which the whole subtree
	// can be recomputed.
	Key Node
}

// tokenSize is the fixed marshalled size of a Token.
const tokenSize = 1 + 8 + 16

// FirstLeaf returns the smallest leaf index covered by the token in a tree
// of height h.
func (tk Token) FirstLeaf(h int) uint64 { return tk.Index << uint(h-int(tk.Depth)) }

// LastLeaf returns the largest leaf index covered by the token in a tree of
// height h.
func (tk Token) LastLeaf(h int) uint64 {
	span := uint64(1) << uint(h-int(tk.Depth))
	return tk.FirstLeaf(h) + span - 1
}

// Covers reports whether leaf i lies in the token's subtree for height h.
func (tk Token) Covers(i uint64, h int) bool {
	return i>>uint(h-int(tk.Depth)) == tk.Index
}

// MarshalBinary encodes the token as depth || index || key.
func (tk Token) MarshalBinary() ([]byte, error) {
	buf := make([]byte, tokenSize)
	buf[0] = tk.Depth
	binary.BigEndian.PutUint64(buf[1:], tk.Index)
	copy(buf[9:], tk.Key[:])
	return buf, nil
}

// UnmarshalBinary decodes a token produced by MarshalBinary.
func (tk *Token) UnmarshalBinary(data []byte) error {
	if len(data) != tokenSize {
		return fmt.Errorf("core: token must be %d bytes, got %d", tokenSize, len(data))
	}
	tk.Depth = data[0]
	tk.Index = binary.BigEndian.Uint64(data[1:])
	copy(tk.Key[:], data[9:])
	return nil
}

// Cover computes the minimal set of tokens whose subtrees exactly cover the
// leaf range [first, last] (inclusive). This is what the data owner shares
// to grant access to a keystream segment: at most 2h tokens instead of
// last−first+1 individual keys.
func (t *Tree) Cover(first, last uint64) ([]Token, error) {
	if first > last {
		return nil, fmt.Errorf("core: invalid cover range [%d,%d]", first, last)
	}
	if last >= t.NumLeaves() {
		return nil, fmt.Errorf("core: cover range end %d exceeds keystream (height %d)", last, t.height)
	}
	// Walk the canonical segment decomposition bottom-up. At each level,
	// peel off the range ends that are not aligned with the level above.
	type span struct {
		level int // levels above the leaves
		index uint64
	}
	var spans []span
	a, b := first, last
	level := 0
	for {
		if a == b {
			spans = append(spans, span{level, a})
			break
		}
		if a&1 == 1 {
			spans = append(spans, span{level, a})
			a++
		}
		if b&1 == 0 {
			spans = append(spans, span{level, b})
			b--
		}
		if a > b {
			break
		}
		a >>= 1
		b >>= 1
		level++
	}
	tokens := make([]Token, 0, len(spans))
	for _, s := range spans {
		depth := t.height - s.level
		key := deriveFrom(t.prg, t.root, s.index, depth)
		tokens = append(tokens, Token{Depth: uint8(depth), Index: s.index, Key: key})
	}
	sort.Slice(tokens, func(i, j int) bool {
		return tokens[i].FirstLeaf(t.height) < tokens[j].FirstLeaf(t.height)
	})
	return tokens, nil
}

// RootToken returns the token covering the whole keystream. Handing it out
// is equivalent to sharing the master secret.
func (t *Tree) RootToken() Token { return Token{Depth: 0, Index: 0, Key: t.root} }

// KeySet is the principal-side view of a keystream: a set of access tokens
// received through grants. It can derive exactly the leaves its tokens
// cover and nothing else (one-wayness of the PRG).
//
// KeySet is safe for concurrent readers once built.
type KeySet struct {
	prg    PRG
	height int
	tokens []Token // sorted by FirstLeaf, non-overlapping
}

// NewKeySet builds a KeySet for a tree of the given height from tokens.
// Tokens may arrive from multiple grants; overlapping tokens are rejected.
func NewKeySet(prg PRG, height int, tokens []Token) (*KeySet, error) {
	if prg == nil {
		return nil, errors.New("core: nil PRG")
	}
	if height < 1 || height > MaxTreeHeight {
		return nil, fmt.Errorf("core: tree height %d out of range [1,%d]", height, MaxTreeHeight)
	}
	ts := make([]Token, len(tokens))
	copy(ts, tokens)
	sort.Slice(ts, func(i, j int) bool { return ts[i].FirstLeaf(height) < ts[j].FirstLeaf(height) })
	for i := range ts {
		if int(ts[i].Depth) > height {
			return nil, fmt.Errorf("core: token depth %d exceeds tree height %d", ts[i].Depth, height)
		}
		if i > 0 && ts[i].FirstLeaf(height) <= ts[i-1].LastLeaf(height) {
			return nil, fmt.Errorf("core: overlapping tokens at leaf %d", ts[i].FirstLeaf(height))
		}
	}
	return &KeySet{prg: prg, height: height, tokens: ts}, nil
}

// Tokens returns the key set's tokens sorted by first covered leaf.
func (ks *KeySet) Tokens() []Token {
	out := make([]Token, len(ks.tokens))
	copy(out, ks.tokens)
	return out
}

// Add merges additional tokens (e.g. from a later grant) into the key set.
func (ks *KeySet) Add(tokens []Token) error {
	merged, err := NewKeySet(ks.prg, ks.height, append(ks.Tokens(), tokens...))
	if err != nil {
		return err
	}
	ks.tokens = merged.tokens
	return nil
}

func (ks *KeySet) find(i uint64) (Token, bool) {
	// Binary search for the last token with FirstLeaf <= i.
	lo, hi := 0, len(ks.tokens)
	for lo < hi {
		mid := (lo + hi) / 2
		if ks.tokens[mid].FirstLeaf(ks.height) <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return Token{}, false
	}
	tk := ks.tokens[lo-1]
	if !tk.Covers(i, ks.height) {
		return Token{}, false
	}
	return tk, true
}

// Leaf derives keystream leaf i, or an error if no token covers it.
func (ks *KeySet) Leaf(i uint64) (Node, error) {
	tk, ok := ks.find(i)
	if !ok {
		return Node{}, fmt.Errorf("core: no access token covers leaf %d", i)
	}
	steps := ks.height - int(tk.Depth)
	return deriveFrom(ks.prg, tk.Key, i&((uint64(1)<<uint(steps))-1), steps), nil
}

// Walker derives leaves with a path cache so that sequential access costs
// O(1) amortized PRG expansions instead of O(h) per leaf. This is the hot
// path for chunk ingest and for decrypting long per-window query results.
//
// Random access — the two edges of an arbitrary query range — is served by
// a memo of inner nodes at one height above the leaves: a stream's
// positions share the tree's upper levels, so once the memo is warm a leaf
// far from the last one costs that height in expansions instead of the
// ~log2(stream length) below the last common ancestor. The memo holds only
// nodes this walker derived from the token in hand, so it can serve nothing
// the walker's tokens could not derive anyway.
//
// A Walker is not safe for concurrent use.
type Walker struct {
	prg    PRG
	height int
	find   func(uint64) (Token, bool)

	// cache of the last derived root-to-leaf path within one token:
	// path[d] is the node d expansions below the token, on the way to
	// lastLeaf. Every entry is valid except those in [gap, memo level): a
	// memo hit resumes below entries it did not derive, which still hold
	// an older leaf's path. gap is noGap when there is no such hole.
	tok      Token
	tokOK    bool
	path     []Node
	lastLeaf uint64
	gap      int

	// memo[k] is the inner node at memoHeight above the leaves whose
	// absolute index (leaf >> memoHeight) is memoBase+k; the zero Node
	// marks an absent entry (a real all-zero node, one in 2^128, is merely
	// derived again). A KeySet's tokens do not overlap, so an index names
	// the one token that can derive it. memoHeight is 0 until the first
	// jump backwards switches the memo on — a walker that only ever steps
	// forward (sealing) never has one — then memoMinHeight, and one more
	// each time the span of positions accessed outgrows memoMaxNodes: the
	// memo costs in proportion to that span and never more than 16 KiB.
	memo       []Node
	memoBase   uint64
	memoHeight int
}

const (
	// memoMinHeight is the height the memo starts at: 32 leaves a node, so
	// a warm random access costs 5 expansions.
	memoMinHeight = 5
	// memoMaxNodes bounds the memo at 1,024 × 16 B. It holds every node of
	// a 2^15-chunk stream at height 5 and of a 2^17-chunk stream at 7.
	memoMaxNodes = 1024

	noGap = 1 << 30
)

// NewWalker returns a sequential-access walker over the owner's tree.
func (t *Tree) NewWalker() *Walker {
	w := &Walker{prg: t.prg, height: t.height, path: make([]Node, t.height+1)}
	root := t.RootToken()
	w.find = func(uint64) (Token, bool) { return root, true }
	return w
}

// NewWalker returns a sequential-access walker over the principal's tokens.
func (ks *KeySet) NewWalker() *Walker {
	w := &Walker{prg: ks.prg, height: ks.height, path: make([]Node, ks.height+1)}
	w.find = ks.find
	return w
}

// Leaf derives leaf i, reusing the cached path from the previous call where
// possible and the memo where the path does not reach.
func (w *Walker) Leaf(i uint64) (Node, error) {
	tk, ok := w.find(i)
	if !ok {
		return Node{}, fmt.Errorf("core: no access token covers leaf %d", i)
	}
	steps := w.height - int(tk.Depth)
	rel := i & ((uint64(1) << uint(steps)) - 1)
	if w.memoHeight == 0 && w.tokOK && i < w.lastLeaf {
		w.memoHeight = memoMinHeight
	}
	// The memo level as a depth below the token; not positive when the memo
	// is off or the token spans no more than one memo node.
	memoDepth := 0
	if w.memoHeight > 0 {
		memoDepth = steps - w.memoHeight
	}
	start := 0
	if w.tokOK && w.tok == tk {
		// Longest common prefix of rel and lastLeaf within this token.
		lastRel := w.lastLeaf & ((uint64(1) << uint(steps)) - 1)
		diff := rel ^ lastRel
		start = steps
		if diff != 0 {
			start = steps - bits.Len64(diff)
		}
		if start >= w.gap && start < memoDepth {
			start = w.gap - 1 // inside the hole: back to the valid prefix
		}
	} else {
		w.tok = tk
		w.tokOK = true
		w.path[0] = tk.Key
		w.gap = noGap
	}
	if start < memoDepth {
		if node, hit := w.memoGet(i >> uint(w.memoHeight)); hit {
			w.path[memoDepth] = node
			w.gap = start + 1
			start = memoDepth
		} else {
			w.gap = noGap // derived all the way down: no hole
		}
	}
	node := w.path[start]
	for d := start; d < steps; d++ {
		l, r := w.prg.Expand(node)
		if rel>>uint(steps-1-d)&1 == 0 {
			node = l
		} else {
			node = r
		}
		w.path[d+1] = node
		if d+1 == memoDepth {
			w.memoPut(i>>uint(w.memoHeight), node)
		}
	}
	w.lastLeaf = i
	return node, nil
}

// memoGet returns the memoized node with absolute index p, if present.
func (w *Walker) memoGet(p uint64) (Node, bool) {
	if k := p - w.memoBase; p >= w.memoBase && k < uint64(len(w.memo)) {
		return w.memo[k], w.memo[k] != Node{}
	}
	return Node{}, false
}

// memoPut records the node with absolute index p, growing the memo to span
// p. When that span would exceed memoMaxNodes the memo moves one level up
// instead — a node cannot be derived from its children, so it starts empty
// — where the same positions span half as many nodes. It is only called
// while a leaf is derived all the way down from above the memo level, when
// the path holds no hole that the new level would have to describe.
func (w *Walker) memoPut(p uint64, node Node) {
	if len(w.memo) == 0 {
		w.memoBase = p
	}
	lo := min(p, w.memoBase)
	span := max(p+1, w.memoBase+uint64(len(w.memo))) - lo
	if span > memoMaxNodes {
		clear(w.memo)
		w.memo = w.memo[:0]
		w.memoHeight++
		return
	}
	if shift := w.memoBase - lo; shift > 0 || span > uint64(cap(w.memo)) {
		// Exact while small, so a short stream holds a few entries and
		// not a table; doubling after.
		c := span
		if c > 64 {
			c = min(max(c, 2*uint64(cap(w.memo))), memoMaxNodes)
		}
		grown := make([]Node, span, c)
		copy(grown[shift:], w.memo)
		w.memo, w.memoBase = grown, lo
	} else {
		w.memo = w.memo[:span] // the tail beyond len was never written: zero
	}
	w.memo[p-lo] = node
}
