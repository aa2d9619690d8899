package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func testTree(t *testing.T, height int) *Tree {
	t.Helper()
	tree, err := NewTree(NewPRG(PRGAES), height, Node{9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestNewTreeValidation(t *testing.T) {
	if _, err := NewTree(nil, 10, Node{}); err == nil {
		t.Error("expected error for nil PRG")
	}
	if _, err := NewTree(NewPRG(PRGAES), 0, Node{}); err == nil {
		t.Error("expected error for zero height")
	}
	if _, err := NewTree(NewPRG(PRGAES), MaxTreeHeight+1, Node{}); err == nil {
		t.Error("expected error for excessive height")
	}
}

func TestGenerateTreeRandomSeeds(t *testing.T) {
	t1, err := GenerateTree(NewPRG(PRGAES), 8)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := GenerateTree(NewPRG(PRGAES), 8)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Seed() == t2.Seed() {
		t.Error("two generated trees share a seed")
	}
}

func TestLeafOutOfRange(t *testing.T) {
	tree := testTree(t, 4)
	if _, err := tree.Leaf(16); err == nil {
		t.Error("expected error for leaf index beyond 2^height")
	}
	if _, err := tree.Leaf(15); err != nil {
		t.Errorf("leaf 15 should be valid: %v", err)
	}
}

func TestLeavesDistinct(t *testing.T) {
	tree := testTree(t, 8)
	seen := make(map[Node]uint64)
	for i := uint64(0); i < 256; i++ {
		leaf, err := tree.Leaf(i)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[leaf]; dup {
			t.Fatalf("leaves %d and %d collide", prev, i)
		}
		seen[leaf] = i
	}
}

func TestCoverMatchesBruteForce(t *testing.T) {
	tree := testTree(t, 8)
	n := tree.NumLeaves()
	for trial := 0; trial < 200; trial++ {
		a := rand.Uint64N(n)
		b := a + rand.Uint64N(n-a)
		tokens, err := tree.Cover(a, b)
		if err != nil {
			t.Fatal(err)
		}
		// Tokens must exactly tile [a, b] and derive the same leaves
		// as the tree.
		covered := make(map[uint64]bool)
		for _, tk := range tokens {
			for i := tk.FirstLeaf(8); i <= tk.LastLeaf(8); i++ {
				if covered[i] {
					t.Fatalf("cover [%d,%d]: leaf %d covered twice", a, b, i)
				}
				covered[i] = true
			}
		}
		for i := uint64(0); i < n; i++ {
			want := i >= a && i <= b
			if covered[i] != want {
				t.Fatalf("cover [%d,%d]: leaf %d covered=%v want %v", a, b, i, covered[i], want)
			}
		}
	}
}

func TestCoverTokenCount(t *testing.T) {
	tree := testTree(t, 16)
	// A full aligned subtree must be one token.
	tokens, err := tree.Cover(0, tree.NumLeaves()-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tokens) != 1 || tokens[0].Depth != 0 {
		t.Errorf("whole-range cover should be the root token, got %+v", tokens)
	}
	// Worst case is bounded by 2h.
	tokens, err = tree.Cover(1, tree.NumLeaves()-2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tokens) > 2*16 {
		t.Errorf("cover has %d tokens, want <= %d", len(tokens), 2*16)
	}
}

func TestCoverInvalidRanges(t *testing.T) {
	tree := testTree(t, 4)
	if _, err := tree.Cover(5, 3); err == nil {
		t.Error("expected error for reversed range")
	}
	if _, err := tree.Cover(0, 16); err == nil {
		t.Error("expected error for range beyond keystream")
	}
}

func TestKeySetDerivesExactlyGrantedLeaves(t *testing.T) {
	tree := testTree(t, 8)
	tokens, err := tree.Cover(10, 99)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := NewKeySet(NewPRG(PRGAES), 8, tokens)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < tree.NumLeaves(); i++ {
		leaf, err := ks.Leaf(i)
		if i >= 10 && i <= 99 {
			if err != nil {
				t.Fatalf("leaf %d should be derivable: %v", i, err)
			}
			want, _ := tree.Leaf(i)
			if leaf != want {
				t.Fatalf("leaf %d mismatch with owner tree", i)
			}
		} else if err == nil {
			t.Fatalf("leaf %d should NOT be derivable", i)
		}
	}
}

func TestKeySetRejectsOverlap(t *testing.T) {
	tree := testTree(t, 8)
	a, _ := tree.Cover(0, 31)
	b, _ := tree.Cover(16, 63)
	if _, err := NewKeySet(NewPRG(PRGAES), 8, append(a, b...)); err == nil {
		t.Error("expected overlap rejection")
	}
}

func TestKeySetAddMergesGrants(t *testing.T) {
	tree := testTree(t, 8)
	a, _ := tree.Cover(0, 15)
	b, _ := tree.Cover(32, 47)
	ks, err := NewKeySet(NewPRG(PRGAES), 8, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := ks.Add(b); err != nil {
		t.Fatal(err)
	}
	covers := func(i uint64) bool {
		_, err := ks.Leaf(i)
		return err == nil
	}
	if !covers(40) || !covers(5) {
		t.Error("merged key set missing granted leaves")
	}
	if covers(20) {
		t.Error("merged key set covers ungranted leaf")
	}
	// Adding overlapping tokens must fail and leave the set intact.
	c, _ := tree.Cover(40, 50)
	if err := ks.Add(c); err == nil {
		t.Error("expected overlap rejection on Add")
	}
	if !covers(40) {
		t.Error("failed Add corrupted key set")
	}
}

func TestWalkerMatchesTreeLeaf(t *testing.T) {
	tree := testTree(t, 12)
	w := tree.NewWalker()
	// Sequential access.
	for i := uint64(0); i < 300; i++ {
		got, err := w.Leaf(i)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := tree.Leaf(i)
		if got != want {
			t.Fatalf("sequential walker leaf %d mismatch", i)
		}
	}
	// Random access.
	for trial := 0; trial < 300; trial++ {
		i := rand.Uint64N(tree.NumLeaves())
		got, err := w.Leaf(i)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := tree.Leaf(i)
		if got != want {
			t.Fatalf("random walker leaf %d mismatch", i)
		}
	}
}

func TestKeySetWalkerRespectsGrant(t *testing.T) {
	tree := testTree(t, 10)
	tokens, _ := tree.Cover(100, 200)
	ks, err := NewKeySet(NewPRG(PRGAES), 10, tokens)
	if err != nil {
		t.Fatal(err)
	}
	w := ks.NewWalker()
	for i := uint64(100); i <= 200; i++ {
		got, err := w.Leaf(i)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := tree.Leaf(i)
		if got != want {
			t.Fatalf("walker leaf %d mismatch", i)
		}
	}
	if _, err := w.Leaf(99); err == nil {
		t.Error("walker derived leaf outside grant")
	}
	if _, err := w.Leaf(201); err == nil {
		t.Error("walker derived leaf outside grant")
	}
	// After an access failure the walker must still work.
	if _, err := w.Leaf(150); err != nil {
		t.Errorf("walker broken after denied access: %v", err)
	}
}

func TestTokenMarshalRoundTrip(t *testing.T) {
	f := func(depth uint8, index uint64, key [16]byte) bool {
		tk := Token{Depth: depth % 63, Index: index, Key: key}
		data, err := tk.MarshalBinary()
		if err != nil {
			return false
		}
		var got Token
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		return got == tk
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	var tk Token
	if err := tk.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Error("expected error for short token encoding")
	}
}

func TestTokenLeafBounds(t *testing.T) {
	tk := Token{Depth: 2, Index: 3} // subtree 3 at depth 2 in height-5 tree
	if got := tk.FirstLeaf(5); got != 24 {
		t.Errorf("FirstLeaf = %d, want 24", got)
	}
	if got := tk.LastLeaf(5); got != 31 {
		t.Errorf("LastLeaf = %d, want 31", got)
	}
	if !tk.Covers(24, 5) || !tk.Covers(31, 5) || tk.Covers(23, 5) || tk.Covers(32, 5) {
		t.Error("Covers boundary behaviour wrong")
	}
}

// Property: for random grants, a key set derives a leaf iff the leaf is in
// the granted range, and derived leaves always match the owner's.
func TestKeySetProperty(t *testing.T) {
	tree := testTree(t, 10)
	n := tree.NumLeaves()
	f := func(x, y, probe uint64) bool {
		a, b := x%n, y%n
		if a > b {
			a, b = b, a
		}
		tokens, err := tree.Cover(a, b)
		if err != nil {
			return false
		}
		ks, err := NewKeySet(NewPRG(PRGAES), 10, tokens)
		if err != nil {
			return false
		}
		p := probe % n
		leaf, err := ks.Leaf(p)
		if p >= a && p <= b {
			want, _ := tree.Leaf(p)
			return err == nil && leaf == want
		}
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
