package core

import (
	"math/bits"
	"math/rand/v2"
	"testing"
	"unsafe"
)

// Count-based tests of the two key-derivation caches: nothing here is timed.
// They count PRG expansions (through countingPRG) and the Encryptor's own
// derivation counters, and compare every derived leaf with the uncached
// Tree.Leaf / KeySet.Leaf.

// countingPRG wraps a PRG and counts its Expand calls.
type countingPRG struct {
	PRG
	n *int
}

func (c countingPRG) Expand(x Node) (Node, Node) {
	*c.n++
	return c.PRG.Expand(x)
}

func countingTree(t *testing.T, height int) (*Tree, *int) {
	t.Helper()
	n := new(int)
	tree, err := NewTree(countingPRG{NewPRG(PRGSHA256), n}, height, Node{0xC0, 0x17})
	if err != nil {
		t.Fatal(err)
	}
	return tree, n
}

func memoBytes(w *Walker) int { return cap(w.memo) * int(unsafe.Sizeof(Node{})) }

// Sealing walks the keystream one leaf at a time. It must cost exactly what
// the path cache alone costs — the first leaf's full descent, then for each
// step the levels below the common ancestor of i−1 and i, two expansions a
// chunk amortised — and never allocate a memo.
func TestSequentialSealingPaysNothingForTheMemo(t *testing.T) {
	tree, expansions := countingTree(t, DefaultTreeHeight)
	w := tree.NewWalker()
	enc := NewEncryptor(w)
	const chunks = 5000
	m := make([]uint64, 19)
	for i := uint64(0); i < chunks; i++ {
		if _, err := enc.EncryptDigest(i, m, m); err != nil {
			t.Fatal(err)
		}
		if _, err := enc.ChunkKeyAt(i); err != nil {
			t.Fatal(err)
		}
	}
	want := DefaultTreeHeight // leaf 0
	for i := uint64(1); i <= chunks; i++ {
		want += bits.Len64(i ^ (i - 1))
	}
	if *expansions != want {
		t.Errorf("%d chunks sealed in %d expansions, the path cache alone costs %d", chunks, *expansions, want)
	}
	if perChunk := float64(*expansions) / chunks; perChunk > 2.01 {
		t.Errorf("%.3f expansions per chunk, want about 2", perChunk)
	}
	if w.memoHeight != 0 || w.memo != nil {
		t.Errorf("a forward-only walker has a memo (height %d, %d nodes)", w.memoHeight, len(w.memo))
	}
}

// randomLeaves derives n uniformly random leaves below count, checks each
// against Tree.Leaf, and returns the most expansions any one of them cost.
func randomLeaves(t *testing.T, tree *Tree, expansions *int, w *Walker, rng *rand.Rand, count uint64, n int) (worst int) {
	t.Helper()
	for k := 0; k < n; k++ {
		i := rng.Uint64N(count)
		before := *expansions
		got, err := w.Leaf(i)
		if err != nil {
			t.Fatal(err)
		}
		worst = max(worst, *expansions-before)
		want, _ := tree.Leaf(i) // counted too, but after the cost was taken
		if got != want {
			t.Fatalf("leaf %d (access %d): walker and Tree.Leaf disagree", i, k)
		}
	}
	return worst
}

func TestRandomLeafCostsTheMemoHeightOnceWarm(t *testing.T) {
	for _, tc := range []struct {
		count      uint64
		wantHeight int
	}{
		{1 << 10, memoMinHeight}, // the benchmark's query streams: 32 nodes
		{1 << 15, memoMinHeight}, // the most the memo holds at its first height
		{1 << 17, 7},             // 1,024 nodes at height 7
	} {
		tree, expansions := countingTree(t, DefaultTreeHeight)
		w := tree.NewWalker()
		rng := rand.New(rand.NewPCG(1, tc.count))
		cold := randomLeaves(t, tree, expansions, w, rng, tc.count, 20_000) // warm-up: fills the memo
		if w.memoHeight != tc.wantHeight {
			t.Fatalf("%d chunks: memo settled at height %d, want %d", tc.count, w.memoHeight, tc.wantHeight)
		}
		if cold <= w.memoHeight+1 {
			t.Fatalf("%d chunks: a cold random leaf cost at most %d expansions: the test measures nothing", tc.count, cold)
		}
		if warm := randomLeaves(t, tree, expansions, w, rng, tc.count, 10_000); warm > w.memoHeight+1 {
			t.Errorf("%d chunks: a warm random leaf cost %d expansions, want <= %d", tc.count, warm, w.memoHeight+1)
		}
		if b := memoBytes(w); b > 16<<10 {
			t.Errorf("%d chunks: memo holds %d bytes, want <= 16 KiB", tc.count, b)
		}
	}
}

// Past the span the memo can hold at one height it moves up a level: leaves
// stay right, the memo stops growing, and a warm leaf still costs the memo's
// height — less than the path cache alone over a stream that long.
func TestMemoIsBoundedOnALongStream(t *testing.T) {
	tree, expansions := countingTree(t, DefaultTreeHeight)
	w := tree.NewWalker()
	rng := rand.New(rand.NewPCG(3, 4))
	randomLeaves(t, tree, expansions, w, rng, 1<<20, 40_000)
	if w.memoHeight != 10 || len(w.memo) > memoMaxNodes {
		t.Errorf("memo at height %d with %d nodes after random leaves over 2^20 chunks, want height 10 and <= %d", w.memoHeight, len(w.memo), memoMaxNodes)
	}
	if warm := randomLeaves(t, tree, expansions, w, rng, 1<<20, 10_000); warm > w.memoHeight+1 {
		t.Errorf("a warm random leaf over 2^20 chunks cost %d expansions, want <= %d", warm, w.memoHeight+1)
	}
	// Two positions as far apart as the keystream allows: the memo cannot
	// span them at any useful height, and must not try to.
	for k := 0; k < 200; k++ {
		i := uint64(k%2) * (1<<DefaultTreeHeight - 1)
		got, err := w.Leaf(i)
		want, _ := tree.Leaf(i)
		if err != nil || got != want {
			t.Fatalf("leaf %d: walker and Tree.Leaf disagree (err %v)", i, err)
		}
	}
	if b := memoBytes(w); b > 16<<10 {
		t.Errorf("memo holds %d bytes, want <= 16 KiB", b)
	}
}

// The memo costs in proportion to the span accessed: a short stream holds a
// few entries, not a table.
func TestMemoOfAShortStreamIsSmall(t *testing.T) {
	tree, expansions := countingTree(t, DefaultTreeHeight)
	w := tree.NewWalker()
	randomLeaves(t, tree, expansions, w, rand.New(rand.NewPCG(5, 6)), 300, 2_000)
	if w.memoHeight != memoMinHeight {
		t.Fatalf("memo at height %d after random access over 300 chunks, want %d", w.memoHeight, memoMinHeight)
	}
	if b := memoBytes(w); b == 0 || b >= 256 {
		t.Errorf("memo of a 300-chunk stream holds %d bytes, want 1..255", b)
	}
}

// Near steps, far jumps and revisits interleaved: a memo hit resumes below
// path entries it did not derive, and the common-prefix reuse after it must
// never start from one of those.
func TestPathCacheStaysExactAcrossMemoHits(t *testing.T) {
	tree, _ := countingTree(t, 24)
	w := tree.NewWalker()
	rng := rand.New(rand.NewPCG(7, 8))
	// The stream grows as it is read, so the memo changes level (up to 8)
	// with paths of the old level in place.
	count := uint64(1 << 12)
	i := uint64(0)
	for k := 0; k < 120_000; k++ {
		if k%30_000 == 29_999 {
			count <<= 2
		}
		switch rng.Uint64N(6) {
		case 0:
			i = rng.Uint64N(count) // far
		case 1:
			i = (i + 1<<w.memoHeight) % count // the next memo node
		case 2:
			i = (i ^ 1<<rng.Uint64N(18)) % count // flip one level of the path
		case 3:
			i = i >> w.memoHeight << w.memoHeight // first leaf of this memo node
		default:
			i = (i + 1) % count // sequential
		}
		got, err := w.Leaf(i)
		want, _ := tree.Leaf(i)
		if err != nil || got != want {
			t.Fatalf("access %d, leaf %d: walker and Tree.Leaf disagree (err %v)", k, i, err)
		}
	}
	if w.memoHeight != 8 {
		t.Errorf("memo at height %d after reading a stream that grew to 2^18 chunks, want 8", w.memoHeight)
	}
}

// A principal's walker memoizes only under the token that covers the leaf.
// The three tokens here carry unrelated keys (no one tree produced them),
// so a node served across a token boundary could not go unnoticed; two of
// them span several memo nodes, one is smaller than a single memo node.
func TestKeySetWalkerMemoStaysWithinItsTokens(t *testing.T) {
	const height = 20
	prg := NewPRG(PRGSHA256)
	tokens := []Token{
		{Depth: height - 11, Index: 1, Key: Node{1}},  // leaves [2048, 4096): 8 memo nodes
		{Depth: height - 10, Index: 5, Key: Node{2}},  // leaves [5120, 6144): 4 memo nodes
		{Depth: height - 5, Index: 200, Key: Node{3}}, // leaves [6400, 6432): less than one
	}
	ks, err := NewKeySet(prg, height, tokens)
	if err != nil {
		t.Fatal(err)
	}
	w := ks.NewWalker()
	rng := rand.New(rand.NewPCG(9, 10))
	var served, refused int
	for k := 0; k < 40_000; k++ {
		i := 1024 + rng.Uint64N(6144) // [1024, 7168): around and across all three
		got, err := w.Leaf(i)
		want, wantErr := ks.Leaf(i)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("leaf %d: walker err %v, KeySet.Leaf err %v", i, err, wantErr)
		}
		if err != nil {
			refused++
			continue
		}
		served++
		if got != want {
			t.Fatalf("access %d, leaf %d: walker and KeySet.Leaf disagree", k, i)
		}
	}
	if served == 0 || refused == 0 {
		t.Fatalf("served %d, refused %d: the walk did not cross the grant's boundaries", served, refused)
	}
	if len(w.memo) == 0 {
		t.Fatal("the walk never used the memo")
	}
	for k, node := range w.memo {
		if node == (Node{}) {
			continue
		}
		first := (w.memoBase + uint64(k)) << w.memoHeight
		want, err := ks.Leaf(first)
		if err != nil {
			t.Fatalf("memo holds a node over leaf %d, which no token covers", first)
		}
		if got := deriveFrom(prg, node, 0, w.memoHeight); got != want {
			t.Fatalf("memo node over leaf %d does not derive that leaf", first)
		}
	}
}

// A page of contiguous windows telescopes: each window's right edge is the
// next one's left, so after the first every window costs one leaf and one
// subkey expansion, full vectors and projections alike.
func TestContiguousPageDerivesEachEdgeOnce(t *testing.T) {
	tree, _ := countingTree(t, DefaultTreeHeight)
	const windows, width, vlen = 64, 6, 19
	elems := []uint32{0, 1, 17}
	for _, proj := range [][]uint32{nil, elems} {
		dec := NewEncryptor(tree.NewWalker())
		n := vlen
		if proj != nil {
			n = len(proj)
		}
		for w := uint64(0); w < windows; w++ {
			i, j := 1000+w*width, 1000+(w+1)*width
			c := make([]uint64, n)
			for x := range c {
				c[x] = w*1000 + uint64(x)
			}
			want := referenceDecrypt(t, tree, i, j, proj, c)
			var got []uint64
			var err error
			if proj != nil {
				got, err = dec.DecryptRangeElems(i, j, proj, c, c)
			} else {
				got, err = dec.DecryptRange(i, j, c, c)
			}
			if err != nil {
				t.Fatal(err)
			}
			for x := range want {
				if got[x] != want[x] {
					t.Fatalf("window %d element %d decrypts wrong", w, x)
				}
			}
		}
		if dec.leafDerivations != windows+1 || dec.subKeyExpansions != windows+1 {
			t.Errorf("projection %v: %d windows cost %d leaves and %d subkey expansions, want %d of each",
				proj, windows, dec.leafDerivations, dec.subKeyExpansions, windows+1)
		}
		// A window that starts elsewhere, or at the same edge under another
		// projection, must not be served the kept subkeys.
		before := dec.subKeyExpansions
		c := make([]uint64, 2)
		i := 1000 + uint64(windows)*width
		want := referenceDecrypt(t, tree, i, i+9, []uint32{2, 3}, c)
		got, err := dec.DecryptRangeElems(i, i+9, []uint32{2, 3}, c, nil)
		if err != nil || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("same edge, other projection: wrong plaintext (err %v)", err)
		}
		if dec.subKeyExpansions != before+2 {
			t.Errorf("same edge, other projection: %d subkey expansions, want 2", dec.subKeyExpansions-before)
		}
	}
}

// referenceDecrypt decrypts without any cache: fresh leaves, fresh subkeys.
func referenceDecrypt(t *testing.T, tree *Tree, i, j uint64, elems []uint32, c []uint64) []uint64 {
	t.Helper()
	li, err := tree.Leaf(i)
	if err != nil {
		t.Fatal(err)
	}
	lj, err := tree.Leaf(j)
	if err != nil {
		t.Fatal(err)
	}
	if elems == nil {
		return DecryptVec(li, lj, c, nil)
	}
	ki, kj := SubKeysAt(li, elems, nil), SubKeysAt(lj, elems, nil)
	out := make([]uint64, len(c))
	for x := range c {
		out[x] = c[x] - ki[x] + kj[x]
	}
	return out
}
