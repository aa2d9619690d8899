package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/kv"
)

func newTestTree(t *testing.T, cfg Config) (*Tree, *kv.MemStore) {
	t.Helper()
	store := kv.NewMemStore()
	tree, err := Open(store, "s1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tree, store
}

// fill appends n single-element digests with value i+1 at position i.
func fill(t *testing.T, tree *Tree, n uint64) {
	t.Helper()
	for i := uint64(0); i < n; i++ {
		if err := tree.Append(i, []uint64{i + 1}); err != nil {
			t.Fatal(err)
		}
	}
}

// rangeSum is the expected aggregate of fill values over [a, b).
func rangeSum(a, b uint64) uint64 {
	var s uint64
	for i := a; i < b; i++ {
		s += i + 1
	}
	return s
}

func TestAppendAndQuerySmall(t *testing.T) {
	tree, _ := newTestTree(t, Config{Fanout: 4, VectorLen: 1})
	fill(t, tree, 20)
	if tree.Count() != 20 {
		t.Fatalf("Count = %d, want 20", tree.Count())
	}
	for a := uint64(0); a < 20; a++ {
		for b := a + 1; b <= 20; b++ {
			got, err := tree.Query(a, b)
			if err != nil {
				t.Fatalf("Query(%d,%d): %v", a, b, err)
			}
			if got[0] != rangeSum(a, b) {
				t.Fatalf("Query(%d,%d) = %d, want %d", a, b, got[0], rangeSum(a, b))
			}
		}
	}
}

func TestQueryRandomRangesLargerTree(t *testing.T) {
	tree, _ := newTestTree(t, Config{Fanout: 8, VectorLen: 1})
	const n = 1000
	fill(t, tree, n)
	for trial := 0; trial < 300; trial++ {
		a := rand.Uint64N(n)
		b := a + 1 + rand.Uint64N(n-a)
		got, err := tree.Query(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != rangeSum(a, b) {
			t.Fatalf("Query(%d,%d) = %d, want %d", a, b, got[0], rangeSum(a, b))
		}
	}
}

func TestQueryVectorDigests(t *testing.T) {
	tree, _ := newTestTree(t, Config{Fanout: 4, VectorLen: 3})
	const n = 50
	for i := uint64(0); i < n; i++ {
		if err := tree.Append(i, []uint64{i, i * i, 1}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tree.Query(10, 40)
	if err != nil {
		t.Fatal(err)
	}
	var wantA, wantB, wantC uint64
	for i := uint64(10); i < 40; i++ {
		wantA += i
		wantB += i * i
		wantC++
	}
	if got[0] != wantA || got[1] != wantB || got[2] != wantC {
		t.Fatalf("got %v, want [%d %d %d]", got, wantA, wantB, wantC)
	}
}

func TestAppendValidation(t *testing.T) {
	tree, _ := newTestTree(t, Config{Fanout: 4, VectorLen: 2})
	if err := tree.Append(0, []uint64{1}); err == nil {
		t.Error("wrong vector length accepted")
	}
	if err := tree.Append(5, []uint64{1, 2}); err == nil {
		t.Error("out-of-order append accepted")
	}
	if err := tree.Append(0, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := tree.Append(0, []uint64{1, 2}); err == nil {
		t.Error("duplicate append accepted")
	}
}

func TestQueryValidation(t *testing.T) {
	tree, _ := newTestTree(t, Config{Fanout: 4, VectorLen: 1})
	fill(t, tree, 10)
	if _, err := tree.Query(5, 5); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := tree.Query(7, 3); err == nil {
		t.Error("reversed range accepted")
	}
	if _, err := tree.Query(0, 11); err == nil {
		t.Error("range beyond data accepted")
	}
}

func TestReopenPersistsCount(t *testing.T) {
	store := kv.NewMemStore()
	tree, err := Open(store, "s1", Config{Fanout: 4, VectorLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, tree, 33)
	reopened, err := Open(store, "s1", Config{Fanout: 4, VectorLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Count() != 33 {
		t.Fatalf("reopened Count = %d, want 33", reopened.Count())
	}
	got, err := reopened.Query(0, 33)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != rangeSum(0, 33) {
		t.Errorf("query after reopen = %d, want %d", got[0], rangeSum(0, 33))
	}
	if err := reopened.Append(33, []uint64{34}); err != nil {
		t.Errorf("append after reopen: %v", err)
	}
}

func TestStreamsAreIsolated(t *testing.T) {
	store := kv.NewMemStore()
	t1, _ := Open(store, "a", Config{Fanout: 4, VectorLen: 1})
	t2, _ := Open(store, "b", Config{Fanout: 4, VectorLen: 1})
	t1.Append(0, []uint64{100})
	t2.Append(0, []uint64{7})
	got, err := t1.Query(0, 1)
	if err != nil || got[0] != 100 {
		t.Errorf("stream a polluted: %v %v", got, err)
	}
	got, _ = t2.Query(0, 1)
	if got[0] != 7 {
		t.Errorf("stream b polluted: %v", got)
	}
}

func TestQueryWindows(t *testing.T) {
	tree, _ := newTestTree(t, Config{Fanout: 4, VectorLen: 1})
	fill(t, tree, 60)
	wins, err := tree.QueryWindows(0, 60, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 10 {
		t.Fatalf("got %d windows, want 10", len(wins))
	}
	for w := uint64(0); w < 10; w++ {
		if wins[w][0] != rangeSum(w*6, (w+1)*6) {
			t.Fatalf("window %d = %d, want %d", w, wins[w][0], rangeSum(w*6, (w+1)*6))
		}
	}
	if _, err := tree.QueryWindows(0, 10, 3); err == nil {
		t.Error("non-multiple range accepted")
	}
	if _, err := tree.QueryWindows(0, 10, 0); err == nil {
		t.Error("zero window accepted")
	}
}

func TestSmallCacheStillCorrect(t *testing.T) {
	tree, _ := newTestTree(t, Config{Fanout: 8, VectorLen: 1, CacheBytes: 512})
	const n = 500
	fill(t, tree, n)
	for trial := 0; trial < 100; trial++ {
		a := rand.Uint64N(n)
		b := a + 1 + rand.Uint64N(n-a)
		got, err := tree.Query(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != rangeSum(a, b) {
			t.Fatalf("Query(%d,%d) = %d, want %d", a, b, got[0], rangeSum(a, b))
		}
	}
	hits, misses, used, _ := tree.CacheStats()
	if misses == 0 {
		t.Error("tiny cache reported zero misses")
	}
	if hits == 0 {
		t.Error("cache never hit")
	}
	if used > 2048 {
		t.Errorf("cache exceeded budget: %d bytes", used)
	}
}

func TestPruneRemovesFineLevelsKeepsCoarse(t *testing.T) {
	tree, store := newTestTree(t, Config{Fanout: 4, VectorLen: 1})
	fill(t, tree, 64)
	before := store.Len()
	// Prune level-0 nodes for the first 16 chunks (one level-2 node span).
	if err := tree.PruneWith(2, 0, 16, nil); err != nil {
		t.Fatal(err)
	}
	if store.Len() >= before {
		t.Error("prune removed nothing")
	}
	// Coarse query over the pruned range still answers from level >= 2.
	got, err := tree.Query(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != rangeSum(0, 16) {
		t.Errorf("coarse query after prune = %d, want %d", got[0], rangeSum(0, 16))
	}
	// Fine-grained query inside the pruned range must fail (nodes gone).
	if _, err := tree.Query(1, 3); err == nil {
		t.Error("fine query succeeded on pruned range")
	}
	// Unpruned region unaffected.
	got, err = tree.Query(17, 23)
	if err != nil || got[0] != rangeSum(17, 23) {
		t.Errorf("unpruned range broken: %v %v", got, err)
	}
	if err := tree.PruneWith(0, 0, 4, nil); err == nil {
		t.Error("prune level 0 accepted")
	}
}

// TestCompleteInnerNodes: a tree without a cache reads the complete nodes
// above its leaves from memory and only its leaves (and nodes still
// filling) from the store. A reopened tree reads the nodes completed before
// it from the store and keeps those completed after, and a rollup's pruned
// nodes are never served from memory.
func TestCompleteInnerNodes(t *testing.T) {
	tree, store := newTestTree(t, Config{Fanout: 4, VectorLen: 1})
	fill(t, tree, 40) // nodes (1,0..9) and (2,0..1) complete, (2,2) filling
	reads := func(tree *Tree, a, b uint64) uint64 {
		t.Helper()
		before := store.Stats().Gets
		got, err := tree.Query(a, b)
		if err != nil || got[0] != rangeSum(a, b) {
			t.Fatalf("Query(%d,%d) = %v, %v; want %d", a, b, got, err, rangeSum(a, b))
		}
		return store.Stats().Gets - before
	}
	for _, c := range []struct{ a, b, gets uint64 }{
		{0, 32, 0},  // nodes (2,0) and (2,1)
		{32, 40, 0}, // nodes (1,8) and (1,9)
		{33, 40, 1}, // (1,8) minus leaf 32, then (1,9)
		{2, 3, 1},   // leaf 2
	} {
		if got := reads(tree, c.a, c.b); got != c.gets {
			t.Errorf("Query(%d,%d) made %d store reads, want %d", c.a, c.b, got, c.gets)
		}
	}

	reopened, err := Open(store, "s1", tree.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(40); i < 48; i++ { // completes (1,10), (1,11) and (2,2)
		if err := reopened.Append(i, []uint64{i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ a, b, gets uint64 }{
		{0, 32, 2},  // (2,0) and (2,1) were complete before the reopen
		{32, 48, 0}, // (2,2) completed after it
		{0, 48, 2},
		{36, 44, 1}, // (1,9) from the store, (1,10) from memory
	} {
		if got := reads(reopened, c.a, c.b); got != c.gets {
			t.Errorf("reopened: Query(%d,%d) made %d store reads, want %d", c.a, c.b, got, c.gets)
		}
	}

	// Levels 0 and 1 of [32,48) go; (2,2) stays.
	if err := reopened.PruneWith(2, 32, 48, nil); err != nil {
		t.Fatal(err)
	}
	if got := reads(reopened, 32, 48); got != 0 {
		t.Errorf("Query(32,48) after the rollup made %d store reads, want 0", got)
	}
	for _, r := range [][2]uint64{{36, 40}, {40, 44}, {40, 48}} {
		if _, err := reopened.Query(r[0], r[1]); err == nil {
			t.Errorf("Query(%d,%d) answered from a pruned node", r[0], r[1])
		}
	}
}

func TestConcurrentQueriesDuringAppends(t *testing.T) {
	tree, _ := newTestTree(t, Config{Fanout: 8, VectorLen: 1})
	fill(t, tree, 100)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := rand.Uint64N(100)
				b := a + 1 + rand.Uint64N(100-a)
				got, err := tree.Query(a, b)
				if err != nil {
					t.Errorf("Query(%d,%d): %v", a, b, err)
					return
				}
				if got[0] != rangeSum(a, b) {
					t.Errorf("Query(%d,%d) = %d, want %d", a, b, got[0], rangeSum(a, b))
					return
				}
			}
		}()
	}
	for i := uint64(100); i < 400; i++ {
		if err := tree.Append(i, []uint64{i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestUncachedQueriesDuringAppends: on a tree without a cache a query
// decodes every node from the store's own bytes while appends overwrite
// the ancestors it reads, and a writer overwrites 1 KiB values in the
// directories of the tree's lowest levels, so their MemStore shards
// reclaim pages under the readers. A slice that changed after GetShallow
// handed it out would show as a wrong sum (every answer is checked against
// plaintext prefix sums) and, under -race, as a race.
func TestUncachedQueriesDuringAppends(t *testing.T) {
	const (
		n      = 3000
		vecLen = 3
	)
	tree, store := newTestTree(t, Config{Fanout: 4, VectorLen: vecLen})
	digest := func(i uint64) []uint64 { return []uint64{i + 1, (i + 1) * (i + 1), ^i} }
	prefix := make([][vecLen]uint64, n+1) // prefix[i]: the sum of digests [0, i)
	for i := uint64(0); i < n; i++ {
		d := digest(i)
		for e := range prefix[i] {
			prefix[i+1][e] = prefix[i][e] + d[e]
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	for g := uint64(0); g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(g, 9))
			for !stopped() {
				count := tree.Count()
				if count == 0 {
					continue
				}
				a := rng.Uint64N(count)
				b := a + 1 + rng.Uint64N(count-a)
				got, err := tree.Query(a, b)
				if err != nil {
					t.Errorf("Query(%d,%d): %v", a, b, err)
					return
				}
				for e := range got {
					if want := prefix[b][e] - prefix[a][e]; got[e] != want {
						t.Errorf("Query(%d,%d)[%d] = %d, want %d", a, b, e, got[e], want)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		value := make([]byte, 1<<10)
		for round := 0; !stopped(); round++ {
			// "x" is no hex number, so no node key is overwritten.
			if err := store.Put(fmt.Sprintf("i/s1/%x/x", round%4), value); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	rng := rand.New(rand.NewPCG(3, 4))
	for pos := uint64(0); pos < n; {
		batch := make([][]uint64, min(1+rng.Uint64N(6), n-pos))
		for i := range batch {
			batch[i] = digest(pos + uint64(i))
		}
		if err := tree.AppendBatch(pos, batch); err != nil {
			t.Fatal(err)
		}
		pos += uint64(len(batch))
	}
	close(stop)
	wg.Wait()
	if hits, misses, used, entries := tree.CacheStats(); hits|misses|uint64(used)|uint64(entries) != 0 {
		t.Errorf("an uncached tree reports cache stats %d %d %d %d", hits, misses, used, entries)
	}
}

func TestConfigValidation(t *testing.T) {
	store := kv.NewMemStore()
	if _, err := Open(store, "s", Config{Fanout: 1, VectorLen: 1}); err == nil {
		t.Error("fanout 1 accepted")
	}
	if _, err := Open(store, "s", Config{Fanout: 4, VectorLen: 0}); err == nil {
		t.Error("vector length 0 accepted")
	}
	if _, err := Open(nil, "s", Config{Fanout: 4, VectorLen: 1}); err == nil {
		t.Error("nil store accepted")
	}
}

func TestLevelSpan(t *testing.T) {
	tree, _ := newTestTree(t, Config{Fanout: 4, VectorLen: 1})
	if tree.LevelSpan(0) != 1 || tree.LevelSpan(1) != 4 || tree.LevelSpan(3) != 64 {
		t.Error("LevelSpan wrong")
	}
	// 4^31 is the last power that fits; past it the span saturates.
	if tree.LevelSpan(31) != 1<<62 || tree.LevelSpan(32) != math.MaxUint64 || tree.LevelSpan(200) != math.MaxUint64 {
		t.Errorf("LevelSpan(31, 32, 200) = %d, %d, %d; want 2^62 then saturated", tree.LevelSpan(31), tree.LevelSpan(32), tree.LevelSpan(200))
	}
}

// leafKey and the tests below use level-0 keys unless the level matters.
func leafKey(idx uint64) uint64 { return cacheKey(0, idx) }

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(300, 0, 1)
	for i := uint64(0); i < 5; i++ { // 2+8+64 = 74 bytes each: the fifth must evict the oldest
		c.put(leafKey(i), []uint64{i})
	}
	vec := make([]uint64, 1)
	if c.get(leafKey(0), vec) {
		t.Error("oldest entry survived eviction")
	}
	if !c.get(leafKey(4), vec) || vec[0] != 4 {
		t.Error("newest entry evicted")
	}
	_, _, used, entries := c.stats()
	if used > 300 {
		t.Errorf("cache over budget: %d", used)
	}
	if entries == 0 {
		t.Error("cache empty after puts")
	}
}

// Every vector has the cache's length, so a replacement costs what the
// entry cost: the accounting neither grows nor shrinks, and the new vector
// is what a get copies out.
func TestLRUCacheReplaceUpdatesSize(t *testing.T) {
	c := newLRUCache(1<<20, 0, 4)
	c.put(leafKey(7), []uint64{1, 1, 1, 1})
	_, _, used1, _ := c.stats()
	c.put(leafKey(7), []uint64{1, 2, 3, 4})
	_, _, used2, entries := c.stats()
	if used2 != used1 || entries != 1 {
		t.Errorf("replace moved the accounting from %d B to %d B, %d entries", used1, used2, entries)
	}
	if vec := make([]uint64, 4); !c.get(leafKey(7), vec) || vec[3] != 4 {
		t.Errorf("replaced entry reads %v", vec)
	}
	c.remove(leafKey(7))
	_, _, used3, _ := c.stats()
	if used3 != 0 {
		t.Errorf("remove left %d bytes accounted", used3)
	}
}

func TestLRUCacheEvictsLowLevelsFirst(t *testing.T) {
	c := newLRUCache(300, 0, 1)
	c.put(cacheKey(3, 0), []uint64{9})
	for i := uint64(0); i < 4; i++ { // over budget at the fourth: a leaf must go, not the top
		c.put(leafKey(i), []uint64{i})
	}
	vec := make([]uint64, 1)
	if !c.get(cacheKey(3, 0), vec) {
		t.Error("high-level node evicted while leaves were cached")
	}
	if c.get(leafKey(0), vec) {
		t.Error("oldest leaf survived eviction")
	}
}

// The cache is keyed by integers, but an entry must cost what it cost when
// the key was the node's store-key string (len(key) + 8·len(vec) + 64):
// CacheBytes is an operator-facing budget, and the benchmark's query-range
// workload is sized by how many nodes 48 KiB holds.
func TestCacheBudgetEquivalence(t *testing.T) {
	const vecLen = 19 // chunk.DefaultSpec
	oldSize := func(storeKey string) int64 { return int64(len(storeKey)) + 8*vecLen + 64 }

	// Through a Tree whose budget holds every node: the bytes in use are
	// the old formula summed over the node keys actually in the store.
	store := kv.NewMemStore()
	tree, err := Open(store, "bench-stream-07", Config{VectorLen: vecLen, CacheBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		if err := tree.Append(i, make([]uint64, vecLen)); err != nil {
			t.Fatal(err)
		}
	}
	var want int64
	store.Scan("i/bench-stream-07/", func(key string, _ []byte) bool {
		if key != tree.metaKey() {
			want += oldSize(key)
		}
		return true
	})
	if _, _, used, _ := tree.CacheStats(); used != want {
		t.Errorf("cache accounts %d bytes for the tree's nodes, the string-keyed cache accounted %d", used, want)
	}

	// A 48 KiB cache filled with leaves 0..1023 keeps the most recent
	// ones, all with three-digit indexes: 49152 / (len("i/s/0/3ff")+152+64).
	const parentHeld = 218
	if got := (48 << 10) / oldSize("i/s/0/3ff"); got != parentHeld {
		t.Fatalf("test constant is off: old formula holds %d", got)
	}
	c := newLRUCache(48<<10, len("i/s//"), vecLen)
	for i := uint64(0); i < 1024; i++ {
		c.put(leafKey(i), make([]uint64, vecLen))
	}
	if _, _, _, entries := c.stats(); entries != parentHeld {
		t.Errorf("48 KiB holds %d DefaultSpec nodes, held %d with string keys", entries, parentHeld)
	}
}

// A query whose nodes are all cached must not allocate per node: no key
// string, no boxed entry. At fanout 64, [1, 383) decomposes into leaves
// 33..63, level-1 nodes 1..4 and leaves 320..350 — 66 nodes, neither run
// shorter by way of its parent — and [0, 2) into two; both cost the same
// few allocations (the result vector and the key scratch). The uncached
// read of the same nodes is root TestHotPathAllocBudgets' index-query.
func TestQueryHitAllocsIndependentOfNodes(t *testing.T) {
	tree, _ := newTestTree(t, Config{VectorLen: 19, CacheBytes: 1 << 20})
	for i := uint64(0); i < 400; i++ {
		if err := tree.Append(i, make([]uint64, 19)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(a, b uint64) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := tree.Query(a, b); err != nil {
				t.Fatal(err)
			}
		})
	}
	_, missesBefore, _, _ := tree.CacheStats()
	small, large := allocs(0, 2), allocs(33, 351)
	if _, misses, _, _ := tree.CacheStats(); misses != missesBefore {
		t.Fatalf("%d cache misses: the test needs every node resident", misses-missesBefore)
	}
	if small != large || small > 3 {
		t.Errorf("Query allocates %.0f times over 2 nodes and %.0f over 66: want the same small constant", small, large)
	}
}

func TestKeyPackingBounds(t *testing.T) {
	// The tallest tree, fanout 2, must still fit its levels in a cache key.
	if levels := treeLevels(2); levels > maxLevel {
		t.Errorf("fanout 2 derives %d levels, a cache key holds at most %d", levels, maxLevel)
	}
	store := kv.NewMemStore()
	// A stream whose recorded count is past the largest packable index is
	// corrupt; one exactly at it is full and refuses the next append.
	var meta [8]byte
	binary.BigEndian.PutUint64(meta[:], MaxChunks+1)
	store.Put("i/over/meta", meta[:])
	if _, err := Open(store, "over", Config{VectorLen: 1}); err == nil {
		t.Error("count beyond the packable index range accepted")
	}
	binary.BigEndian.PutUint64(meta[:], MaxChunks)
	store.Put("i/full/meta", meta[:])
	full, err := Open(store, "full", Config{VectorLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Append(MaxChunks, []uint64{1}); err == nil {
		t.Error("append past the packable index range accepted")
	}
	if err := full.AppendBatch(MaxChunks, [][]uint64{{1}}); err == nil {
		t.Error("batch append past the packable index range accepted")
	}
	if err := full.PruneWith(1, 0, MaxChunks+1, nil); err == nil {
		t.Error("prune past the packable index range accepted")
	}
	if cacheKey(maxLevel, maxIdx) != ^uint64(0) || keyLevel(cacheKey(maxLevel, 0)) != maxLevel {
		t.Error("level and index do not tile the key")
	}
}

// TestAppendBatchMatchesSequential proves a batched ingest leaves the store
// in exactly the state N sequential Appends would, for batch shapes that
// straddle node boundaries every way (sub-fanout, exactly fanout, multiple
// nodes, single digest).
func TestAppendBatchMatchesSequential(t *testing.T) {
	const total = 150
	digest := func(i uint64) []uint64 { return []uint64{i*1000003 + 1, i * 97} }

	seqTree, seqStore := newTestTree(t, Config{Fanout: 4, VectorLen: 2})
	for i := uint64(0); i < total; i++ {
		if err := seqTree.Append(i, digest(i)); err != nil {
			t.Fatal(err)
		}
	}

	batchTree, batchStore := newTestTree(t, Config{Fanout: 4, VectorLen: 2})
	pos := uint64(0)
	for _, size := range []uint64{1, 3, 4, 5, 16, 64, 2, 55, 10} {
		if pos+size > total {
			size = total - pos
		}
		digests := make([][]uint64, size)
		for i := range digests {
			digests[i] = digest(pos + uint64(i))
		}
		if err := batchTree.AppendBatch(pos, digests); err != nil {
			t.Fatal(err)
		}
		pos += size
	}
	if pos != total {
		t.Fatalf("batch schedule covered %d chunks, want %d", pos, total)
	}
	if batchTree.Count() != seqTree.Count() {
		t.Fatalf("Count: batch %d, sequential %d", batchTree.Count(), seqTree.Count())
	}

	seq := map[string][]byte{}
	if err := seqStore.Scan("", func(k string, v []byte) bool {
		seq[k] = append([]byte(nil), v...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	nBatch := 0
	if err := batchStore.Scan("", func(k string, v []byte) bool {
		nBatch++
		want, ok := seq[k]
		if !ok {
			t.Errorf("batch store has extra key %q", k)
			return true
		}
		if string(v) != string(want) {
			t.Errorf("key %q: batch bytes differ from sequential", k)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if nBatch != len(seq) {
		t.Fatalf("batch store has %d keys, sequential has %d", nBatch, len(seq))
	}

	// And the query path agrees across both trees.
	for _, r := range [][2]uint64{{0, total}, {3, 17}, {64, 130}, {149, 150}} {
		a, err := seqTree.Query(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		b, err := batchTree.Query(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		for e := range a {
			if a[e] != b[e] {
				t.Fatalf("Query(%d,%d) elem %d: batch %d, sequential %d", r[0], r[1], e, b[e], a[e])
			}
		}
	}
}

func TestAppendBatchValidation(t *testing.T) {
	tree, _ := newTestTree(t, Config{Fanout: 4, VectorLen: 2})
	if err := tree.AppendBatch(0, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := tree.AppendBatch(1, [][]uint64{{1, 2}}); err == nil {
		t.Error("out-of-order batch accepted")
	}
	if err := tree.AppendBatch(0, [][]uint64{{1, 2}, {3}}); err == nil {
		t.Error("wrong-length digest accepted")
	}
	if tree.Count() != 0 {
		t.Fatalf("failed batches advanced count to %d", tree.Count())
	}
	if err := tree.AppendBatch(0, [][]uint64{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	if tree.Count() != 2 {
		t.Fatalf("Count = %d, want 2", tree.Count())
	}
}

// testStore counts the write calls it sees and refuses them while down.
type testStore struct {
	kv.Store
	down             bool
	batches, singles int
}

var errStoreDown = errors.New("store down")

func (f *testStore) Put(key string, value []byte) error {
	f.singles++
	if f.down {
		return errStoreDown
	}
	return f.Store.Put(key, value)
}

func (f *testStore) Delete(key string) error {
	f.singles++
	if f.down {
		return errStoreDown
	}
	return f.Store.Delete(key)
}

func (f *testStore) Batch(ops []kv.Op) error {
	f.batches++
	if f.down {
		return errStoreDown
	}
	return f.Store.Batch(ops)
}

// TestFailedAppendLeavesTreeUntouched: an append is one store batch, and
// when the store refuses it the tree is exactly as before the call — same
// Count, same cache, same answers — so the retry folds every digest once.
// The tree has a cache, so that "same cache" is checked; an uncached tree
// keeps nothing of a node but the store's copy.
func TestFailedAppendLeavesTreeUntouched(t *testing.T) {
	mem := kv.NewMemStore()
	store := &testStore{Store: mem}
	tree, err := Open(store, "s1", Config{Fanout: 4, VectorLen: 1, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 21; i++ {
		if err := tree.Append(i, []uint64{i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := tree.Query(0, 21)
	if err != nil {
		t.Fatal(err)
	}
	_, _, usedBefore, entriesBefore := tree.CacheStats()
	keysBefore, putsBefore := mem.Len(), mem.Stats().Puts

	store.down = true
	batch := [][]uint64{{22}, {23}, {24}, {25}, {26}}
	extra := []kv.Op{{Kind: kv.OpPut, Key: "c/s1/15", Value: []byte("chunk")}}
	if err := tree.AppendBatchWith(21, batch, extra); !errors.Is(err, errStoreDown) {
		t.Fatalf("append on a refusing store: %v", err)
	}
	if err := tree.Append(21, []uint64{22}); !errors.Is(err, errStoreDown) {
		t.Fatalf("single append on a refusing store: %v", err)
	}
	if err := tree.PruneWith(1, 0, 4, nil); !errors.Is(err, errStoreDown) {
		t.Fatalf("prune on a refusing store: %v", err)
	}
	if got := tree.Count(); got != 21 {
		t.Fatalf("Count = %d after failed appends, want 21", got)
	}
	if _, _, used, entries := tree.CacheStats(); used != usedBefore || entries != entriesBefore {
		t.Fatalf("cache holds %d entries / %d B after failed appends, had %d / %d", entries, used, entriesBefore, usedBefore)
	}
	if mem.Len() != keysBefore || mem.Stats().Puts != putsBefore {
		t.Fatalf("a refused append reached the store")
	}
	after, err := tree.Query(0, 21)
	if err != nil || after[0] != before[0] {
		t.Fatalf("Query after failed appends = %v, %v; want %v", after, err, before)
	}
	if _, err := tree.Query(0, 22); err == nil {
		t.Fatal("a failed append became queryable")
	}

	// The retry lands as if nothing had happened: one batch, every ancestor
	// folded once.
	store.down = false
	if err := tree.AppendBatchWith(21, batch, extra); err != nil {
		t.Fatal(err)
	}
	control, _ := newTestTree(t, Config{Fanout: 4, VectorLen: 1})
	fill(t, control, 26)
	for _, r := range [][2]uint64{{0, 26}, {3, 25}, {16, 26}, {21, 26}} {
		got, err := tree.Query(r[0], r[1])
		want, _ := control.Query(r[0], r[1])
		if err != nil || got[0] != want[0] {
			t.Fatalf("Query(%d,%d) after the retry = %v, %v; want %v", r[0], r[1], got, err, want)
		}
	}
	if v, err := mem.Get("c/s1/15"); err != nil || string(v) != "chunk" {
		t.Fatalf("the caller's op did not ride in the batch: %q, %v", v, err)
	}
}

// TestAppendIsOneStoreCall pins the grouping: however many nodes an append
// touches, the store sees one Batch.
func TestAppendIsOneStoreCall(t *testing.T) {
	calls := &testStore{Store: kv.NewMemStore()}
	tree, err := Open(calls, "s1", Config{Fanout: 4, VectorLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Append(0, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := tree.AppendBatch(1, [][]uint64{{2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}}); err != nil {
		t.Fatal(err)
	}
	if err := tree.PruneWith(1, 0, 8, nil); err != nil {
		t.Fatal(err)
	}
	if calls.batches != 3 || calls.singles != 0 {
		t.Fatalf("2 appends and a prune made %d Batch and %d Put/Delete calls, want 3 and 0", calls.batches, calls.singles)
	}
}

// TestQueryReadsTheShorterSide: a run of siblings is read directly or as
// its parent minus the rest, whichever touches fewer nodes, with the same
// answer either way. The tree has no cache and is reopened after the
// appends, so it holds no complete inner nodes either: every node read is
// a store read.
func TestQueryReadsTheShorterSide(t *testing.T) {
	tree, store := newTestTree(t, Config{Fanout: 64, VectorLen: 1})
	fill(t, tree, 200)
	tree, err := Open(store, tree.streamID, tree.cfg)
	if err != nil {
		t.Fatal(err)
	}
	reads := func(a, b uint64) uint64 {
		t.Helper()
		before := store.Stats().Gets
		got, err := tree.Query(a, b)
		if err != nil || got[0] != rangeSum(a, b) {
			t.Fatalf("Query(%d,%d) = %v, %v; want %d", a, b, got, err, rangeSum(a, b))
		}
		return store.Stats().Gets - before
	}
	for _, c := range []struct{ a, b, nodes uint64 }{
		{1, 64, 2},     // node (1,0) minus leaf 0, not 63 leaves
		{0, 63, 2},     // node (1,0) minus leaf 63
		{3, 60, 8},     // node (1,0) minus leaves 0..2 and 60..63
		{40, 64, 24},   // 24 leaves: the other side would be 41 nodes
		{1, 130, 5},    // (1,0)-leaf 0, node (1,1), leaves 128 and 129
		{129, 200, 10}, // (1,2)-leaf 128; node (1,3) is still filling: its 8 leaves, never it
		{64, 192, 2},   // nodes (1,1) and (1,2): node (2,0) is still filling
	} {
		if got := reads(c.a, c.b); got != c.nodes {
			t.Errorf("Query(%d,%d) read %d nodes, want %d", c.a, c.b, got, c.nodes)
		}
	}
}

// TestQueryBesidePrunedNodes: when the siblings outside a run are gone (a
// rollup that was not aligned to the fanout), the run is read directly.
func TestQueryBesidePrunedNodes(t *testing.T) {
	tree, _ := newTestTree(t, Config{Fanout: 4, VectorLen: 1})
	fill(t, tree, 32)
	if err := tree.PruneWith(1, 4, 5, nil); err != nil { // removes leaf 4 only
		t.Fatal(err)
	}
	got, err := tree.Query(5, 8) // node (1,1) minus leaf 4 would be shorter
	if err != nil || got[0] != rangeSum(5, 8) {
		t.Fatalf("Query(5,8) beside a pruned leaf = %v, %v; want %d", got, err, rangeSum(5, 8))
	}
	if _, err := tree.Query(4, 8); err != nil {
		t.Fatalf("Query(4,8) is node (1,1) and needs no leaf: %v", err)
	}
	// Leaf 4 itself is gone, but node (1,1) still counts it.
	if got, err := tree.Query(4, 7); err == nil && got[0] != rangeSum(4, 7) {
		t.Fatalf("Query(4,7) = %v, want %d or an error", got, rangeSum(4, 7))
	}
	if _, err := tree.Query(4, 5); err == nil {
		t.Fatal("Query(4,5) answered without leaf 4")
	}
}
