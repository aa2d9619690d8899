package index

import (
	"math/rand/v2"
	"sync"
	"testing"
)

// A striped cache must behave like one cache: what goes in comes out,
// removal removes, and the byte budget bounds the total.
func TestStripedCacheBasics(t *testing.T) {
	c := newStripedCacheN(0, 0, 1, 8)
	key := func(i int) uint64 { return cacheKey(i%4, uint64(i)) }
	for i := 0; i < 100; i++ {
		c.put(key(i), []uint64{uint64(i)})
	}
	vec := make([]uint64, 1)
	for i := 0; i < 100; i++ {
		if ok := c.get(key(i), vec); !ok || vec[0] != uint64(i) {
			t.Fatalf("k%d: got %v ok=%v", i, vec, ok)
		}
	}
	_, _, _, entries := c.stats()
	if entries != 100 {
		t.Fatalf("entries %d, want 100", entries)
	}
	c.remove(key(42))
	if c.get(key(42), vec) {
		t.Fatal("removed key still cached")
	}
	// Replacement under the same key must not duplicate.
	c.put(key(1), []uint64{7})
	if ok := c.get(key(1), vec); !ok || vec[0] != 7 {
		t.Fatalf("replaced k1: %v ok=%v", vec, ok)
	}
	_, _, _, entries = c.stats()
	if entries != 99 {
		t.Fatalf("entries %d, want 99", entries)
	}
}

// Each segment enforces its share of the budget, so the striped total
// stays bounded.
func TestStripedCacheBudgetBounded(t *testing.T) {
	const budget = 64 << 10
	c := newStripedCacheN(budget, 0, 4, 8)
	for i := uint64(0); i < 4096; i++ {
		c.put(cacheKey(0, i), []uint64{1, 2, 3, 4})
	}
	_, _, used, entries := c.stats()
	if used > budget {
		t.Fatalf("used %d over budget %d", used, budget)
	}
	if entries == 0 {
		t.Fatal("everything evicted")
	}
}

// Tiny budgets fall back toward fewer (down to one) segments rather than
// splitting into segments too small to hold a node.
func TestStripedCacheTinyBudgetFallsBack(t *testing.T) {
	c := newStripedCache(512, 0, 1)
	if len(c.segs) != 1 {
		t.Fatalf("512-byte budget striped %d ways", len(c.segs))
	}
	if u := newStripedCache(0, 0, 1); len(u.segs) < 1 {
		t.Fatal("unbounded cache has no segments")
	}
}

// The hammer: concurrent get/put/remove over a shared key space, run
// under -race. The single-lock cache serialized this workload; the
// striped cache must stay correct while allowing the parallelism, and a
// vector copied out must never mix two puts (a put writes x and ^x).
func TestStripedCacheConcurrentHammer(t *testing.T) {
	c := newStripedCacheN(256<<10, 0, 2, 8)
	const (
		workers = 8
		keys    = 512
		ops     = 4000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
			vec := make([]uint64, 2)
			for i := 0; i < ops; i++ {
				idx := rng.Uint64N(keys)
				k := cacheKey(int(idx%5), idx)
				switch rng.Uint64N(10) {
				case 0:
					c.remove(k)
				case 1, 2, 3:
					x := rng.Uint64()
					c.put(k, []uint64{x, ^x})
				default:
					if c.get(k, vec) && vec[1] != ^vec[0] {
						t.Errorf("key %#x: cached vector %x mixes two puts", k, vec)
						return
					}
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	hits, misses, used, entries := c.stats()
	if hits+misses == 0 {
		t.Fatal("hammer recorded no cache traffic")
	}
	if used < 0 {
		t.Fatalf("negative used bytes %d (accounting race)", used)
	}
	if entries < 0 || entries > keys {
		t.Fatalf("implausible entry count %d", entries)
	}
}
