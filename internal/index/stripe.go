package index

import "runtime"

// stripedCache shards the index-node cache across power-of-two lruCache
// segments, each with its own lock and a proportional slice of the byte
// budget. The index cache sits on every tree read and write: under the
// single mutex, concurrent queries over many streams (and the subscription
// broker's resync reads) serialize on cache bookkeeping even though the
// entries they touch are disjoint. Striping by key hash keeps the
// level-aware eviction policy — each segment evicts lowest-level-first
// within its own population — while letting unrelated lookups proceed in
// parallel.
//
// The segment count is fixed at construction (the next power of two at or
// above GOMAXPROCS, capped), so the key → segment mapping never changes
// and a key's entry lives in exactly one segment.
type stripedCache struct {
	mask uint64
	segs []*lruCache
}

// maxCacheStripes caps the segment count; minStripeBudget keeps each
// segment's budget big enough to hold a useful working set — a bounded
// cache stripes only as far as the budget allows, so the Fig. 7 tiny-cache
// runs (1 MB and below) degrade gracefully toward the single-segment
// behavior instead of splitting into segments that cannot hold one node.
const (
	maxCacheStripes = 32
	minStripeBudget = 4096
)

// newStripedCache builds a cache of nextPow2(GOMAXPROCS) segments
// splitting budget evenly (fewer when the budget is small). budget <= 0
// means unbounded. keyBase is the store-key length entries are charged on
// top of their level and index digits (see lruCache.entrySize); vecLen is
// the length of every cached vector.
func newStripedCache(budget int64, keyBase, vecLen int) *stripedCache {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < maxCacheStripes {
		n <<= 1
	}
	for budget > 0 && n > 1 && budget/int64(n) < minStripeBudget {
		n >>= 1
	}
	return newStripedCacheN(budget, keyBase, vecLen, n)
}

// newStripedCacheN builds a cache with an explicit power-of-two segment
// count (tests pin it for determinism).
func newStripedCacheN(budget int64, keyBase, vecLen, n int) *stripedCache {
	segBudget := budget
	if budget > 0 {
		segBudget = budget / int64(n)
		if segBudget <= 0 {
			segBudget = 1
		}
	}
	c := &stripedCache{mask: uint64(n - 1), segs: make([]*lruCache, n)}
	for i := range c.segs {
		c.segs[i] = newLRUCache(segBudget, keyBase, vecLen)
	}
	return c
}

// seg picks the key's segment from the high bits of a multiplicative
// (Fibonacci) mix, so that neighbouring indexes of one level — what a range
// query walks — spread over the segments.
func (c *stripedCache) seg(key uint64) *lruCache {
	return c.segs[(key*0x9E3779B97F4A7C15)>>32&c.mask]
}

func (c *stripedCache) get(key uint64, dst []uint64) bool { return c.seg(key).get(key, dst) }
func (c *stripedCache) put(key uint64, vec []uint64)      { c.seg(key).put(key, vec) }
func (c *stripedCache) remove(key uint64)                 { c.seg(key).remove(key) }

// stats sums the per-segment counters. The sums are not a consistent
// snapshot across segments — fine for the observability counters these
// feed.
func (c *stripedCache) stats() (hits, misses uint64, used int64, entries int) {
	for _, s := range c.segs {
		h, m, u, e := s.stats()
		hits += h
		misses += m
		used += u
		entries += e
	}
	return hits, misses, used, entries
}
