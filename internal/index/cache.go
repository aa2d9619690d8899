// Package index implements TimeCrypt's server-side statistical index: a
// time-partitioned k-ary aggregation tree over HEAC-encrypted chunk digests
// (paper §4.5, Fig. 4). Because HEAC ciphertexts are plain uint64 vectors,
// the server aggregates them with native modular additions — the property
// that makes the encrypted index as fast and as small as a plaintext one.
package index

import (
	"math/bits"
	"sync"
)

// A cache key names one node of the owning tree: its level in the top
// levelBits bits, its index in the rest. The cache belongs to one Tree, so
// the stream ID that prefixes the node's store key would be the same in
// every entry; a lookup hashes one integer and builds no string.
const (
	levelBits = 8
	idxBits   = 64 - levelBits
	// maxLevel and maxIdx are the largest level and node index a key can
	// hold, maxChunks the number of leaf positions. The derived height
	// stays far below maxLevel even at fanout 2; Open and Append refuse
	// counts past maxChunks.
	maxLevel  = 1<<levelBits - 1
	maxIdx    = 1<<idxBits - 1
	maxChunks = 1 << idxBits
)

func cacheKey(level int, idx uint64) uint64 { return uint64(level)<<idxBits | idx }

func keyLevel(key uint64) int { return int(key >> idxBits) }

// hexLen is the number of digits strconv.AppendUint(_, x, 16) writes.
func hexLen(x uint64) int { return max(1, (bits.Len64(x)+3)/4) }

// lruCache is a byte-budgeted, level-aware cache for index nodes (the
// paper's in-memory index with an explicit cache size; the Fig. 7 "S"
// experiments shrink it to 1 MB). A budget <= 0 means unbounded.
//
// Eviction is by tree level first, LRU within a level: low-level nodes
// (leaves and near-leaves) go before high-level nodes. High-level nodes are
// on the root path of every append and in the decomposition of most
// queries, so a plain LRU lets one-shot leaf traffic flush exactly the
// entries that would have been reused; level-aware eviction keeps the hot
// top of the tree resident even under tiny budgets.
type lruCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	keyBase int       // store-key bytes shared by every node: "i/<stream>//"
	levels  []lruList // per-level LRU list, indexed by level
	items   map[uint64]*lruEntry

	hits   uint64
	misses uint64
}

// lruEntry is one cached node, linked into its level's list.
type lruEntry struct {
	key        uint64
	vec        []uint64
	prev, next *lruEntry
}

// lruList is a doubly linked list through the entries themselves; front is
// the most recently used.
type lruList struct{ front, back *lruEntry }

func (l *lruList) pushFront(e *lruEntry) {
	e.prev, e.next = nil, l.front
	if l.front != nil {
		l.front.prev = e
	} else {
		l.back = e
	}
	l.front = e
}

func (l *lruList) remove(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *lruList) moveToFront(e *lruEntry) {
	if l.front != e {
		l.remove(e)
		l.pushFront(e)
	}
}

func newLRUCache(budget int64, keyBase int) *lruCache {
	return &lruCache{budget: budget, keyBase: keyBase, items: make(map[uint64]*lruEntry)}
}

// entrySize is what an entry counts against the budget: the bytes of the
// node's store key (which the integer-keyed cache no longer holds, but the
// budget's meaning — how many nodes a given CacheBytes keeps — must not
// shift under operators), the vector, and a bookkeeping estimate.
func (c *lruCache) entrySize(key uint64, vec []uint64) int64 {
	keyLen := c.keyBase + hexLen(uint64(keyLevel(key))) + hexLen(key&maxIdx)
	return int64(keyLen) + int64(8*len(vec)) + 64
}

// get returns a copy-free reference to the cached vector. Callers must not
// mutate it; use put for read-modify-write.
func (c *lruCache) get(key uint64) ([]uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	if c.budget > 0 {
		// An unbounded cache never evicts: it keeps no recency order, and
		// a hit writes to no entry but the counters.
		c.levels[keyLevel(key)].moveToFront(ent)
	}
	return ent.vec, true
}

// put inserts or replaces key's vector (which the cache takes ownership
// of), then evicts over-budget entries lowest level first.
func (c *lruCache) put(key uint64, vec []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	level := keyLevel(key)
	if ent, ok := c.items[key]; ok {
		c.used += c.entrySize(key, vec) - c.entrySize(key, ent.vec)
		ent.vec = vec
		c.levels[level].moveToFront(ent)
	} else {
		for len(c.levels) <= level {
			c.levels = append(c.levels, lruList{})
		}
		ent := &lruEntry{key: key, vec: vec}
		c.items[key] = ent
		c.levels[level].pushFront(ent)
		c.used += c.entrySize(key, vec)
	}
	if c.budget > 0 {
		for c.used > c.budget && len(c.items) > 0 {
			c.evictOne()
		}
	}
}

// evictOne removes the LRU entry of the lowest non-empty level.
func (c *lruCache) evictOne() {
	for level := range c.levels {
		if back := c.levels[level].back; back != nil {
			c.drop(back)
			return
		}
	}
}

// drop unlinks an entry and returns its bytes to the budget.
func (c *lruCache) drop(ent *lruEntry) {
	c.levels[keyLevel(ent.key)].remove(ent)
	delete(c.items, ent.key)
	c.used -= c.entrySize(ent.key, ent.vec)
}

// remove drops key if present.
func (c *lruCache) remove(key uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.items[key]; ok {
		c.drop(ent)
	}
}

// stats returns hit/miss counters and current usage.
func (c *lruCache) stats() (hits, misses uint64, used int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.used, len(c.items)
}
