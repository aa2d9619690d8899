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
	// hold, MaxChunks the number of leaf positions a stream can hold. The
	// derived height stays far below maxLevel even at fanout 2; Open and
	// Append refuse counts past MaxChunks.
	maxLevel  = 1<<levelBits - 1
	maxIdx    = 1<<idxBits - 1
	MaxChunks = 1 << idxBits
)

func cacheKey(level int, idx uint64) uint64 { return uint64(level)<<idxBits | idx }

func keyLevel(key uint64) int { return int(key >> idxBits) }

// hexLen is the number of digits appendHex writes for x.
func hexLen(x uint64) int { return max(1, (bits.Len64(x)+3)/4) }

// appendHex appends x in lower-case hexadecimal without leading zeros,
// the digits strconv.AppendUint(b, x, 16) appends. It runs in a small
// frame: strconv's 65-byte digit buffer made a node read grow the stack of
// the fresh goroutine each request runs on.
func appendHex(b []byte, x uint64) []byte {
	for shift := 4 * (hexLen(x) - 1); shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[x>>shift&0xf])
	}
	return b
}

// lruCache is a byte-budgeted, level-aware cache for index nodes (the
// paper's in-memory index with an explicit cache size; the Fig. 7 "S"
// experiments shrink it to 1 MB). The budget is positive: a tree without
// one reads its nodes in place from the store and has no cache.
//
// Eviction is by tree level first, LRU within a level: low-level nodes
// (leaves and near-leaves) go before high-level nodes. High-level nodes are
// on the root path of every append and in the decomposition of most
// queries, so a plain LRU lets one-shot leaf traffic flush exactly the
// entries that would have been reused; level-aware eviction keeps the hot
// top of the tree resident even under tiny budgets.
//
// No entry holds a Go pointer. A node lives in a slot: its vector in a
// slab's vecs, its key and recency links in the slab's meta, and the map
// names it by slot id. The collector marks the cache's slabs, not its
// entries, though an ingest caches a leaf and its ancestors per chunk.
// Vectors are copied in by put and out by get under the cache's lock,
// so no reference escapes and a slot is reused as soon as it is freed.
type lruCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	keyBase int       // store-key bytes shared by every node: "i/<stream>//"
	vecLen  int       // elements per node vector
	levels  []lruList // per-level LRU list, indexed by level
	items   map[uint64]int32
	slabs   []slab
	slots   int   // slots in all slabs
	free    int32 // free slots, linked through meta.next

	hits   uint64
	misses uint64
}

// A slot id is its slab's number above slotBits and its offset in the slab
// below. A new slab holds a sixteenth of the slots so far, between minSlab
// and 1<<slotBits: as with MemStore's pages, the unfilled slab costs at
// most ~6 % over the cached nodes, and a cache of a few hundred nodes (a
// query-range or mixed-fig7 stream) does not pay for a full-size slab.
// docs/PERFORMANCE.md has the sizings measured against this one.
const (
	slotBits     = 10
	minSlab      = 8
	slabFraction = 16
	noSlot       = int32(-1)
)

// slab holds the vectors and the bookkeeping of a run of slots.
type slab struct {
	vecs []uint64 // vecLen elements per slot
	meta []slotMeta
}

// slotMeta is a slot's key and its links in its level's list (or, for a
// free slot, in the free list).
type slotMeta struct {
	key        uint64
	prev, next int32
}

// lruList is a doubly linked list through the slots; front is the most
// recently used.
type lruList struct{ front, back int32 }

func newLRUCache(budget int64, keyBase, vecLen int) *lruCache {
	return &lruCache{budget: budget, keyBase: keyBase, vecLen: vecLen, items: make(map[uint64]int32), free: noSlot}
}

func (c *lruCache) meta(id int32) *slotMeta {
	return &c.slabs[id>>slotBits].meta[id&(1<<slotBits-1)]
}

func (c *lruCache) vec(id int32) []uint64 {
	off := int(id&(1<<slotBits-1)) * c.vecLen
	return c.slabs[id>>slotBits].vecs[off : off+c.vecLen : off+c.vecLen]
}

// alloc takes a free slot, adding a slab when there is none.
func (c *lruCache) alloc() int32 {
	if c.free == noSlot {
		n := min(max(c.slots/slabFraction, minSlab), 1<<slotBits)
		s := slab{vecs: make([]uint64, n*c.vecLen), meta: make([]slotMeta, n)}
		base := int32(len(c.slabs)) << slotBits
		for i := range s.meta {
			s.meta[i].next = base | int32(i+1)
		}
		s.meta[n-1].next = noSlot
		c.slabs = append(c.slabs, s)
		c.slots += n
		c.free = base
	}
	id := c.free
	c.free = c.meta(id).next
	return id
}

func (c *lruCache) pushFront(l *lruList, id int32) {
	m := c.meta(id)
	m.prev, m.next = noSlot, l.front
	if l.front != noSlot {
		c.meta(l.front).prev = id
	} else {
		l.back = id
	}
	l.front = id
}

func (c *lruCache) unlink(l *lruList, id int32) {
	m := c.meta(id)
	if m.prev != noSlot {
		c.meta(m.prev).next = m.next
	} else {
		l.front = m.next
	}
	if m.next != noSlot {
		c.meta(m.next).prev = m.prev
	} else {
		l.back = m.prev
	}
}

func (c *lruCache) moveToFront(l *lruList, id int32) {
	if l.front != id {
		c.unlink(l, id)
		c.pushFront(l, id)
	}
}

// entrySize is what an entry counts against the budget: the bytes of the
// node's store key (which the integer-keyed cache no longer holds, but the
// budget's meaning — how many nodes a given CacheBytes keeps — must not
// shift under operators), the vector, and a bookkeeping estimate.
func (c *lruCache) entrySize(key uint64) int64 {
	keyLen := c.keyBase + hexLen(uint64(keyLevel(key))) + hexLen(key&maxIdx)
	return int64(keyLen) + int64(8*c.vecLen) + 64
}

// get copies key's vector into dst (vecLen elements) and reports whether
// it was cached.
func (c *lruCache) get(key uint64, dst []uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.items[key]
	if !ok {
		c.misses++
		return false
	}
	c.hits++
	c.moveToFront(&c.levels[keyLevel(key)], id)
	copy(dst, c.vec(id))
	return true
}

// put inserts or replaces key's vector (copying vec, vecLen elements),
// then evicts over-budget entries lowest level first.
func (c *lruCache) put(key uint64, vec []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.items[key]
	if !ok {
		id = c.alloc()
		c.meta(id).key = key
		c.items[key] = id
		c.used += c.entrySize(key)
	}
	copy(c.vec(id), vec)
	level := keyLevel(key)
	for len(c.levels) <= level {
		c.levels = append(c.levels, lruList{noSlot, noSlot})
	}
	if ok {
		c.moveToFront(&c.levels[level], id)
	} else {
		c.pushFront(&c.levels[level], id)
	}
	for c.used > c.budget && len(c.items) > 0 {
		c.evictOne()
	}
}

// evictOne removes the LRU entry of the lowest non-empty level.
func (c *lruCache) evictOne() {
	for level := range c.levels {
		if back := c.levels[level].back; back != noSlot {
			c.drop(back)
			return
		}
	}
}

// drop unlinks an entry, returns its bytes to the budget and its slot to
// the free list.
func (c *lruCache) drop(id int32) {
	m := c.meta(id)
	c.unlink(&c.levels[keyLevel(m.key)], id)
	delete(c.items, m.key)
	c.used -= c.entrySize(m.key)
	m.next = c.free
	c.free = id
}

// remove drops key if present.
func (c *lruCache) remove(key uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id, ok := c.items[key]; ok {
		c.drop(id)
	}
}

// stats returns hit/miss counters and current usage.
func (c *lruCache) stats() (hits, misses uint64, used int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.used, len(c.items)
}
