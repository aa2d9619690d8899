package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/kv"
)

// DefaultFanout is the paper's evaluation fanout ("we instantiate 64-ary
// index trees", §6).
const DefaultFanout = 64

// Config parameterizes one stream's aggregation tree.
type Config struct {
	// Fanout is the tree arity k (default 64).
	Fanout int
	// VectorLen is the digest vector length (elements per node).
	VectorLen int
	// CacheBytes is the LRU node-cache budget; <= 0 means unbounded.
	CacheBytes int64
	// MaxLevels caps the tree height above the leaves; 0 picks the
	// smallest height whose capacity is at least 2^36 chunks.
	MaxLevels int
}

func (c *Config) applyDefaults() error {
	if c.Fanout == 0 {
		c.Fanout = DefaultFanout
	}
	if c.Fanout < 2 {
		return fmt.Errorf("index: fanout %d < 2", c.Fanout)
	}
	if c.VectorLen < 1 {
		return fmt.Errorf("index: vector length %d < 1", c.VectorLen)
	}
	if c.MaxLevels == 0 {
		capacity := uint64(1) << 36
		levels := 1
		span := uint64(c.Fanout)
		for span < capacity {
			span *= uint64(c.Fanout)
			levels++
		}
		c.MaxLevels = levels
	}
	if c.MaxLevels > maxLevel {
		return fmt.Errorf("index: %d levels, a cache key holds at most %d", c.MaxLevels, maxLevel)
	}
	return nil
}

// Tree is one stream's time-partitioned aggregation tree, persisted in a KV
// store behind an LRU cache. Level 0 holds per-chunk digests; node
// (level, idx) holds the homomorphic sum over chunk positions
// [idx·k^level, (idx+1)·k^level). Ingest is append-only (time series are
// in-order), so updating the tree is a root-path read-modify-write.
//
// Tree is safe for concurrent use: appends serialize behind a write lock,
// queries run concurrently.
type Tree struct {
	store    kv.Store
	streamID string
	cfg      Config
	cache    *stripedCache

	mu    sync.RWMutex
	count uint64 // number of leaf digests appended
}

// Open loads (or initializes) the tree for streamID.
func Open(store kv.Store, streamID string, cfg Config) (*Tree, error) {
	if store == nil {
		return nil, errors.New("index: nil store")
	}
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	t := &Tree{store: store, streamID: streamID, cfg: cfg}
	t.cache = newStripedCache(cfg.CacheBytes, len("i/")+len(streamID)+len("//"))
	meta, err := store.Get(t.metaKey())
	switch {
	case err == nil:
		if len(meta) != 8 {
			return nil, fmt.Errorf("index: corrupt meta for stream %q", streamID)
		}
		t.count = binary.BigEndian.Uint64(meta)
		if t.count > maxChunks {
			return nil, fmt.Errorf("index: corrupt meta for stream %q: %d chunks", streamID, t.count)
		}
	case errors.Is(err, kv.ErrNotFound):
		// fresh stream
	default:
		return nil, err
	}
	return t, nil
}

// Count returns the number of chunk digests appended so far.
func (t *Tree) Count() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

// Fanout returns the tree arity.
func (t *Tree) Fanout() int { return t.cfg.Fanout }

func (t *Tree) metaKey() string { return "i/" + t.streamID + "/meta" }

// nodeKey builds the storage key for node (level, idx). Identifiers are
// computed from the node's position alone, so no references are stored
// (paper §4.6 "we compute the identifier of a node/chunk on-the-fly"). The
// cache is keyed by the position itself (cacheKey), so a node's string is
// only built when the store is involved: a cache miss or a write.
func (t *Tree) nodeKey(level int, idx uint64) string {
	b := make([]byte, 0, len(t.streamID)+24)
	b = append(b, 'i', '/')
	b = append(b, t.streamID...)
	b = append(b, '/')
	b = strconv.AppendUint(b, uint64(level), 16)
	b = append(b, '/')
	b = strconv.AppendUint(b, idx, 16)
	return string(b)
}

func encodeVec(vec []uint64) []byte {
	buf := make([]byte, 8*len(vec))
	for i, v := range vec {
		binary.BigEndian.PutUint64(buf[i*8:], v)
	}
	return buf
}

func decodeVec(data []byte, want int) ([]uint64, error) {
	if len(data) != 8*want {
		return nil, fmt.Errorf("index: node has %d bytes, want %d", len(data), 8*want)
	}
	vec := make([]uint64, want)
	for i := range vec {
		vec[i] = binary.BigEndian.Uint64(data[i*8:])
	}
	return vec, nil
}

// loadNode fetches a node vector through the cache. The returned slice is
// shared with the cache; callers must copy before mutating.
func (t *Tree) loadNode(level int, idx uint64) ([]uint64, error) {
	key := cacheKey(level, idx)
	if vec, ok := t.cache.get(key); ok {
		return vec, nil
	}
	data, err := t.store.Get(t.nodeKey(level, idx))
	if err != nil {
		return nil, err
	}
	vec, err := decodeVec(data, t.cfg.VectorLen)
	if err != nil {
		return nil, err
	}
	t.cache.put(key, vec)
	return vec, nil
}

// storeNode write-through caches and persists a node.
func (t *Tree) storeNode(level int, idx uint64, vec []uint64) error {
	if err := t.store.Put(t.nodeKey(level, idx), encodeVec(vec)); err != nil {
		return err
	}
	t.cache.put(cacheKey(level, idx), vec)
	return nil
}

// checkAppend validates that the next n digests go at pos and that their
// node indexes still fit a cache key. Caller holds t.mu.
func (t *Tree) checkAppend(pos, n uint64) error {
	if pos != t.count {
		return fmt.Errorf("index: append at position %d, expected %d", pos, t.count)
	}
	if n > maxChunks-pos {
		return fmt.Errorf("index: stream is full at %d chunks", uint64(maxChunks))
	}
	return nil
}

// Append ingests the encrypted digest for the next chunk position. pos must
// equal Count() (in-order, append-only, as the paper assumes); digest must
// have the configured vector length. The leaf is stored and every ancestor
// on the root path is updated with one homomorphic addition each.
func (t *Tree) Append(pos uint64, digest []uint64) error {
	if len(digest) != t.cfg.VectorLen {
		return fmt.Errorf("index: digest has %d elements, want %d", len(digest), t.cfg.VectorLen)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkAppend(pos, 1); err != nil {
		return err
	}
	leaf := append([]uint64(nil), digest...)
	if err := t.storeNode(0, pos, leaf); err != nil {
		return err
	}
	k := uint64(t.cfg.Fanout)
	idx := pos
	for level := 1; level <= t.cfg.MaxLevels; level++ {
		idx /= k
		cur, err := t.loadNode(level, idx)
		var next []uint64
		switch {
		case err == nil:
			next = append([]uint64(nil), cur...)
			for e := range next {
				next[e] += digest[e]
			}
		case errors.Is(err, kv.ErrNotFound):
			// A fresh ancestor's value is exactly the digest, which the
			// leaf slice already holds. Nodes are copy-on-write (updates
			// always store a fresh slice), so the cache may safely hold
			// one slice under several keys; this saves a copy per fresh
			// level on the first append into each subtree.
			next = leaf
		default:
			return err
		}
		if err := t.storeNode(level, idx, next); err != nil {
			return err
		}
	}
	t.count = pos + 1
	var meta [8]byte
	binary.BigEndian.PutUint64(meta[:], t.count)
	return t.store.Put(t.metaKey(), meta[:])
}

// AppendBatch ingests the encrypted digests for the next len(digests)
// chunk positions in one locked pass. pos must equal Count().
//
// Where N sequential Appends perform N·MaxLevels ancestor read-modify-write
// cycles and N meta writes, a batch folds every digest that lands in the
// same ancestor into one delta first, so each touched ancestor is written
// once (≈ N/k per level) and the meta key once per batch. The resulting
// node bytes are identical to N sequential Appends — modular addition is
// associative — which TestHotPathGoldenParity pins against golden store
// dumps.
func (t *Tree) AppendBatch(pos uint64, digests [][]uint64) error {
	n := uint64(len(digests))
	if n == 0 {
		return nil
	}
	for i, digest := range digests {
		if len(digest) != t.cfg.VectorLen {
			return fmt.Errorf("index: digest %d has %d elements, want %d", i, len(digest), t.cfg.VectorLen)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkAppend(pos, n); err != nil {
		return err
	}
	for i, digest := range digests {
		leaf := append([]uint64(nil), digest...)
		if err := t.storeNode(0, pos+uint64(i), leaf); err != nil {
			return err
		}
	}
	k := uint64(t.cfg.Fanout)
	// idxs[i] tracks digest i's node index at the current level; dividing
	// per level (like Append's idx /= k) sidesteps k^level overflow for
	// tall configured trees.
	idxs := make([]uint64, n)
	for i := range idxs {
		idxs[i] = pos + uint64(i)
	}
	delta := make([]uint64, t.cfg.VectorLen)
	for level := 1; level <= t.cfg.MaxLevels; level++ {
		for i := range idxs {
			idxs[i] /= k
		}
		for i := uint64(0); i < n; {
			j := i + 1
			for j < n && idxs[j] == idxs[i] {
				j++
			}
			// Fold digests [i, j) — the run landing in node idxs[i] —
			// into one delta, then apply it with a single
			// read-modify-write.
			copy(delta, digests[i])
			for x := i + 1; x < j; x++ {
				d := digests[x]
				for e := range delta {
					delta[e] += d[e]
				}
			}
			cur, err := t.loadNode(level, idxs[i])
			var next []uint64
			switch {
			case err == nil:
				next = make([]uint64, len(cur))
				for e := range cur {
					next[e] = cur[e] + delta[e]
				}
			case errors.Is(err, kv.ErrNotFound):
				next = append([]uint64(nil), delta...)
			default:
				return err
			}
			if err := t.storeNode(level, idxs[i], next); err != nil {
				return err
			}
			i = j
		}
	}
	t.count = pos + n
	var meta [8]byte
	binary.BigEndian.PutUint64(meta[:], t.count)
	return t.store.Put(t.metaKey(), meta[:])
}

// Query returns the homomorphic aggregate over chunk positions [a, b). It
// decomposes the range into maximal aligned nodes — the paper's
// O(2(k−1)·log_k n) worst case — touching as few nodes as possible.
func (t *Tree) Query(a, b uint64) ([]uint64, error) {
	t.mu.RLock()
	count := t.count
	t.mu.RUnlock()
	if a >= b {
		return nil, fmt.Errorf("index: empty query range [%d,%d)", a, b)
	}
	if b > count {
		return nil, fmt.Errorf("index: query range [%d,%d) beyond ingested data (%d chunks)", a, b, count)
	}
	agg := make([]uint64, t.cfg.VectorLen)
	k := uint64(t.cfg.Fanout)
	level := 0
	addNode := func(level int, idx uint64) error {
		vec, err := t.loadNode(level, idx)
		if err != nil {
			return fmt.Errorf("index: node (%d,%d): %w", level, idx, err)
		}
		for e := range agg {
			agg[e] += vec[e]
		}
		return nil
	}
	// The decomposition only ever selects nodes whose span lies fully
	// inside [a, b) ⊆ [0, count), so partially-filled trailing nodes are
	// never read: every selected node holds the complete sum of its span.
	for a < b {
		for a%k != 0 && a < b {
			if err := addNode(level, a); err != nil {
				return nil, err
			}
			a++
		}
		for b%k != 0 && a < b {
			b--
			if err := addNode(level, b); err != nil {
				return nil, err
			}
		}
		if a >= b {
			break
		}
		if level == t.cfg.MaxLevels {
			// Cannot climb further; sweep remaining nodes here.
			for ; a < b; a++ {
				if err := addNode(level, a); err != nil {
					return nil, err
				}
			}
			break
		}
		a /= k
		b /= k
		level++
	}
	return agg, nil
}

// QueryWindows aggregates [a, b) into consecutive windows of f chunks and
// returns one aggregate per window. b−a must be a multiple of f. This
// serves resolution-restricted principals and granularity queries (Fig. 8):
// each window decrypts with a single outer-leaf pair.
func (t *Tree) QueryWindows(a, b, f uint64) ([][]uint64, error) {
	if f == 0 {
		return nil, errors.New("index: zero window size")
	}
	if (b-a)%f != 0 {
		return nil, fmt.Errorf("index: range [%d,%d) not a multiple of window %d", a, b, f)
	}
	out := make([][]uint64, 0, (b-a)/f)
	for w := a; w < b; w += f {
		vec, err := t.Query(w, w+f)
		if err != nil {
			return nil, err
		}
		out = append(out, vec)
	}
	return out, nil
}

// Prune removes index nodes below the given level for chunk positions
// [a, b): TimeCrypt's data decay / rollup support (§4.5 "Data decay").
// Coarser statistics (level and above) remain queryable; finer granularity
// in the pruned range is gone. a and b should be aligned to k^level or the
// adjacent partially-covered nodes are preserved.
func (t *Tree) Prune(level int, a, b uint64) error {
	if level < 1 || level > t.cfg.MaxLevels {
		return fmt.Errorf("index: prune level %d out of range [1,%d]", level, t.cfg.MaxLevels)
	}
	if b > maxChunks {
		return fmt.Errorf("index: prune range [%d,%d) beyond the %d chunks a stream can hold", a, b, uint64(maxChunks))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	span := uint64(1)
	k := uint64(t.cfg.Fanout)
	for l := 0; l < level; l++ {
		lo, hi := a/span, b/span // node index range at level l
		for idx := lo; idx*span < b && idx < hi; idx++ {
			if err := t.store.Delete(t.nodeKey(l, idx)); err != nil {
				return err
			}
			t.cache.remove(cacheKey(l, idx))
		}
		span *= k
	}
	return nil
}

// CacheStats reports LRU cache effectiveness for benchmarks.
func (t *Tree) CacheStats() (hits, misses uint64, usedBytes int64, entries int) {
	return t.cache.stats()
}

// LevelSpan returns k^level, the number of chunk positions one node at the
// given level covers; callers use it to align rollups.
func (t *Tree) LevelSpan(level int) uint64 {
	span := uint64(1)
	for l := 0; l < level; l++ {
		span *= uint64(t.cfg.Fanout)
	}
	return span
}
