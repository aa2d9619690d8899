package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

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
	// CacheBytes is the node cache's budget. <= 0 means no cache: the
	// leaves are read in place from the store, which serves reads from
	// memory (MemStore, and durable.Store through its mirror), so a cache
	// would only hold a second copy; the complete nodes above them, one in
	// k−1 of the tree, are kept in per-level arrays (innerNodes). A
	// positive budget puts a level-aware LRU of that many bytes in front of
	// the store instead, as the paper's Fig. 7 "S" experiments do.
	CacheBytes int64
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
	return nil
}

// treeLevels is the tree height above the leaves for a fanout: the
// smallest whose capacity is at least 2^36 chunks.
func treeLevels(fanout int) int {
	levels := 1
	for span := uint64(fanout); span < 1<<36; span *= uint64(fanout) {
		levels++
	}
	return levels
}

// Tree is one stream's time-partitioned aggregation tree, persisted in a KV
// store and read where the store keeps it: on a kv.ShallowGetter a leaf is
// decoded straight from the store's own bytes. A tree without a cache keeps
// its complete inner nodes in arrays of its own (innerNodes); one with a
// positive CacheBytes keeps copies of nodes in an LRU instead. Level 0
// holds per-chunk digests; node
// (level, idx) holds the homomorphic sum over chunk positions
// [idx·k^level, (idx+1)·k^level). Ingest is append-only (time series are
// in-order), so updating the tree is a root-path read-modify-write.
//
// Tree is safe for concurrent use: appends serialize behind a write lock,
// queries run concurrently.
type Tree struct {
	store    kv.Store
	shallow  kv.ShallowGetter // store's copy-free read, or nil
	streamID string
	cfg      Config
	levels   int       // treeLevels(cfg.Fanout)
	cache    *lruCache // nil when cfg.CacheBytes <= 0
	// inner is the complete inner nodes of a tree without a cache: nil
	// until one is complete, and always with a cache.
	inner atomic.Pointer[innerNodes]

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
	t := &Tree{store: store, streamID: streamID, cfg: cfg, levels: treeLevels(cfg.Fanout)}
	t.shallow, _ = store.(kv.ShallowGetter)
	if cfg.CacheBytes > 0 {
		t.cache = newLRUCache(cfg.CacheBytes, len("i/")+len(streamID)+len("//"), cfg.VectorLen)
	}
	meta, err := store.Get(t.metaKey())
	switch {
	case err == nil:
		if len(meta) != 8 {
			return nil, fmt.Errorf("index: corrupt meta for stream %q", streamID)
		}
		t.count = binary.BigEndian.Uint64(meta)
		if t.count > MaxChunks {
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

func (t *Tree) metaKey() string { return "i/" + t.streamID + "/meta" }

// appendNodeKey appends the storage key of node (level, idx) to b:
// "i/<stream>/<level>/<idx>", both numbers in hex. Identifiers are computed
// from the node's position alone, so no references are stored (paper §4.6
// "we compute the identifier of a node/chunk on-the-fly").
func (t *Tree) appendNodeKey(b []byte, level int, idx uint64) []byte {
	b = append(b, 'i', '/')
	b = append(b, t.streamID...)
	b = append(b, '/')
	b = appendHex(b, uint64(level))
	b = append(b, '/')
	return appendHex(b, idx)
}

// nodeKey is node (level, idx)'s storage key as a string of its own, for
// the store to keep (a write or a delete).
func (t *Tree) nodeKey(level int, idx uint64) string {
	var buf [64]byte
	return string(t.appendNodeKey(buf[:0], level, idx))
}

// loadNode reads node (level, idx) into dst (VectorLen elements): a cache
// hit if the tree has a cache, else the node decoded from the store's
// bytes. key is the caller's scratch for the node's store key, kept across
// reads so one call's reads build their keys in one buffer.
func (t *Tree) loadNode(level int, idx uint64, dst []uint64, key *[]byte) error {
	if t.cache != nil && t.cache.get(cacheKey(level, idx), dst) {
		return nil
	}
	if err := t.readNode(level, idx, dst, key); err != nil {
		return err
	}
	if t.cache != nil {
		t.cache.put(cacheKey(level, idx), dst)
	}
	return nil
}

// loadComplete is loadNode for a complete node, the only kind a query
// reads: a tree without a cache holds it in memory if an append completed
// it since the tree was opened.
func (t *Tree) loadComplete(level int, idx uint64, dst []uint64, key *[]byte) error {
	if vec, ok := t.inner.Load().get(level, idx, len(dst)); ok {
		copy(dst, vec)
		return nil
	}
	return t.loadNode(level, idx, dst, key)
}

// readNode decodes node (level, idx) from the store into dst.
func (t *Tree) readNode(level int, idx uint64, dst []uint64, key *[]byte) error {
	*key = t.appendNodeKey((*key)[:0], level, idx)
	var data []byte
	var err error
	if t.shallow != nil {
		// The store keeps no reference to the key (ShallowGetter's
		// contract), so it may be the scratch bytes themselves.
		data, err = t.shallow.GetShallow(unsafe.String(unsafe.SliceData(*key), len(*key)))
	} else {
		data, err = t.store.Get(string(*key))
	}
	if err != nil {
		return err
	}
	if len(data) != 8*len(dst) {
		return fmt.Errorf("index: node has %d bytes, want %d", len(data), 8*len(dst))
	}
	for i := range dst {
		dst[i] = binary.BigEndian.Uint64(data[i*8:])
	}
	return nil
}

// stage is the scratch one append builds its store batch in: the ops, the
// encoded node values the ops point into, the ancestor sums (which the
// tree copies into its cache, or its complete inner nodes, once the batch
// is in the store) and the key of the node being read. Stages are pooled
// per process — an open stream owns none — and an op's Value is only valid
// until release.
type stage struct {
	ops   []kv.Op
	buf   []byte
	nodes []stagedNode
	vecs  []uint64 // the staged ancestors' vectors, back to back
	idxs  []uint64
	delta []uint64
	key   []byte
}

type stagedNode struct {
	level int
	idx   uint64
	off   int // the vector's offset in vecs
}

var stagePool = sync.Pool{New: func() any { return new(stage) }}

// put stages the store write of one node.
func (st *stage) put(t *Tree, level int, idx uint64, vec []uint64) {
	off := len(st.buf)
	for _, v := range vec {
		st.buf = binary.BigEndian.AppendUint64(st.buf, v)
	}
	st.ops = append(st.ops, kv.Op{Kind: kv.OpPut, Key: t.nodeKey(level, idx), Value: st.buf[off:len(st.buf):len(st.buf)]})
}

// release returns the stage to the pool without the keys and values it
// pointed at.
func (st *stage) release() {
	clear(st.ops)
	st.ops, st.nodes, st.vecs, st.buf = st.ops[:0], st.nodes[:0], st.vecs[:0], st.buf[:0]
	stagePool.Put(st)
}

// checkAppend validates that the next n digests go at pos and that their
// node indexes still fit a cache key. Caller holds t.mu.
func (t *Tree) checkAppend(pos, n uint64) error {
	if pos != t.count {
		return fmt.Errorf("index: append at position %d, expected %d", pos, t.count)
	}
	if n > MaxChunks-pos {
		return fmt.Errorf("index: stream is full at %d chunks", uint64(MaxChunks))
	}
	return nil
}

// Append ingests the encrypted digest for the next chunk position: an
// AppendBatch of one.
func (t *Tree) Append(pos uint64, digest []uint64) error {
	return t.AppendBatchWith(pos, [][]uint64{digest}, nil)
}

// AppendBatch ingests the encrypted digests for the next len(digests)
// chunk positions. pos must equal Count() (in-order, append-only, as the
// paper assumes); every digest must have the configured vector length.
func (t *Tree) AppendBatch(pos uint64, digests [][]uint64) error {
	return t.AppendBatchWith(pos, digests, nil)
}

// AppendBatchWith is AppendBatch with the caller's own ops (the engine's
// chunk puts and staged-record deletes) committed in the same store batch
// as the leaves, the ancestors and the meta key: one store.Batch call per
// append, whatever its size — on a durable store one WAL record, recovered
// all or nothing. The cache and Count() advance only after that call
// returned nil, so a failed append leaves the store and the tree exactly
// as they were.
//
// Every digest that lands in the same ancestor is folded into one delta
// first, so each touched ancestor is read and staged once (≈ N/k per level)
// and nothing staged is read back inside one call. The resulting node bytes
// are identical to N appends of one digest — modular addition is
// associative — which TestHotPathGoldenParity pins against golden store
// dumps.
func (t *Tree) AppendBatchWith(pos uint64, digests [][]uint64, extra []kv.Op) error {
	n := uint64(len(digests))
	for i, digest := range digests {
		if len(digest) != t.cfg.VectorLen {
			return fmt.Errorf("index: digest %d has %d elements, want %d", i, len(digest), t.cfg.VectorLen)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n == 0 {
		return t.store.Batch(extra) // nothing to index: the caller's ops alone
	}
	if err := t.checkAppend(pos, n); err != nil {
		return err
	}
	st := stagePool.Get().(*stage)
	defer st.release()
	st.ops = append(st.ops, extra...)
	for i, digest := range digests {
		st.put(t, 0, pos+uint64(i), digest)
	}
	k := uint64(t.cfg.Fanout)
	// idxs[i] tracks digest i's node index at the current level; dividing
	// per level sidesteps k^level overflow for tall configured trees.
	idxs := st.idxs[:0]
	for i := uint64(0); i < n; i++ {
		idxs = append(idxs, pos+i)
	}
	st.idxs = idxs
	v := t.cfg.VectorLen
	if cap(st.delta) < v {
		st.delta = make([]uint64, v)
	}
	delta := st.delta[:v]
	for level := 1; level <= t.levels; level++ {
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
			// read-modify-write into the stage's own copy of the node.
			copy(delta, digests[i])
			for x := i + 1; x < j; x++ {
				d := digests[x]
				for e := range delta {
					delta[e] += d[e]
				}
			}
			off := len(st.vecs)
			st.vecs = slices.Grow(st.vecs, v)[:off+v]
			next := st.vecs[off:]
			switch err := t.loadNode(level, idxs[i], next, &st.key); {
			case err == nil:
				for e := range next {
					next[e] += delta[e]
				}
			case errors.Is(err, kv.ErrNotFound):
				copy(next, delta)
			default:
				return err
			}
			st.put(t, level, idxs[i], next)
			st.nodes = append(st.nodes, stagedNode{level, idxs[i], off})
			i = j
		}
	}
	off := len(st.buf)
	st.buf = binary.BigEndian.AppendUint64(st.buf, pos+n)
	st.ops = append(st.ops, kv.Op{Kind: kv.OpPut, Key: t.metaKey(), Value: st.buf[off:]})
	if err := t.store.Batch(st.ops); err != nil {
		return err
	}
	if t.cache != nil {
		for i, digest := range digests {
			t.cache.put(cacheKey(0, pos+uint64(i)), digest)
		}
		for _, nd := range st.nodes {
			t.cache.put(cacheKey(nd.level, nd.idx), st.vecs[nd.off:nd.off+v])
		}
	} else {
		t.addComplete(st, pos+n)
	}
	t.count = pos + n
	return nil
}

// addComplete adds the staged ancestors that count chunks complete to the
// tree's complete inner nodes. Caller holds t.mu.
func (t *Tree) addComplete(st *stage, count uint64) {
	in := t.inner.Load()
	published := true // in is the published version
	v := t.cfg.VectorLen
	full, level := count, 0
	for _, nd := range st.nodes {
		for ; level < nd.level; level++ {
			full /= uint64(t.cfg.Fanout)
		}
		if nd.idx >= full {
			continue
		}
		slot := in.slot(nd.level, nd.idx, v)
		if slot == nil {
			if published {
				in, published = in.clone(), false
			}
			in.grow(nd.level, nd.idx, v)
			slot = in.slot(nd.level, nd.idx, v)
		}
		copy(slot, st.vecs[nd.off:nd.off+v])
	}
	if !published {
		t.inner.Store(in)
	}
}

// Query returns the homomorphic aggregate over chunk positions [a, b). It
// decomposes the range into maximal aligned nodes — the paper's
// O(2(k−1)·log_k n) worst case — and reads each level's partial run of
// siblings whichever way touches fewer nodes: the run itself, or its parent
// minus the siblings outside the run (digests add modulo 2^64, so they
// subtract exactly). That halves the worst case to k+1 nodes per level.
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
	v := t.cfg.VectorLen
	buf := make([]uint64, 3*v)
	agg, scratch, node := buf[:v:v], buf[v:2*v:2*v], buf[2*v:]
	key := make([]byte, 0, len("i//ff/ffffffffffffff")+len(t.streamID)) // the longest level and index
	k := uint64(t.cfg.Fanout)
	// full is the number of nodes of the current level whose whole span is
	// below count. Appends only ever touch nodes past that, so every node
	// read here is final: the decomposition selects only nodes inside
	// [a, b) ⊆ [0, count), and a parent is subtracted from only when it is
	// itself full (then so are all its children).
	full := count
	// addRun adds the sibling nodes [x, y) of one level.
	addRun := func(level int, x, y uint64) error {
		if level < t.levels && x/k < full/k && k-(y-x)+1 < y-x && t.aroundRun(scratch, node, &key, level, x, y) {
			for e := range agg {
				agg[e] += scratch[e]
			}
			return nil
		}
		for i := x; i < y; i++ {
			if err := t.loadComplete(level, i, node, &key); err != nil {
				return fmt.Errorf("index: node (%d,%d): %w", level, i, err)
			}
			for e := range agg {
				agg[e] += node[e]
			}
		}
		return nil
	}
	for level := 0; a < b; level++ {
		if level == t.levels || a/k == (b-1)/k {
			// The top level, or one parent's children: one last run.
			if err := addRun(level, a, b); err != nil {
				return nil, err
			}
			break
		}
		if a%k != 0 {
			end := (a/k + 1) * k
			if err := addRun(level, a, end); err != nil {
				return nil, err
			}
			a = end
		}
		if b%k != 0 {
			start := b / k * k
			if err := addRun(level, start, b); err != nil {
				return nil, err
			}
			b = start
		}
		a /= k
		b /= k
		full /= k
	}
	return agg, nil
}

// aroundRun computes the sum of the sibling nodes [x, y) of one level into
// dst as their parent minus the siblings outside the run, reading each
// sibling into node (key is loadNode's scratch). It reports false when a
// node it needs is missing (a rollup pruned it), leaving the caller to
// read the run itself.
func (t *Tree) aroundRun(dst, node []uint64, key *[]byte, level int, x, y uint64) bool {
	k := uint64(t.cfg.Fanout)
	p := x / k
	if t.loadComplete(level+1, p, dst, key) != nil {
		return false
	}
	for i := p * k; i < (p+1)*k; i++ {
		if i == x {
			i = y - 1 // skip the run
			continue
		}
		if t.loadComplete(level, i, node, key) != nil {
			return false
		}
		for e := range dst {
			dst[e] -= node[e]
		}
	}
	return true
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

// PruneWith removes index nodes below the given level for chunk positions
// [a, b): TimeCrypt's data decay / rollup support (§4.5 "Data decay").
// Coarser statistics (level and above) remain queryable; finer granularity
// in the pruned range is gone. a and b should be aligned to k^level or the
// adjacent partially-covered nodes are preserved. The caller's own ops (a
// rollup's chunk deletes) are committed in the same store batch as the
// node deletes; a tree's cache drops the nodes only after that batch
// returned nil.
func (t *Tree) PruneWith(level int, a, b uint64, extra []kv.Op) error {
	if level < 1 || level > t.levels {
		return fmt.Errorf("index: prune level %d out of range [1,%d]", level, t.levels)
	}
	if b > MaxChunks {
		return fmt.Errorf("index: prune range [%d,%d) beyond the %d chunks a stream can hold", a, b, uint64(MaxChunks))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// pruned visits every node the prune removes.
	pruned := func(visit func(l int, idx uint64)) {
		span := uint64(1)
		for l := 0; l < level; l++ {
			lo, hi := a/span, b/span // node index range at level l
			for idx := lo; idx*span < b && idx < hi; idx++ {
				visit(l, idx)
			}
			span *= uint64(t.cfg.Fanout)
		}
	}
	ops := extra
	pruned(func(l int, idx uint64) {
		ops = append(ops, kv.Op{Kind: kv.OpDelete, Key: t.nodeKey(l, idx)})
	})
	if err := t.store.Batch(ops); err != nil {
		return err
	}
	if t.cache != nil {
		pruned(func(l int, idx uint64) { t.cache.remove(cacheKey(l, idx)) })
	} else if level > 1 {
		in := t.inner.Load().clone()
		pruned(func(l int, idx uint64) {
			if l > 0 {
				in.prune(l, idx)
			}
		})
		t.inner.Store(in)
	}
	return nil
}

// CacheStats reports the node cache's effectiveness for benchmarks; a tree
// without a cache reads zero.
func (t *Tree) CacheStats() (hits, misses uint64, usedBytes int64, entries int) {
	if t.cache == nil {
		return 0, 0, 0, 0
	}
	return t.cache.stats()
}

// LevelSpan returns k^level, the number of chunk positions one node at the
// given level covers, saturating at math.MaxUint64; callers use it to
// align rollups.
func (t *Tree) LevelSpan(level int) uint64 {
	span := uint64(1)
	for l := 0; l < level; l++ {
		if span > math.MaxUint64/uint64(t.cfg.Fanout) {
			return math.MaxUint64
		}
		span *= uint64(t.cfg.Fanout)
	}
	return span
}
