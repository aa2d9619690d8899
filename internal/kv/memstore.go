package kv

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count used by NewMemStore. Sharding keeps
// lock contention negligible under the paper's 100-thread load generator.
const DefaultShards = 64

// MemStore is a sharded in-memory Store. It is the Cassandra substitute for
// single-node runs and benchmarks: the server engine only ever issues
// point reads/writes and prefix scans, which a hash-sharded map serves with
// the same semantics.
//
// No stored entry holds a Go pointer, so the collector never walks the
// store entry by entry. Each shard copies every key and value, behind their
// lengths, into append-only byte pages as one record, and finds a record
// through a map from the key's hash to the record's page and offset.
// Overwritten and deleted records stay where they are until the shard
// reclaims them by copying the live records of its emptiest pages into a
// fresh page; a page is never written again below its length, so slices
// into it stay valid and unchanged for as long as anyone holds them.
type MemStore struct {
	seed   maphash.Seed
	shards []shard

	gets      atomic.Uint64
	getMisses atomic.Uint64
	puts      atomic.Uint64
	deletes   atomic.Uint64
	scans     atomic.Uint64
}

// A page's size is a sixteenth of its shard's live bytes, and a shard
// reclaims once overwritten and deleted bytes exceed a sixteenth of its
// live bytes, so the unfilled page and the garbage each cost at most ~6 %
// over the live data. Against the map-of-slices store it replaced, this
// measured live_heap_bytes_per_chunk 0.97x on ingest-mem, 0.98x on
// query-range, 0.92x on mixed-fig7 and 0.88x on ingest-repl-durable (2
// vCPUs, 6-10 pairs each). A 16 KiB reclaim floor read 1.009x on
// query-range, whose 16k chunks cannot hide that much garbage per index
// shard. In a prototype, fixed 256 KiB pages reclaimed at 100 % dead cost
// +43 % on mixed-fig7 (64 mostly empty pages), and a 1/4 dead bound +13 %
// on query-range.
const (
	pageFraction    = 16
	reclaimFraction = 16
	// minPageBytes is the smallest page, and the least garbage a shard
	// reclaims, so a small shard does not walk its index to win back a
	// few hundred bytes.
	minPageBytes = 4 << 10
	// A record larger than an eighth of a new page gets a page of its own,
	// so the tail a page is retired with is under an eighth of it.
	ownPageFraction = 8
)

// maxEntryBytes bounds one key plus value, so a record (and a page) fits
// int on every platform and its offset fits a location's 32 bits.
const maxEntryBytes = math.MaxInt32 - 2*binary.MaxVarintLen64

// A location names a record: its page in the high 32 bits, its offset in
// the page in the low 32. A record is the key's length and the value's
// length as uvarints, then the key, then the value.
func location(page, off int) uint64 { return uint64(page)<<32 | uint64(off) }

func recordSize(klen, vlen int) int {
	return uvarintLen(klen) + uvarintLen(vlen) + klen + vlen
}

func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// page is an append-only buffer: bytes below len(buf) are never written
// again. live counts the bytes of records that are still listed; the rest
// of len(buf) is dead.
type page struct {
	buf  []byte
	live int
}

// spilled lists a record whose key's hash another resident key already
// holds in the index. With a 64-bit seeded hash the list is empty in
// practice; it is what keeps a collision correct.
type spilled struct {
	hash, loc uint64
}

type shard struct {
	mu sync.RWMutex
	// index maps a key's hash to its record's location. Every hash in
	// spill is in index too, for another key.
	index map[uint64]uint64
	spill []spilled

	pages     []page
	freePages []uint32
	fill      int // page being appended to, or -1

	n     int   // live keys
	bytes int64 // live key and value bytes: SizeBytes
	dead  int64 // bytes of overwritten and deleted records still in pages
}

// NewMemStore returns an empty store with DefaultShards shards.
func NewMemStore() *MemStore { return NewMemStoreShards(DefaultShards) }

// NewMemStoreShards returns an empty store with the given shard count
// (rounded up to at least 1).
func NewMemStoreShards(n int) *MemStore {
	if n < 1 {
		n = 1
	}
	s := &MemStore{seed: maphash.MakeSeed(), shards: make([]shard, n)}
	for i := range s.shards {
		s.shards[i].reset()
	}
	return s
}

func (sh *shard) reset() {
	sh.index = make(map[uint64]uint64)
	sh.spill, sh.pages, sh.freePages = nil, nil, nil
	sh.fill, sh.n, sh.bytes, sh.dead = -1, 0, 0, 0
}

// locate returns key's hash and the shard that holds it. The shard is
// picked by the hash of the key's directory (everything up to its last
// '/'), so one level of a stream's index, or its chunks, fill the same
// pages in write order. Against picking it by the key's own hash (2
// vCPUs, alternating pairs): query_p50_ms 0.90x on query-range (10 of 10;
// the key's hash read 1.08x the map-of-slices store), and on
// ingest-repl-durable live_heap_bytes_per_chunk 0.97x and throughput
// 1.07x (5 of 6 each); ingest-mem within noise; but query_p50_ms 1.06x
// and ingest_ack_p50_ms 1.08x on mixed-fig7 (5 of 6 each), where a
// stream's readers and writer share one shard lock.
func (s *MemStore) locate(key string) (uint64, *shard) {
	dir := key[:strings.LastIndexByte(key, '/')+1]
	return maphash.String(s.seed, key), &s.shards[maphash.String(s.seed, dir)%uint64(len(s.shards))]
}

// Get implements Store.
func (s *MemStore) Get(key string) ([]byte, error) {
	v, err := s.GetShallow(key)
	if err != nil {
		return nil, err
	}
	// v lies below its page's length, which nothing writes again.
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// GetShallow implements ShallowGetter: Get without the copy. The slice
// lies below its page's length, so it never changes, and it keeps its page
// alive even if the entry is later replaced, deleted or reclaimed.
func (s *MemStore) GetShallow(key string) ([]byte, error) {
	s.gets.Add(1)
	h, sh := s.locate(key)
	sh.mu.RLock()
	v, ok := sh.get(h, key)
	sh.mu.RUnlock()
	if !ok {
		s.getMisses.Add(1)
		return nil, ErrNotFound
	}
	return v, nil
}

// Put implements Store.
func (s *MemStore) Put(key string, value []byte) error {
	if err := checkSize(key, value); err != nil {
		return err
	}
	s.put(key, value)
	return nil
}

func (s *MemStore) put(key string, value []byte) {
	s.puts.Add(1)
	h, sh := s.locate(key)
	sh.mu.Lock()
	sh.put(h, key, value)
	sh.mu.Unlock()
}

func checkSize(key string, value []byte) error {
	if n := len(key) + len(value); n > maxEntryBytes {
		return fmt.Errorf("kv: entry of %d bytes exceeds MemStore's %d", n, maxEntryBytes)
	}
	return nil
}

// Delete implements Store.
func (s *MemStore) Delete(key string) error {
	s.deletes.Add(1)
	h, sh := s.locate(key)
	sh.mu.Lock()
	sh.delete(h, key)
	sh.mu.Unlock()
	return nil
}

// Batch implements Store. Sizes are checked first, so a refused batch
// applies nothing.
func (s *MemStore) Batch(ops []Op) error {
	for _, op := range ops {
		if op.Kind == OpPut {
			if err := checkSize(op.Key, op.Value); err != nil {
				return err
			}
		}
	}
	for _, op := range ops {
		switch op.Kind {
		case OpPut:
			s.put(op.Key, op.Value)
		case OpDelete:
			s.Delete(op.Key)
		}
	}
	return nil
}

// Scan implements Store. Keys are visited in unspecified order. Each shard
// is snapshotted under its read lock, then fn runs without locks held, so
// callbacks may freely issue store operations.
func (s *MemStore) Scan(prefix string, fn func(key string, value []byte) bool) error {
	return s.scan(prefix, true, fn)
}

// ScanShallow implements ShallowScanner: like Scan, but fn receives slices
// of the store's pages without copying. Pages are append-only and
// reclaiming copies live records out of old pages without touching them,
// so the slices never change and callers may retain them read-only; they
// keep their page alive even if the entry is later replaced or deleted.
func (s *MemStore) ScanShallow(prefix string, fn func(key string, value []byte) bool) error {
	return s.scan(prefix, false, fn)
}

func (s *MemStore) scan(prefix string, deep bool, fn func(key string, value []byte) bool) error {
	s.scans.Add(1)
	type pair struct {
		k string
		v []byte
	}
	var matched []pair
	for i := range s.shards {
		sh := &s.shards[i]
		matched = matched[:0]
		sh.mu.RLock()
		sh.each(func(loc uint64) {
			k, v := sh.record(loc)
			if len(k) < len(prefix) || string(k[:len(prefix)]) != prefix {
				return
			}
			if deep {
				v = bytes.Clone(v)
			}
			matched = append(matched, pair{string(k), v})
		})
		sh.mu.RUnlock()
		for _, p := range matched {
			if !fn(p.k, p.v) {
				return nil
			}
		}
	}
	return nil
}

// Len implements Store.
func (s *MemStore) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.n
		sh.mu.RUnlock()
	}
	return n
}

// SizeBytes implements Store: the live keys' and values' lengths, not the
// pages holding them.
func (s *MemStore) SizeBytes() int64 {
	var n int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.bytes
		sh.mu.RUnlock()
	}
	return n
}

// Close implements Store; it drops all data.
func (s *MemStore) Close() error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.reset()
		sh.mu.Unlock()
	}
	return nil
}

// Stats returns a snapshot of the operation counters.
func (s *MemStore) Stats() Stats {
	return Stats{
		Gets:      s.gets.Load(),
		GetMisses: s.getMisses.Load(),
		Puts:      s.puts.Load(),
		Deletes:   s.deletes.Load(),
		Scans:     s.scans.Load(),
	}
}

// record returns the key and value stored at loc, capped so that appending
// to them can never write into the page.
func (sh *shard) record(loc uint64) (key, value []byte) {
	b := sh.pages[loc>>32].buf[uint32(loc):]
	klen, n := binary.Uvarint(b)
	vlen, m := binary.Uvarint(b[n:])
	b = b[n+m:]
	return b[:klen:klen], b[klen : klen+vlen : klen+vlen]
}

func (sh *shard) is(loc uint64, key string) bool {
	k, _ := sh.record(loc)
	return string(k) == key
}

// each calls fn with every live record's location.
func (sh *shard) each(fn func(loc uint64)) {
	for _, loc := range sh.index {
		fn(loc)
	}
	for _, s := range sh.spill {
		fn(s.loc)
	}
}

// spilled returns key's position in spill, or -1.
func (sh *shard) spilled(h uint64, key string) int {
	for i, s := range sh.spill {
		if s.hash == h && sh.is(s.loc, key) {
			return i
		}
	}
	return -1
}

func (sh *shard) unspill(i int) {
	last := len(sh.spill) - 1
	sh.spill[i] = sh.spill[last]
	sh.spill = sh.spill[:last]
}

func (sh *shard) get(h uint64, key string) ([]byte, bool) {
	loc, ok := sh.index[h]
	if !ok {
		return nil, false
	}
	if k, v := sh.record(loc); string(k) == key {
		return v, true
	}
	if i := sh.spilled(h, key); i >= 0 {
		_, v := sh.record(sh.spill[i].loc)
		return v, true
	}
	return nil, false
}

func (sh *shard) put(h uint64, key string, value []byte) {
	loc := sh.append(key, value)
	head, taken := sh.index[h]
	if !taken {
		sh.index[h] = loc
		return
	}
	var old uint64
	if sh.is(head, key) {
		old, sh.index[h] = head, loc
	} else if i := sh.spilled(h, key); i >= 0 {
		old, sh.spill[i].loc = sh.spill[i].loc, loc
	} else {
		sh.spill = append(sh.spill, spilled{h, loc})
		return
	}
	sh.drop(old)
	sh.maybeReclaim()
}

func (sh *shard) delete(h uint64, key string) {
	head, taken := sh.index[h]
	if !taken {
		return
	}
	var old uint64
	if sh.is(head, key) {
		old = head
		// Another key with this hash moves up into the index.
		if i := slices.IndexFunc(sh.spill, func(s spilled) bool { return s.hash == h }); i >= 0 {
			sh.index[h] = sh.spill[i].loc
			sh.unspill(i)
		} else {
			delete(sh.index, h)
		}
	} else if i := sh.spilled(h, key); i >= 0 {
		old = sh.spill[i].loc
		sh.unspill(i)
	} else {
		return
	}
	sh.drop(old)
	sh.maybeReclaim()
}

// drop accounts for a record that is no longer listed.
func (sh *shard) drop(loc uint64) {
	k, v := sh.record(loc)
	size := recordSize(len(k), len(v))
	sh.pages[loc>>32].live -= size
	sh.n--
	sh.bytes -= int64(len(k) + len(v))
	sh.dead += int64(size)
}

// append copies key and value into a page as one record and returns its
// location.
func (sh *shard) append(key string, value []byte) uint64 {
	size := recordSize(len(key), len(value))
	i, p := sh.room(size)
	off := len(p.buf)
	p.buf = binary.AppendUvarint(p.buf, uint64(len(key)))
	p.buf = binary.AppendUvarint(p.buf, uint64(len(value)))
	p.buf = append(append(p.buf, key...), value...)
	p.live += size
	sh.n++
	sh.bytes += int64(len(key) + len(value))
	return location(i, off)
}

// room returns a page with need bytes free: the fill page if they fit,
// else a new fill page, or a page of its own for a large record.
func (sh *shard) room(need int) (int, *page) {
	if sh.fill >= 0 && cap(sh.pages[sh.fill].buf)-len(sh.pages[sh.fill].buf) >= need {
		return sh.fill, &sh.pages[sh.fill]
	}
	size := min(max(int(sh.bytes/pageFraction), minPageBytes), math.MaxInt32)
	if need > size/ownPageFraction {
		i := sh.newPage(need)
		return i, &sh.pages[i]
	}
	sh.fill = sh.newPage(size)
	return sh.fill, &sh.pages[sh.fill]
}

func (sh *shard) newPage(size int) int {
	p := page{buf: make([]byte, 0, size)}
	if n := len(sh.freePages); n > 0 {
		i := sh.freePages[n-1]
		sh.freePages = sh.freePages[:n-1]
		sh.pages[i] = p
		return int(i)
	}
	sh.pages = append(sh.pages, p)
	return len(sh.pages) - 1
}

func (sh *shard) maybeReclaim() {
	if sh.dead > sh.bytes/reclaimFraction && sh.dead >= minPageBytes {
		sh.reclaim()
	}
}

// reclaim frees at least half of the shard's dead bytes. It takes pages in
// order of how little of them is live, copies the live records of those
// pages into the fill page, and releases them. Nothing is written into a
// released page: readers still holding slices of one keep it alive,
// unchanged.
func (sh *shard) reclaim() {
	var order []int
	for i, p := range sh.pages {
		if len(p.buf) > p.live {
			order = append(order, i)
		}
	}
	// Emptiest first: the live share is what a page costs to copy.
	slices.SortFunc(order, func(a, b int) int {
		pa, pb := sh.pages[a], sh.pages[b]
		return cmp.Compare(int64(pa.live)*int64(cap(pb.buf)), int64(pb.live)*int64(cap(pa.buf)))
	})
	victim := make([]bool, len(sh.pages))
	var freed int64
	copyLive := false
	for _, i := range order {
		if 2*freed >= sh.dead {
			break
		}
		p := sh.pages[i]
		victim[i] = true
		freed += int64(len(p.buf) - p.live)
		copyLive = copyLive || p.live > 0
	}
	if sh.fill >= 0 && victim[sh.fill] {
		sh.fill = -1
	}
	if copyLive {
		move := func(loc uint64) uint64 {
			if !victim[loc>>32] {
				return loc
			}
			k, v := sh.record(loc)
			size := recordSize(len(k), len(v))
			i, p := sh.room(size)
			off := len(p.buf)
			from := int(uint32(loc))
			p.buf = append(p.buf, sh.pages[loc>>32].buf[from:from+size]...)
			p.live += size
			return location(i, off)
		}
		for h, loc := range sh.index {
			if moved := move(loc); moved != loc {
				sh.index[h] = moved
			}
		}
		for i := range sh.spill {
			sh.spill[i].loc = move(sh.spill[i].loc)
		}
	}
	// A victim's live is what it held before the copy: those bytes were
	// never dead.
	for i, v := range victim {
		if v {
			sh.dead -= int64(len(sh.pages[i].buf) - sh.pages[i].live)
			sh.pages[i] = page{}
			sh.freePages = append(sh.freePages, uint32(i))
		}
	}
}
