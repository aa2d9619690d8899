package index

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// cacheModel is the reference the slot cache is checked against: a map
// from key to vector, and per level a recency slice, oldest first. A use
// appends a stamp; a stamp whose tick is no longer its key's last use is
// stale and skipped, so the model needs no list surgery.
type cacheModel struct {
	budget       int64
	size         func(key uint64) int64
	vecs         map[uint64][]uint64
	lastUse      map[uint64]uint64
	recency      [][]stamp
	tick         uint64
	used         int64
	hits, misses uint64
}

type stamp struct{ key, tick uint64 }

func (m *cacheModel) touch(key uint64) {
	m.tick++
	m.lastUse[key] = m.tick
	level := keyLevel(key)
	for len(m.recency) <= level {
		m.recency = append(m.recency, nil)
	}
	m.recency[level] = append(m.recency[level], stamp{key, m.tick})
}

func (m *cacheModel) get(key uint64) ([]uint64, bool) {
	vec, ok := m.vecs[key]
	if !ok {
		m.misses++
		return nil, false
	}
	m.hits++
	m.touch(key)
	return vec, true
}

func (m *cacheModel) put(key uint64, vec []uint64) {
	if _, ok := m.vecs[key]; !ok {
		m.used += m.size(key)
	}
	m.vecs[key] = append([]uint64(nil), vec...)
	m.touch(key)
	for m.used > m.budget && len(m.vecs) > 0 {
		m.evict()
	}
}

// evict drops the least recently used key of the lowest level holding one.
func (m *cacheModel) evict() {
	for level, r := range m.recency {
		for len(r) > 0 {
			s := r[0]
			r = r[1:]
			if m.lastUse[s.key] == s.tick {
				m.recency[level] = r
				m.remove(s.key)
				return
			}
		}
		m.recency[level] = r
	}
}

func (m *cacheModel) remove(key uint64) {
	if _, ok := m.vecs[key]; ok {
		delete(m.vecs, key)
		delete(m.lastUse, key)
		m.used -= m.size(key)
	}
}

// TestSlotCacheMatchesModel drives one cache and the model with the same
// seeded puts, gets and removes over levels 0-3: every hit or miss, every
// vector copied out and the counters after every operation must agree, so
// eviction order, entry sizes and slot reuse are exactly the model's. The
// 1 GiB case first fills the cache past 100,000 entries without evicting,
// so slabs reach their cap and the slab count passes 64.
func TestSlotCacheMatchesModel(t *testing.T) {
	const (
		vecLen  = 3
		keyBase = len("i/s//")
	)
	oneEntry := newLRUCache(1, keyBase, vecLen).entrySize(cacheKey(0, 0))
	for _, tc := range []struct {
		budget int64
		fill   uint64 // distinct keys put before the random operations
		keys   uint64 // node indexes the random operations draw from
		ops    int
	}{
		{budget: 1 << 30, fill: 110_000, keys: 256, ops: 20_000},
		{budget: oneEntry, keys: 32, ops: 20_000},
		{budget: 300, keys: 64, ops: 20_000},
		{budget: 48 << 10, keys: 256, ops: 50_000},
	} {
		t.Run(fmt.Sprintf("budget=%d", tc.budget), func(t *testing.T) {
			c := newLRUCache(tc.budget, keyBase, vecLen)
			m := &cacheModel{budget: tc.budget, size: c.entrySize, vecs: map[uint64][]uint64{}, lastUse: map[uint64]uint64{}}
			rng := rand.New(rand.NewPCG(uint64(tc.budget), 55))
			got := make([]uint64, vecLen)
			step := func(op string, key uint64) {
				t.Helper()
				switch op {
				case "put":
					vec := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
					c.put(key, vec)
					m.put(key, vec)
				case "get":
					clear(got)
					ok := c.get(key, got)
					want, wantOK := m.get(key)
					if ok != wantOK || ok && !slices.Equal(got, want) {
						t.Fatalf("get %#x: %v %v, model %v %v", key, got, ok, want, wantOK)
					}
				case "remove":
					c.remove(key)
					m.remove(key)
				}
				hits, misses, used, entries := c.stats()
				if hits != m.hits || misses != m.misses || used != m.used || entries != len(m.vecs) {
					t.Fatalf("after %s %#x: hits %d misses %d used %d entries %d; model %d %d %d %d",
						op, key, hits, misses, used, entries, m.hits, m.misses, m.used, len(m.vecs))
				}
			}
			for i := uint64(0); i < tc.fill; i++ {
				step("put", cacheKey(int(i%4), i))
			}
			for i := 0; i < tc.ops; i++ {
				key := cacheKey(rng.IntN(4), rng.Uint64N(tc.keys))
				switch r := rng.IntN(20); {
				case r < 8:
					step("put", key)
				case r < 17:
					step("get", key)
				default:
					step("remove", key)
				}
			}
			for key := range m.vecs {
				step("get", key)
			}
			free := 0
			for id := c.free; id != noSlot; id = c.meta(id).next {
				free++
			}
			if free+len(c.items) != c.slots {
				t.Errorf("%d free slots and %d entries in %d slots: a freed slot was lost", free, len(c.items), c.slots)
			}
			if tc.fill > 0 {
				largest := 0
				for _, s := range c.slabs {
					largest = max(largest, len(s.meta))
				}
				if len(c.slabs) <= 64 || largest != 1<<slotBits {
					t.Errorf("%d slabs, the largest %d slots: want more than 64 and %d", len(c.slabs), largest, 1<<slotBits)
				}
			}
		})
	}
}

// TestPointerFreeCacheEntries is the fence around the cache's point: what a
// cache holds per entry (the map's key and element, a slot's metadata and
// the slabs' vector elements) contains no Go pointer, so the collector
// marks the cache's slabs and map, never its entries. A field that brings
// a string, slice, map or pointer back into them fails here.
func TestPointerFreeCacheEntries(t *testing.T) {
	field := func(typ reflect.Type, name string, kind reflect.Kind) reflect.Type {
		f, ok := typ.FieldByName(name)
		if !ok || f.Type.Kind() != kind {
			t.Fatalf("%s.%s is missing or not a %s", typ, name, kind)
		}
		return f.Type
	}
	items := field(reflect.TypeOf(lruCache{}), "items", reflect.Map)
	perEntry := map[string]reflect.Type{
		"items key":     items.Key(),
		"items element": items.Elem(),
		"slot metadata": field(reflect.TypeOf(slab{}), "meta", reflect.Slice).Elem(),
		"slab element":  field(reflect.TypeOf(slab{}), "vecs", reflect.Slice).Elem(),
	}
	for what, typ := range perEntry {
		if path := pointerIn(typ, typ.String()); path != "" {
			t.Errorf("%s %s holds a pointer at %s", what, typ, path)
		}
	}
}

// pointerIn returns the path to the first pointer-bearing part of t, or "".
func pointerIn(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		return pointerIn(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	}
	return path + " (" + t.Kind().String() + ")"
}

// TestQueriesDuringSlotReuse runs queries beside appends on a tree whose
// cache holds a few nodes, so every read evicts and every put reuses a
// slot another node just left. A vector copied out of a reused slot, or
// read while another node is copied in, would show as a wrong sum: every
// answer is checked against plaintext prefix sums.
func TestQueriesDuringSlotReuse(t *testing.T) {
	const (
		n      = 5000
		vecLen = 3
	)
	tree, _ := newTestTree(t, Config{Fanout: 4, VectorLen: vecLen, CacheBytes: 400})
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
	for g := uint64(0); g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(g, 7))
			for {
				select {
				case <-stop:
					return
				default:
				}
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
	rng := rand.New(rand.NewPCG(1, 2))
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
	if _, _, _, entries := tree.CacheStats(); entries > 5 {
		t.Errorf("the cache holds %d nodes: the test needs it to hold a few", entries)
	}
}

// The hammer: concurrent get/put/remove over a shared key space, run under
// -race. A tree's readers put their misses into its one cache under the
// tree's read lock, so the cache's own lock is what keeps them apart; a
// vector copied out must never mix two puts (a put writes x and ^x).
func TestNodeCacheConcurrentHammer(t *testing.T) {
	c := newLRUCache(256<<10, 0, 2)
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
