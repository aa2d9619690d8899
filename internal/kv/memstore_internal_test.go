package kv

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestPointerFreeShardEntries is the fence around the store's point: what
// a shard holds per entry (the index map's key and element, and the spill
// list's element) contains no Go pointer, so the collector marks a shard's
// pages and tables, never its entries. A field that brings a string,
// slice, map or pointer back into them fails here.
func TestPointerFreeShardEntries(t *testing.T) {
	st := reflect.TypeOf(shard{})
	field := func(name string, kind reflect.Kind) reflect.Type {
		f, ok := st.FieldByName(name)
		if !ok || f.Type.Kind() != kind {
			t.Fatalf("shard.%s is missing or not a %s", name, kind)
		}
		return f.Type
	}
	index := field("index", reflect.Map)
	perEntry := map[string]reflect.Type{
		"index key":     index.Key(),
		"index element": index.Elem(),
		"spill element": field("spill", reflect.Slice).Elem(),
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

// checkShard verifies a shard against a model of its contents, and its
// accounting against its pages: every key reads back, each live record is
// visited once, and the live and dead counters add up page by page.
func checkShard(t *testing.T, sh *shard, model map[string][]byte, hash func(string) uint64) {
	t.Helper()
	for k, want := range model {
		got, ok := sh.get(hash(k), k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("get(%q) = %q, %v; want %q", k, got, ok, want)
		}
	}
	seen := map[string]bool{}
	var size, records int64
	sh.each(func(loc uint64) {
		k, v := sh.record(loc)
		if _, ok := model[string(k)]; seen[string(k)] || !ok {
			t.Fatalf("each visits %q unexpectedly (seen before: %v)", k, seen[string(k)])
		}
		seen[string(k)] = true
		size += int64(len(k) + len(v))
		records += int64(recordSize(len(k), len(v)))
	})
	if len(seen) != len(model) || sh.n != len(model) || sh.bytes != size {
		t.Fatalf("visited %d, n %d, bytes %d; model has %d keys, %d bytes", len(seen), sh.n, sh.bytes, len(model), size)
	}
	var live, dead int64
	for _, p := range sh.pages {
		live += int64(p.live)
		dead += int64(len(p.buf) - p.live)
	}
	if live != records || dead != sh.dead {
		t.Fatalf("pages hold %d live and %d dead bytes; records take %d, shard counts %d dead", live, dead, records, sh.dead)
	}
}

// TestShardMatchesModel drives one shard with random puts, overwrites and
// deletes, under a real hash and under one so weak that all keys share
// three hashes (so most of them spill), and checks it against a map after
// every few steps.
func TestShardMatchesModel(t *testing.T) {
	seed := maphash.MakeSeed()
	hashes := map[string]func(string) uint64{
		"maphash":    func(k string) uint64 { return maphash.String(seed, k) },
		"collisions": func(k string) uint64 { return uint64(len(k) % 3) },
	}
	for name, hash := range hashes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(7, uint64(len(name))))
			var sh shard
			sh.reset()
			model := map[string][]byte{}
			// Only a reclaim lowers the dead byte count.
			reclaimed := false
			for step := 0; step < 20000; step++ {
				k := fmt.Sprintf("k%d", rng.IntN(300))
				dead := sh.dead
				if rng.IntN(3) == 0 {
					sh.delete(hash(k), k)
					delete(model, k)
				} else {
					v := bytes.Repeat([]byte{byte(step)}, rng.IntN(3000))
					sh.put(hash(k), k, v)
					model[k] = v
				}
				reclaimed = reclaimed || sh.dead < dead
				if step%250 == 0 {
					checkShard(t, &sh, model, hash)
				}
			}
			checkShard(t, &sh, model, hash)
			if !reclaimed {
				t.Fatal("20000 random writes never reclaimed")
			}
			if name == "collisions" && len(sh.spill) == 0 {
				t.Fatal("colliding hashes spilled nothing")
			}
		})
	}
}

// TestScanShallow pins what the conformance row cannot see from outside:
// churn like the row's really reclaims pages (so the slices it checks point
// into released ones), and a slice taken before a reclaim still reads its
// old value afterwards.
func TestScanShallow(t *testing.T) {
	s := NewMemStoreShards(1)
	for i := 0; i < 64; i++ {
		s.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 512))
	}
	held := map[string][]byte{}
	s.ScanShallow("", func(k string, v []byte) bool {
		held[k] = v
		return true
	})
	first := &s.shards[0].pages[0].buf[0]
	for round := 1; round <= 32; round++ {
		for i := 0; i < 64; i++ {
			s.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i + round)}, 512))
		}
	}
	for _, p := range s.shards[0].pages {
		if len(p.buf) > 0 && &p.buf[0] == first {
			t.Fatal("1 MiB of overwrites never released the first page")
		}
	}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("k%02d", i)
		if !bytes.Equal(held[k], bytes.Repeat([]byte{byte(i)}, 512)) {
			t.Fatalf("slice of %s changed after reclaims", k)
		}
	}
	if got, want := s.SizeBytes(), int64(64*(3+512)); got != want {
		t.Fatalf("SizeBytes = %d after overwrites, want %d", got, want)
	}
}
