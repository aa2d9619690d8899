// Package kvtest is the kv.Store conformance suite: one set of rows that
// every Store implementation must pass, so the contract kv.Store's doc
// states (and the engine relies on) is checked once per implementation
// instead of by hand-picked cases per package.
package kvtest

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/kv"
)

// Conformance runs every row against stores made by open, one fresh store
// per row. open may register its own cleanup; the suite closes each store
// when its row ends.
func Conformance(t *testing.T, open func(t *testing.T) kv.Store) {
	rows := []struct {
		name string
		run  func(t *testing.T, s kv.Store)
	}{
		{"read-your-batch", readYourBatch},
		{"delete-missing-key", deleteMissingKey},
		{"get-is-caller-owned", getIsCallerOwned},
		{"put-and-batch-copy-input", putAndBatchCopyInput},
		{"empty-value-is-present", emptyValueIsPresent},
		{"len-and-size-exact", lenAndSizeExact},
		{"shallow-scan-immutable", shallowScanImmutable},
		{"get-shallow-matches-get", getShallowMatchesGet},
		{"get-shallow-immutable", getShallowImmutable},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			s := open(t)
			t.Cleanup(func() { s.Close() })
			r.run(t, s)
		})
	}
}

func mustPut(t *testing.T, s kv.Store, key string, value []byte) {
	t.Helper()
	if err := s.Put(key, value); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

func mustBatch(t *testing.T, s kv.Store, ops []kv.Op) {
	t.Helper()
	if err := s.Batch(ops); err != nil {
		t.Fatalf("Batch: %v", err)
	}
}

// wantValue fails unless key holds exactly want.
func wantValue(t *testing.T, s kv.Store, key string, want []byte) {
	t.Helper()
	got, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get(%q) = %q, want %q", key, got, want)
	}
}

func wantMissing(t *testing.T, s kv.Store, key string) {
	t.Helper()
	if v, err := s.Get(key); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("Get(%q) = %q, %v; want ErrNotFound", key, v, err)
	}
}

// dump is every key/value pair under prefix, values copied.
func dump(t *testing.T, s kv.Store, prefix string) map[string]string {
	t.Helper()
	m := map[string]string{}
	if err := s.Scan(prefix, func(k string, v []byte) bool {
		m[k] = string(v)
		return true
	}); err != nil {
		t.Fatalf("Scan(%q): %v", prefix, err)
	}
	return m
}

// readYourBatch: once Batch returns, Get and Scan see every op of it, in
// op order (a key put twice holds the later value; a key put then deleted
// is gone).
func readYourBatch(t *testing.T, s kv.Store) {
	mustPut(t, s, "stale", []byte("x"))
	mustPut(t, s, "kept", []byte("old"))
	mustBatch(t, s, []kv.Op{
		{Kind: kv.OpPut, Key: "a", Value: []byte("1")},
		{Kind: kv.OpPut, Key: "b", Value: []byte("2")},
		{Kind: kv.OpDelete, Key: "stale"},
		{Kind: kv.OpPut, Key: "kept", Value: []byte("new")},
		{Kind: kv.OpPut, Key: "twice", Value: []byte("first")},
		{Kind: kv.OpPut, Key: "twice", Value: []byte("second")},
		{Kind: kv.OpPut, Key: "gone", Value: []byte("brief")},
		{Kind: kv.OpDelete, Key: "gone"},
	})
	wantValue(t, s, "a", []byte("1"))
	wantValue(t, s, "b", []byte("2"))
	wantValue(t, s, "kept", []byte("new"))
	wantValue(t, s, "twice", []byte("second"))
	wantMissing(t, s, "stale")
	wantMissing(t, s, "gone")
	want := map[string]string{"a": "1", "b": "2", "kept": "new", "twice": "second"}
	if got := dump(t, s, ""); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Scan after batch = %v, want %v", got, want)
	}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
}

// deleteMissingKey: deleting a key that is not there is not an error, on
// its own or inside a batch, and changes nothing.
func deleteMissingKey(t *testing.T, s kv.Store) {
	if err := s.Delete("never"); err != nil {
		t.Fatalf("Delete(missing) = %v", err)
	}
	mustPut(t, s, "k", []byte("v"))
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatalf("second Delete = %v", err)
	}
	wantMissing(t, s, "k")
	mustPut(t, s, "here", []byte("v"))
	mustBatch(t, s, []kv.Op{{Kind: kv.OpDelete, Key: "never"}, {Kind: kv.OpDelete, Key: "k"}})
	wantValue(t, s, "here", []byte("v"))
	if s.Len() != 1 || s.SizeBytes() != int64(len("here")+len("v")) {
		t.Fatalf("Len, SizeBytes = %d, %d after deleting missing keys; want 1, 5", s.Len(), s.SizeBytes())
	}
}

// getIsCallerOwned: what Get and Scan return belongs to the caller, and
// writing into it changes neither the store nor a later read.
func getIsCallerOwned(t *testing.T, s kv.Store) {
	mustPut(t, s, "k", []byte{1, 2, 3})
	v, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	v[0] = 99
	wantValue(t, s, "k", []byte{1, 2, 3})
	if err := s.Scan("k", func(_ string, v []byte) bool {
		v[1] = 99
		return true
	}); err != nil {
		t.Fatal(err)
	}
	wantValue(t, s, "k", []byte{1, 2, 3})
}

// putAndBatchCopyInput: the store keeps its own copy of every value it is
// given, so a caller may reuse its buffer as soon as Put or Batch returns.
func putAndBatchCopyInput(t *testing.T, s kv.Store) {
	buf := []byte{1, 2, 3}
	mustPut(t, s, "put", buf)
	buf[0] = 99
	wantValue(t, s, "put", []byte{1, 2, 3})

	shared := []byte("abc")
	mustBatch(t, s, []kv.Op{
		{Kind: kv.OpPut, Key: "b1", Value: shared},
		{Kind: kv.OpPut, Key: "b2", Value: shared[:2]},
	})
	copy(shared, "xyz")
	wantValue(t, s, "b1", []byte("abc"))
	wantValue(t, s, "b2", []byte("ab"))
}

// emptyValueIsPresent: a key stored with an empty (or nil) value exists.
func emptyValueIsPresent(t *testing.T, s kv.Store) {
	mustPut(t, s, "nil", nil)
	mustPut(t, s, "empty", []byte{})
	mustBatch(t, s, []kv.Op{{Kind: kv.OpPut, Key: "batched", Value: nil}})
	for _, k := range []string{"nil", "empty", "batched"} {
		v, err := s.Get(k)
		if err != nil || len(v) != 0 {
			t.Fatalf("Get(%q) = %q, %v; want an empty value", k, v, err)
		}
	}
	if got := dump(t, s, ""); len(got) != 3 {
		t.Fatalf("Scan saw %v, want the three empty values", got)
	}
	if s.Len() != 3 || s.SizeBytes() != int64(len("nil")+len("empty")+len("batched")) {
		t.Fatalf("Len, SizeBytes = %d, %d; want 3 keys counting key bytes only", s.Len(), s.SizeBytes())
	}
}

// lenAndSizeExact: Len is the number of live keys and SizeBytes the sum of
// their key and value lengths, through overwrites (no double count),
// shrinking and growing values, and deletes.
func lenAndSizeExact(t *testing.T, s kv.Store) {
	want := map[string]int{}
	check := func(step string) {
		t.Helper()
		var size int64
		for k, n := range want {
			size += int64(len(k) + n)
		}
		if s.Len() != len(want) || s.SizeBytes() != size {
			t.Fatalf("%s: Len, SizeBytes = %d, %d; want %d, %d", step, s.Len(), s.SizeBytes(), len(want), size)
		}
	}
	check("fresh store")
	mustPut(t, s, "ab", make([]byte, 10))
	mustPut(t, s, "cd", make([]byte, 20))
	want["ab"], want["cd"] = 10, 20
	check("two puts")
	mustPut(t, s, "ab", make([]byte, 5))
	want["ab"] = 5
	check("shrinking overwrite")
	s.Delete("cd")
	delete(want, "cd")
	check("delete")
	for round := 0; round < 8; round++ {
		var ops []kv.Op
		for i := 0; i < 64; i++ {
			k := spread("churn", i)
			if (i+round)%5 == 0 {
				ops = append(ops, kv.Op{Kind: kv.OpDelete, Key: k})
				delete(want, k)
				continue
			}
			n := (i*7 + round*13) % 300
			ops = append(ops, kv.Op{Kind: kv.OpPut, Key: k, Value: make([]byte, n)})
			want[k] = n
		}
		mustBatch(t, s, ops)
		check(fmt.Sprintf("churn round %d", round))
	}
}

// spread names the i-th key under prefix in one of eight directories, so
// a store that picks shards by a key's directory spreads the keys too.
func spread(prefix string, i int) string {
	return fmt.Sprintf("%s/%d/%03d", prefix, i%8, i)
}

// shallowScanImmutable: a ShallowScanner's slices are never written again.
// They stay byte-identical while a concurrent writer overwrites and
// deletes their keys and churns through enough other bytes that a store
// reclaiming dead space must have done so (several MiB of overwrites).
// Under -race, a store that reused a handed-out buffer is a reported race.
func shallowScanImmutable(t *testing.T, s kv.Store) {
	ss, ok := s.(kv.ShallowScanner)
	if !ok {
		t.Skip("store is not a ShallowScanner")
	}
	const captured, churnKeys, rounds, valueLen = 64, 256, 24, 768
	value := func(key string, round, n int) []byte {
		v := bytes.Repeat([]byte{byte(round)}, n)
		copy(v, key)
		return v
	}
	for i := 0; i < captured; i++ {
		k := spread("shallow", i)
		mustPut(t, s, k, value(k, 0, 16+i))
	}
	type capture struct{ got, want []byte }
	var caps []capture
	take := func(prefix string) {
		if err := ss.ScanShallow(prefix, func(_ string, v []byte) bool {
			caps = append(caps, capture{got: v, want: bytes.Clone(v)})
			return true
		}); err != nil {
			t.Errorf("ScanShallow(%q): %v", prefix, err)
		}
	}
	verify := func(when string) bool {
		t.Helper()
		for i, c := range caps {
			if !bytes.Equal(c.got, c.want) {
				t.Errorf("%s: shallow slice %d changed: %q, was %q", when, i, c.got, c.want)
				return false
			}
		}
		return true
	}
	take("shallow/")
	if len(caps) != captured {
		t.Fatalf("ScanShallow saw %d keys, want %d", len(caps), captured)
	}

	var wg sync.WaitGroup
	var stop atomic.Bool
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for round := 1; round <= rounds && !stop.Load(); round++ {
			for i := 0; i < captured; i++ {
				k := spread("shallow", i)
				if err := s.Put(k, value(k, round, 16+i)); err != nil {
					t.Errorf("Put(%q): %v", k, err)
					return
				}
				if (i+round)%3 == 0 {
					s.Delete(k)
				}
			}
			for i := 0; i < churnKeys; i++ {
				k := spread("churn", i)
				if (i+round)%4 == 0 {
					s.Delete(k)
					continue
				}
				if err := s.Put(k, value(k, round, valueLen+i)); err != nil {
					t.Errorf("Put(%q): %v", k, err)
					return
				}
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if !verify("during churn") {
			stop.Store(true)
			break
		}
		if len(caps) < 4096 {
			take("churn/")
		}
	}
	wg.Wait()
	verify("after churn")
}

// getShallowMatchesGet: a ShallowGetter's GetShallow answers what Get
// answers, for present keys, empty values, overwritten, deleted and
// missing keys, and keys with and without a directory; and it does not
// keep the key, so a caller may reuse the key's bytes at once.
func getShallowMatchesGet(t *testing.T, s kv.Store) {
	sg, ok := s.(kv.ShallowGetter)
	if !ok {
		t.Skip("store is not a ShallowGetter")
	}
	keys := []string{"plain", "dir/", "dir/a", "dir/sub/b", "empty", "over", "gone", "never", "a/b/c/d"}
	mustBatch(t, s, []kv.Op{
		{Kind: kv.OpPut, Key: "plain", Value: []byte("1")},
		{Kind: kv.OpPut, Key: "dir/", Value: []byte("2")},
		{Kind: kv.OpPut, Key: "dir/a", Value: []byte("3")},
		{Kind: kv.OpPut, Key: "dir/sub/b", Value: bytes.Repeat([]byte("4"), 300)},
		{Kind: kv.OpPut, Key: "empty", Value: nil},
		{Kind: kv.OpPut, Key: "over", Value: []byte("old")},
		{Kind: kv.OpPut, Key: "gone", Value: []byte("x")},
		{Kind: kv.OpPut, Key: "a/b/c/d", Value: []byte("5")},
	})
	mustPut(t, s, "over", []byte("new"))
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		want, wantErr := s.Get(k)
		// The key is handed over in a buffer that is overwritten right
		// after the call: a store that kept it would have a different
		// key (or a data race) afterwards.
		buf := []byte(k)
		got, err := sg.GetShallow(string(buf))
		for i := range buf {
			buf[i] = '#'
		}
		if !errors.Is(err, wantErr) || !bytes.Equal(got, want) {
			t.Fatalf("GetShallow(%q) = %q, %v; Get = %q, %v", k, got, err, want, wantErr)
		}
		if err == nil && got == nil && want != nil {
			t.Fatalf("GetShallow(%q) = nil, Get = an empty value", k)
		}
	}
	wantValue(t, s, "over", []byte("new"))
	wantMissing(t, s, "gone")
}

// getShallowImmutable: the slices GetShallow hands out are never written
// again. They stay byte-identical while a concurrent writer overwrites and
// deletes their keys and churns through enough other bytes that a store
// reclaiming dead space must have done so; under -race, a store that
// reused a handed-out buffer is a reported race.
func getShallowImmutable(t *testing.T, s kv.Store) {
	sg, ok := s.(kv.ShallowGetter)
	if !ok {
		t.Skip("store is not a ShallowGetter")
	}
	const keys, churnKeys, rounds, valueLen = 64, 256, 24, 768
	value := func(key string, round, n int) []byte {
		v := bytes.Repeat([]byte{byte(round)}, n)
		copy(v, key)
		return v
	}
	for i := 0; i < keys; i++ {
		k := spread("shallow", i)
		mustPut(t, s, k, value(k, 0, 16+i))
	}
	type capture struct{ got, want []byte }
	var caps []capture
	take := func() {
		for i := 0; i < keys; i++ {
			v, err := sg.GetShallow(spread("shallow", i))
			if errors.Is(err, kv.ErrNotFound) {
				continue // the writer deleted it this round
			}
			if err != nil {
				t.Errorf("GetShallow: %v", err)
				return
			}
			caps = append(caps, capture{got: v, want: bytes.Clone(v)})
		}
	}
	verify := func(when string) bool {
		t.Helper()
		for i, c := range caps {
			if !bytes.Equal(c.got, c.want) {
				t.Errorf("%s: shallow value %d changed: %q, was %q", when, i, c.got, c.want)
				return false
			}
		}
		return true
	}
	take()
	if len(caps) != keys {
		t.Fatalf("GetShallow found %d keys, want %d", len(caps), keys)
	}

	var wg sync.WaitGroup
	var stop atomic.Bool
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for round := 1; round <= rounds && !stop.Load(); round++ {
			for i := 0; i < keys; i++ {
				k := spread("shallow", i)
				if err := s.Put(k, value(k, round, 16+i)); err != nil {
					t.Errorf("Put(%q): %v", k, err)
					return
				}
				if (i+round)%3 == 0 {
					s.Delete(k)
				}
			}
			for i := 0; i < churnKeys; i++ {
				k := spread("churn", i)
				if (i+round)%4 == 0 {
					s.Delete(k)
					continue
				}
				if err := s.Put(k, value(k, round, valueLen+i)); err != nil {
					t.Errorf("Put(%q): %v", k, err)
					return
				}
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if !verify("during churn") {
			stop.Store(true)
			break
		}
		if len(caps) < 4096 {
			take()
		}
	}
	wg.Wait()
	verify("after churn")
}
