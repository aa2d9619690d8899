package kv

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	if _, err := s.Get("missing"); err != ErrNotFound {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
	if err := s.Put("a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("a")
	if err != nil || string(v) != "hello" {
		t.Fatalf("Get(a) = %q, %v", v, err)
	}
	if err := s.Put("a", []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Get("a")
	if string(v) != "world" {
		t.Errorf("overwrite failed: %q", v)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a"); err != ErrNotFound {
		t.Error("key survived delete")
	}
	if err := s.Delete("a"); err != nil {
		t.Errorf("double delete should be a no-op: %v", err)
	}
}

func TestScanPrefix(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("x/%02d", i), []byte{byte(i)})
		s.Put(fmt.Sprintf("y/%02d", i), []byte{byte(i)})
	}
	got := map[string]byte{}
	err := s.Scan("x/", func(k string, v []byte) bool {
		got[k] = v[0]
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("scan matched %d keys, want 50", len(got))
	}
	for i := 0; i < 50; i++ {
		if got[fmt.Sprintf("x/%02d", i)] != byte(i) {
			t.Fatalf("scan missing x/%02d", i)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("k%03d", i), nil)
	}
	n := 0
	s.Scan("k", func(string, []byte) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("scan visited %d keys after early stop, want 10", n)
	}
	n = 0
	s.ScanShallow("k", func(string, []byte) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("shallow scan visited %d keys after early stop, want 10", n)
	}
}

func TestScanCallbackMayMutateStore(t *testing.T) {
	s := NewMemStoreShards(1)
	defer s.Close()
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("k%02d", i), nil)
	}
	// Deleting from within the callback must not deadlock or crash.
	err := s.Scan("k", func(k string, _ []byte) bool {
		s.Delete(k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Errorf("expected empty store, have %d keys", s.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("g%d/k%d", g, i)
				s.Put(key, []byte{byte(i)})
				if v, err := s.Get(key); err != nil || v[0] != byte(i) {
					t.Errorf("concurrent get %s failed", key)
					return
				}
				if i%3 == 0 {
					s.Delete(key)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestStatsCounters(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	s.Put("a", nil)
	s.Get("a")
	s.Get("b")
	s.Delete("a")
	s.Scan("", func(string, []byte) bool { return true })
	st := s.Stats()
	if st.Puts != 1 || st.Gets != 2 || st.GetMisses != 1 || st.Deletes != 1 || st.Scans != 1 {
		t.Errorf("unexpected stats: %s", st)
	}
	if st.String() == "" {
		t.Error("empty stats string")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	for i := 0; i < 200; i++ {
		s.Put(fmt.Sprintf("key/%d", i), bytes.Repeat([]byte{byte(i)}, i%17))
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	restored := NewMemStore()
	defer restored.Close()
	if err := ReadSnapshot(bytes.NewReader(buf.Bytes()), restored); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != s.Len() {
		t.Fatalf("restored %d keys, want %d", restored.Len(), s.Len())
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key/%d", i)
		want, _ := s.Get(k)
		got, err := restored.Get(k)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("key %s mismatch after restore", k)
		}
	}
}

func TestSnapshotDetectsCorruption(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	s.Put("hello", []byte("world"))
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a payload byte (not in the length fields).
	data[len(data)-20] ^= 0x01
	if err := ReadSnapshot(bytes.NewReader(data), NewMemStore()); err == nil {
		t.Error("corrupted snapshot accepted")
	}
	// Truncated snapshot.
	if err := ReadSnapshot(bytes.NewReader(data[:10]), NewMemStore()); err == nil {
		t.Error("truncated snapshot accepted")
	}
	// Wrong magic.
	bad := append([]byte("NOTMAGIC"), data[8:]...)
	if err := ReadSnapshot(bytes.NewReader(bad), NewMemStore()); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, NewMemStore()); err != nil {
		t.Fatal(err)
	}
	dst := NewMemStore()
	if err := ReadSnapshot(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 0 {
		t.Error("empty snapshot restored keys")
	}
}

// Property: any set of key/value pairs survives a snapshot round trip.
func TestSnapshotProperty(t *testing.T) {
	f := func(pairs map[string][]byte) bool {
		s := NewMemStore()
		for k, v := range pairs {
			s.Put(k, v)
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, s); err != nil {
			return false
		}
		r := NewMemStore()
		if err := ReadSnapshot(bytes.NewReader(buf.Bytes()), r); err != nil {
			return false
		}
		if r.Len() != len(pairs) {
			return false
		}
		for k, v := range pairs {
			got, err := r.Get(k)
			if err != nil || !bytes.Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
