package cluster

import (
	"fmt"
	"testing"
)

func TestRingPlacementDeterministic(t *testing.T) {
	a, err := NewRing([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	// Same membership in a different construction order must place every
	// key identically: placement is pure hashing, not list position.
	b, err := NewRing([]string{"c", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("stream-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %q: %q vs %q", key, a.Owner(key), b.Owner(key))
		}
	}
}

func TestRingBalance(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	r, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const keys = 10000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("stream-%d", i))]++
	}
	for _, node := range nodes {
		if share := float64(counts[node]) / keys; share < 0.10 {
			t.Errorf("node %s owns only %.1f%% of keys (%v)", node, share*100, counts)
		}
	}
}

func TestRingConsistency(t *testing.T) {
	before, err := NewRing([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewRing([]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	// Adding a node may claim keys, but no key may move between two
	// surviving nodes — the defining property of consistent hashing.
	moved := 0
	const keys = 5000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("stream-%d", i)
		was, is := before.Owner(key), after.Owner(key)
		if was != is {
			if is != "d" {
				t.Fatalf("key %q moved %q -> %q, not to the new node", key, was, is)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Error("new node claimed no keys")
	}
	if moved > keys/2 {
		t.Errorf("new node claimed %d/%d keys, expected ~1/4", moved, keys)
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "a"}); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := NewRing([]string{""}); err == nil {
		t.Error("empty node name accepted")
	}
}
