package core

import (
	"math/rand/v2"
	"testing"
)

func TestDualKeyRegressionKeysDeterministic(t *testing.T) {
	d, err := NewDualKeyRegressionFromSeeds(100, Node{1}, Node{2})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDualKeyRegressionFromSeeds(100, Node{1}, Node{2})
	if err != nil {
		t.Fatal(err)
	}
	for j := uint64(0); j < 100; j++ {
		a, err := d.KeyAt(j)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := d2.KeyAt(j)
		if a != b {
			t.Fatalf("key %d not deterministic", j)
		}
	}
}

func TestDualKeyRegressionKeysDistinct(t *testing.T) {
	d, err := NewDualKeyRegression(64)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[Node]uint64)
	for j := uint64(0); j < 64; j++ {
		k, err := d.KeyAt(j)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("keys %d and %d collide", prev, j)
		}
		seen[k] = j
	}
}

func TestDualKeyRegressionBounds(t *testing.T) {
	d, err := NewDualKeyRegression(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.KeyAt(10); err == nil {
		t.Error("expected error for out-of-range key")
	}
	if _, err := d.Share(3, 10); err == nil {
		t.Error("expected error for out-of-range share")
	}
	if _, err := d.Share(7, 3); err == nil {
		t.Error("expected error for reversed share")
	}
	if _, err := NewDualKeyRegression(0); err == nil {
		t.Error("expected error for zero-length chain")
	}
}

func TestShareDerivesExactlyInterval(t *testing.T) {
	d, err := NewDualKeyRegression(200)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := d.Share(50, 120)
	if err != nil {
		t.Fatal(err)
	}
	for j := uint64(50); j <= 120; j++ {
		got, err := tok.KeyAt(j)
		if err != nil {
			t.Fatalf("KeyAt(%d): %v", j, err)
		}
		want, _ := d.KeyAt(j)
		if got != want {
			t.Fatalf("token key %d mismatch with owner", j)
		}
	}
	if _, err := tok.KeyAt(49); err == nil {
		t.Error("token derived key below interval")
	}
	if _, err := tok.KeyAt(121); err == nil {
		t.Error("token derived key above interval")
	}
}

// tokenKeys enumerates the keys of tok's interval in ascending order.
func tokenKeys(t *testing.T, tok DualToken) []Node {
	t.Helper()
	keys := make([]Node, 0, tok.Hi-tok.Lo+1)
	for j := tok.Lo; j <= tok.Hi; j++ {
		k, err := tok.KeyAt(j)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	return keys
}

func TestTokenKeysEnumeration(t *testing.T) {
	d, err := NewDualKeyRegression(300)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := d.Share(17, 63)
	if err != nil {
		t.Fatal(err)
	}
	keys := tokenKeys(t, tok)
	if len(keys) != 63-17+1 {
		t.Fatalf("got %d keys, want %d", len(keys), 63-17+1)
	}
	for i, k := range keys {
		want, _ := d.KeyAt(uint64(17 + i))
		if k != want {
			t.Fatalf("enumerated key %d mismatch", 17+i)
		}
	}
}

func TestSingleElementShare(t *testing.T) {
	d, err := NewDualKeyRegression(10)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := d.Share(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	keys := tokenKeys(t, tok)
	if len(keys) != 1 {
		t.Fatalf("got %d keys, want 1", len(keys))
	}
	want, _ := d.KeyAt(4)
	if keys[0] != want {
		t.Error("single-element share mismatch")
	}
}

// Checkpointed owner derivation must agree with naive full-chain walks for
// many random chain lengths and indices.
func TestCheckpointConsistency(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		n := 1 + rand.Uint64N(500)
		d, err := NewDualKeyRegressionFromSeeds(n, Node{byte(trial)}, Node{byte(trial), 1})
		if err != nil {
			t.Fatal(err)
		}
		// Naive: share the full interval and enumerate.
		tok, err := d.Share(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		keys := tokenKeys(t, tok)
		for probe := 0; probe < 20; probe++ {
			j := rand.Uint64N(n)
			got, err := d.KeyAt(j)
			if err != nil {
				t.Fatal(err)
			}
			if got != keys[j] {
				t.Fatalf("n=%d j=%d: checkpointed KeyAt disagrees with chain walk", n, j)
			}
		}
	}
}

func TestSubTokenDelegation(t *testing.T) {
	// A principal holding [20, 80] can produce states for a narrower
	// interval by walking its own chains; verify our token semantics
	// compose: owner-share(30, 60) equals keys from owner directly.
	d, err := NewDualKeyRegression(100)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := d.Share(20, 80)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := d.Share(30, 60)
	if err != nil {
		t.Fatal(err)
	}
	for j := uint64(30); j <= 60; j++ {
		a, _ := outer.KeyAt(j)
		b, _ := inner.KeyAt(j)
		if a != b {
			t.Fatalf("key %d differs between overlapping shares", j)
		}
	}
}
