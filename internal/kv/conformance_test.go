package kv_test

import (
	"testing"

	"repro/internal/kv"
	"repro/internal/kv/kvtest"
)

// TestConformance runs the suite on MemStore and on a partition of one.
// TestScanShallow pins that churn like the shallow-scan row's really makes
// a MemStore reclaim pages.
func TestConformance(t *testing.T) {
	t.Run("MemStore", func(t *testing.T) {
		kvtest.Conformance(t, func(*testing.T) kv.Store { return kv.NewMemStore() })
	})
	t.Run("MemStore-1-shard", func(t *testing.T) {
		kvtest.Conformance(t, func(*testing.T) kv.Store { return kv.NewMemStoreShards(1) })
	})
	// A partition shares its base with a neighbour whose keys it must
	// neither see nor count.
	t.Run("PrefixStore", func(t *testing.T) {
		kvtest.Conformance(t, func(t *testing.T) kv.Store {
			base := kv.NewMemStore()
			if err := base.Put("q/neighbour", []byte("not ours")); err != nil {
				t.Fatal(err)
			}
			return kv.NewPrefixStore(base, "p/")
		})
	})
}
