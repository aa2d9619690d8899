package durable

import (
	"testing"

	"repro/internal/kv"
	"repro/internal/kv/kvtest"
)

func TestConformance(t *testing.T) {
	kvtest.Conformance(t, func(t *testing.T) kv.Store {
		s, err := Open(t.TempDir(), Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}
