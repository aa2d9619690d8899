package server

import (
	"context"
	"errors"
	"maps"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/kv"
	"repro/internal/wire"
)

var errScanDown = errors.New("scan down")

// scanFailStore fails every Scan while fail is set; the kv.Store contract
// allows that error.
type scanFailStore struct {
	*kv.MemStore
	fail atomic.Bool
}

func (s *scanFailStore) Scan(prefix string, fn func(key string, value []byte) bool) error {
	if s.fail.Load() {
		return errScanDown
	}
	return s.MemStore.Scan(prefix, fn)
}

// A delete that cannot list the keys it must remove answers the scan's
// error and changes nothing: no meta-only delete that strands the
// stream's chunk, index and grant keys, and the stream keeps serving.
func TestDeletesReturnScanErrors(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t)
	store := &scanFailStore{MemStore: h.store}
	engine, err := New(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h.engine = engine
	h.createStream(t, "s")
	h.ingest(t, "s", 4)
	for _, g := range []string{"g1", "g2"} {
		if err := errOf(engine.Handle(ctx, &wire.PutGrant{UUID: "s", Principal: "alice", GrantID: g, Blob: []byte(g)})); err != nil {
			t.Fatal(err)
		}
	}
	// A partial import of "x" that an abort would discard.
	if err := store.Put("c/x/0", []byte{1}); err != nil {
		t.Fatal(err)
	}
	before := storeDump(t, store)

	store.fail.Store(true)
	for _, c := range []struct {
		name string
		req  wire.Message
	}{
		{"DeleteStream", &wire.DeleteStream{UUID: "s"}},
		{"HandoffComplete{Abort}", &wire.HandoffComplete{UUID: "x", Action: wire.HandoffAbort}},
		{"HandoffComplete{Release}", &wire.HandoffComplete{UUID: "s", Epoch: 9, Action: wire.HandoffRelease}},
		{"DeleteGrant", &wire.DeleteGrant{UUID: "s", Principal: "alice"}},
	} {
		if err := errOf(engine.Handle(ctx, c.req)); err == nil || !strings.Contains(err.Error(), errScanDown.Error()) {
			t.Errorf("%s with a failing scan: err = %v, want the scan's error", c.name, err)
		}
	}
	store.fail.Store(false)

	if after := storeDump(t, store); !maps.Equal(before, after) {
		t.Errorf("store changed: %d keys before, %d after", len(before), len(after))
	}
	if _, _, _, err := engine.StatRange(ctx, []string{"s"}, 0, 400, 0); err != nil {
		t.Errorf("stream stopped serving: %v", err)
	}
	if blobs, err := engine.GetGrants("s", "alice"); err != nil || len(blobs) != 2 {
		t.Errorf("alice has %d grants (%v), want 2", len(blobs), err)
	}
}
