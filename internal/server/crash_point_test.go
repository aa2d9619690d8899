package server

import (
	"context"
	"errors"
	"testing"

	"repro/internal/kv"
	"repro/internal/wire"
)

// crashingStore lets a fixed number of write calls through to the store
// and refuses every one after: the store a process saw when it died
// somewhere inside a mutation.
type crashingStore struct {
	kv.Store
	left  int // write calls still allowed
	calls int // write calls attempted
}

var errCrashed = errors.New("crashed")

func (c *crashingStore) allow() error {
	c.calls++
	if c.left == 0 {
		return errCrashed
	}
	c.left--
	return nil
}

func (c *crashingStore) Put(key string, value []byte) error {
	if err := c.allow(); err != nil {
		return err
	}
	return c.Store.Put(key, value)
}

func (c *crashingStore) Delete(key string) error {
	if err := c.allow(); err != nil {
		return err
	}
	return c.Store.Delete(key)
}

func (c *crashingStore) Batch(ops []kv.Op) error {
	if err := c.allow(); err != nil {
		return err
	}
	return c.Store.Batch(ops)
}

// TestInsertCrashPoints kills a 16-chunk InsertChunkBatch after every
// number of store write calls it can make, restarts an engine over what
// the store holds, re-inserts from the count the restarted engine reports
// — what a client does after a lost acknowledgement — and requires the
// store byte-identical to one that never crashed. With an insert that is
// several store calls, every crash point between the first ancestor write
// and the index meta write folds the batch's digests into those ancestors
// a second time.
func TestInsertCrashPoints(t *testing.T) {
	const before, batch = 40, 16 // 40 = 5 full level-1 nodes at fanout 8
	h := newHarness(t)
	blobs := sealBlobs(t, h, before+batch)
	// load brings a fresh store to the state just before the batch, with
	// records staged for two of its chunks: their deletes ride with it.
	load := func(store kv.Store) *Engine {
		t.Helper()
		e, err := New(store, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.CreateStream("s", h.cfg); err != nil {
			t.Fatal(err)
		}
		for _, err := range e.InsertChunkBatch("s", blobs[:before]) {
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, idx := range []uint64{before, before + 3} {
			if err := errOf(e.Handle(context.Background(), &wire.StageRecord{UUID: "s", ChunkIndex: idx, Seq: 7, Box: []byte("box")})); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	for _, err := range load(h.store).InsertChunkBatch("s", blobs[before:]) {
		if err != nil {
			t.Fatal(err)
		}
	}
	control := storeDump(t, h.store)

	for k := 0; ; k++ {
		base := kv.NewMemStore()
		load(base)
		dying := &crashingStore{Store: base, left: k}
		e, err := New(dying, Config{})
		if err != nil {
			t.Fatal(err)
		}
		crashed := false
		for _, err := range e.InsertChunkBatch("s", blobs[before:]) {
			crashed = crashed || err != nil
		}
		if crashed {
			// The engine that saw the failure is as it was before the
			// insert: same count, same answers.
			if _, count, _ := e.StreamInfo("s"); count != before {
				t.Fatalf("k=%d: a refused insert left the engine at %d chunks, want %d", k, count, before)
			}
		}

		restarted, err := New(base, Config{})
		if err != nil {
			t.Fatalf("k=%d: restart: %v", k, err)
		}
		_, count, err := restarted.StreamInfo("s")
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for i, err := range restarted.InsertChunkBatch("s", blobs[count:]) {
			if err != nil {
				t.Fatalf("k=%d: re-inserting chunk %d: %v", k, int(count)+i, err)
			}
		}
		got := storeDump(t, base)
		if len(got) != len(control) {
			t.Errorf("k=%d: store has %d keys after crash and retry, the control %d", k, len(got), len(control))
		}
		for key, v := range control {
			if got[key] != v {
				t.Errorf("k=%d: key %q differs from the never-crashed control", k, key)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
		if !crashed {
			// k calls were enough for the whole insert: every crash point
			// is covered. The insert itself is one call.
			if dying.calls != 1 {
				t.Fatalf("a %d-chunk InsertChunkBatch made %d store write calls, want 1", batch, dying.calls)
			}
			break
		}
	}
}

// TestMutationsAreOneStoreCall: the multi-key mutations each reach the
// store as one write call — on a durable store one WAL record.
func TestMutationsAreOneStoreCall(t *testing.T) {
	h := newHarness(t)
	counted := &crashingStore{Store: h.store, left: -1}
	e, err := New(counted, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateStream("s", h.cfg); err != nil {
		t.Fatal(err)
	}
	blobs := sealBlobs(t, h, 70)
	ctx := context.Background()
	calls := func(what string, op func() error) {
		t.Helper()
		counted.calls = 0
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if counted.calls != 1 {
			t.Errorf("%s made %d store write calls, want 1", what, counted.calls)
		}
	}
	calls("InsertChunk", func() error { return errOf(e.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: blobs[0]})) })
	if err := errOf(e.Handle(ctx, &wire.StageRecord{UUID: "s", ChunkIndex: 1, Seq: 1, Box: []byte("box")})); err != nil {
		t.Fatal(err)
	}
	calls("InsertChunk over a staged record", func() error { return errOf(e.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: blobs[1]})) })
	if boxes, err := e.GetStaged("s", 1); err != nil || len(boxes) != 0 {
		t.Fatalf("staged record survived its chunk: %d boxes, %v", len(boxes), err)
	}
	calls("InsertChunkBatch", func() error {
		for _, err := range e.InsertChunkBatch("s", blobs[2:]) {
			if err != nil {
				return err
			}
		}
		return nil
	})
	calls("DeleteRange", func() error { return errOf(e.Handle(ctx, &wire.DeleteRange{UUID: "s", Ts: 0, Te: 1600})) })
	calls("Rollup", func() error { return errOf(e.Handle(ctx, &wire.Rollup{UUID: "s", Factor: 8, Ts: 0, Te: 3200})) })
	if chunks, err := e.GetRange(ctx, "s", 0, 3200); err != nil || len(chunks) != 0 {
		t.Errorf("%d chunks survived the rollup (%v)", len(chunks), err)
	}
}
