package server

import (
	"context"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/kv"
	"repro/internal/wire"
)

// sealBlobs seals chunks [0, n) and returns their marshalled bytes.
func sealBlobs(t *testing.T, h *testHarness, n uint64) [][]byte {
	t.Helper()
	blobs := make([][]byte, n)
	for i := uint64(0); i < n; i++ {
		start := int64(i) * 100
		sealed, err := chunk.Seal(h.enc, h.spec, chunk.CompressionNone, i, start, start+100,
			[]chunk.Point{{TS: start, Val: int64(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = chunk.MarshalSealed(sealed)
	}
	return blobs
}

// storeDump snapshots every key/value in a store.
func storeDump(t *testing.T, store kv.Store) map[string]string {
	t.Helper()
	out := map[string]string{}
	if err := store.Scan("", func(k string, v []byte) bool {
		out[k] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestInsertChunkBatchMatchesSequential: the batched ingest path must
// leave the store byte-identical to per-chunk InsertChunk calls.
func TestInsertChunkBatchMatchesSequential(t *testing.T) {
	const n = 30
	// Seal once: GCM nonces are random, so both engines must ingest the
	// exact same blobs for the stores to be comparable byte-for-byte.
	seq := newHarness(t)
	seq.createStream(t, "s")
	blobs := sealBlobs(t, seq, n)
	for i, blob := range blobs {
		if err := errOf(seq.engine.Handle(context.Background(), &wire.InsertChunk{UUID: "s", Chunk: blob})); err != nil {
			t.Fatalf("sequential chunk %d: %v", i, err)
		}
	}

	batStore := kv.NewMemStore()
	batEngine, err := New(batStore, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := batEngine.CreateStream("s", seq.cfg); err != nil {
		t.Fatal(err)
	}
	pos := 0
	for _, size := range []int{1, 7, 8, 10, 4} {
		for i, err := range batEngine.InsertChunkBatch("s", blobs[pos:pos+size]) {
			if err != nil {
				t.Fatalf("batched chunk %d: %v", pos+i, err)
			}
		}
		pos += size
	}

	want := storeDump(t, seq.store)
	got := storeDump(t, batStore)
	if len(got) != len(want) {
		t.Fatalf("batched store has %d keys, sequential has %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %q: batched bytes differ from sequential", k)
		}
	}
}

// TestInsertChunkBatchPartialFailure: invalid chunks inside a batch fail
// individually without derailing the valid ones — exactly as a sequential
// insert loop would behave.
func TestInsertChunkBatchPartialFailure(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	blobs := sealBlobs(t, h, 4)
	mixed := [][]byte{
		blobs[0],
		[]byte("garbage"), // unmarshal failure
		blobs[1],
		blobs[3], // out of order: expects 2
		blobs[2],
	}
	errs := h.engine.InsertChunkBatch("s", mixed)
	if errs[0] != nil || errs[2] != nil || errs[4] != nil {
		t.Fatalf("valid chunks failed: %v / %v / %v", errs[0], errs[2], errs[4])
	}
	if errs[1] == nil {
		t.Error("garbage blob accepted")
	}
	if errs[3] == nil || !strings.Contains(errs[3].Error(), "out of order") {
		t.Errorf("out-of-order chunk -> %v", errs[3])
	}
	if _, count, err := h.engine.StreamInfo("s"); err != nil || count != 3 {
		t.Fatalf("after mixed batch: count %d err %v, want 3", count, err)
	}
	// The stream continues where the valid run left off.
	if err := errOf(h.engine.Handle(context.Background(), &wire.InsertChunk{UUID: "s", Chunk: blobs[3]})); err != nil {
		t.Fatalf("follow-up insert: %v", err)
	}
}

// TestInsertChunkBatchUnknownStream: every chunk reports the lookup error.
func TestInsertChunkBatchUnknownStream(t *testing.T) {
	h := newHarness(t)
	errs := h.engine.InsertChunkBatch("nope", [][]byte{{1}, {2}})
	if len(errs) != 2 || errs[0] == nil || errs[1] == nil {
		t.Fatalf("unknown stream -> %v", errs)
	}
}
