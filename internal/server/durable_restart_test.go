package server

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/kv/durable"
	"repro/internal/wire"
)

// TestEngineOverDurableRestart runs the full engine over the durable
// store, restarts it from disk, and checks that streams, chunks, staged
// records, grants, and query answers all survive byte-for-byte. This is
// the in-process half of the crash story; the cmd/timecrypt-server e2e
// covers the kill -9 half.
func TestEngineOverDurableRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ds, err := durable.Open(dir, durable.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t)
	engine, err := New(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.CreateStream("s", h.cfg); err != nil {
		t.Fatal(err)
	}
	enc := core.NewEncryptor(h.tree.NewWalker())
	for i := uint64(0); i < 30; i++ {
		start := int64(i) * 100
		sealed, err := chunk.Seal(enc, h.spec, chunk.CompressionNone, i, start, start+100,
			[]chunk.Point{{TS: start, Val: int64(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := errOf(engine.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: chunk.MarshalSealed(sealed)})); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	if err := errOf(engine.Handle(ctx, &wire.StageRecord{UUID: "s", ChunkIndex: 30, Seq: 7, Box: []byte{1, 2, 3}})); err != nil {
		t.Fatal(err)
	}
	if err := errOf(engine.Handle(ctx, &wire.PutGrant{UUID: "s", Principal: "doc", GrantID: "g1", Blob: []byte{9, 9}})); err != nil {
		t.Fatal(err)
	}
	_, _, wantWindows, err := engine.StatRange(context.Background(), []string{"s"}, 0, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2, err := durable.Open(dir, durable.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	engine2, err := New(ds2, Config{})
	if err != nil {
		t.Fatalf("engine over recovered store: %v", err)
	}
	_, _, gotWindows, err := engine2.StatRange(context.Background(), []string{"s"}, 0, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotWindows, wantWindows) {
		t.Fatalf("query answers diverged across restart:\n got %v\nwant %v", gotWindows, wantWindows)
	}
	if gs, err := engine2.GetGrants("s", "doc"); err != nil || len(gs) != 1 || string(gs[0]) != string([]byte{9, 9}) {
		t.Fatalf("grant lost: %v, %v", gs, err)
	}
	// The recovered engine keeps ingesting where the old one stopped.
	start := int64(30) * 100
	sealed, err := chunk.Seal(enc, h.spec, chunk.CompressionNone, 30, start, start+100,
		[]chunk.Point{{TS: start, Val: 31}})
	if err != nil {
		t.Fatal(err)
	}
	if err := errOf(engine2.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: chunk.MarshalSealed(sealed)})); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}

// TestShardedPartitionsOverDurableRestart is the -shards composition: N
// prefix partitions over ONE durable store, each with its own engine.
func TestShardedPartitionsOverDurableRestart(t *testing.T) {
	dir := t.TempDir()
	ds, err := durable.Open(dir, durable.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t)
	for i, uuid := range []string{"a", "b"} {
		part := kv.NewPrefixStore(ds, []string{"s0/", "s1/"}[i])
		eng, err := New(part, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.CreateStream(uuid, h.cfg); err != nil {
			t.Fatal(err)
		}
		enc := core.NewEncryptor(h.tree.NewWalker())
		sealed, err := chunk.Seal(enc, h.spec, chunk.CompressionNone, 0, 0, 100,
			[]chunk.Point{{TS: 0, Val: int64(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := errOf(eng.Handle(context.Background(), &wire.InsertChunk{UUID: uuid, Chunk: chunk.MarshalSealed(sealed)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2, err := durable.Open(dir, durable.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	for i, uuid := range []string{"a", "b"} {
		eng, err := New(kv.NewPrefixStore(ds2, []string{"s0/", "s1/"}[i]), Config{})
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
		_, _, windows, err := eng.StatRange(context.Background(), []string{uuid}, 0, 100, 0)
		if err != nil {
			t.Fatalf("partition %d query: %v", i, err)
		}
		if len(windows) != 1 {
			t.Fatalf("partition %d: %d windows", i, len(windows))
		}
	}
}
