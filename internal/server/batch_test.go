package server

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/chunk"
	"repro/internal/kv"
	"repro/internal/wire"
)

// TestEngineBatchExecution: a batch interleaving ordered inserts for
// several streams plus lookups executes with per-stream order preserved
// and responses in request order.
func TestEngineBatchExecution(t *testing.T) {
	h := newHarness(t)
	const streams = 3
	for i := 0; i < streams; i++ {
		h.createStream(t, fmt.Sprintf("b%d", i))
	}
	var reqs []wire.Message
	for c := uint64(0); c < 4; c++ {
		for s := 0; s < streams; s++ {
			start := int64(c) * 100
			sealed, err := chunk.SealPlain(h.spec, chunk.CompressionNone, c, start, start+100,
				[]chunk.Point{{TS: start, Val: int64(c + 1)}})
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, &wire.InsertChunk{UUID: fmt.Sprintf("b%d", s), Chunk: chunk.MarshalSealed(sealed)})
		}
	}
	reqs = append(reqs, &wire.StreamInfo{UUID: "b0"}, &wire.ListStreams{})
	resp := h.engine.Handle(context.Background(), &wire.Batch{Reqs: reqs})
	br, ok := resp.(*wire.BatchResp)
	if !ok || len(br.Resps) != len(reqs) {
		t.Fatalf("batch -> %#v", resp)
	}
	for i := 0; i < 4*streams; i++ {
		if _, ok := br.Resps[i].(*wire.OK); !ok {
			t.Fatalf("insert %d -> %#v", i, br.Resps[i])
		}
	}
	if info, ok := br.Resps[4*streams].(*wire.StreamInfoResp); !ok || info.Count != 4 {
		t.Fatalf("info -> %#v", br.Resps[4*streams])
	}
	if ls, ok := br.Resps[4*streams+1].(*wire.ListStreamsResp); !ok || len(ls.UUIDs) != streams {
		t.Fatalf("list -> %#v", br.Resps[4*streams+1])
	}

	// A locally-built nested batch is rejected per element, not fatally.
	resp = h.engine.Handle(context.Background(), &wire.Batch{Reqs: []wire.Message{
		&wire.Batch{}, &wire.StreamInfo{UUID: "b0"},
	}})
	br, ok = resp.(*wire.BatchResp)
	if !ok || len(br.Resps) != 2 {
		t.Fatalf("nested batch -> %#v", resp)
	}
	if e, bad := br.Resps[0].(*wire.Error); !bad || e.Code != wire.CodeBadRequest {
		t.Errorf("nested element -> %#v", br.Resps[0])
	}
	if _, ok := br.Resps[1].(*wire.StreamInfoResp); !ok {
		t.Errorf("sibling of nested element -> %#v", br.Resps[1])
	}

	// A canceled context fails batch elements with CodeCanceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp = h.engine.Handle(ctx, &wire.StreamInfo{UUID: "b0"})
	if e, bad := resp.(*wire.Error); !bad || e.Code != wire.CodeCanceled {
		t.Errorf("canceled ctx -> %#v", resp)
	}
}

// TestStagedIndexRebuiltAfterRestart: records staged by one engine
// instance must be garbage-collected by a second instance over the same
// store when the sealed chunk arrives — the in-memory staged index is
// rebuilt lazily from the store on first touch.
func TestStagedIndexRebuiltAfterRestart(t *testing.T) {
	store := kv.NewMemStore()
	engine1, err := New(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t) // only for spec/cfg/key material
	if err := engine1.CreateStream("s", h.cfg); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < 3; seq++ {
		if err := errOf(engine1.Handle(context.Background(), &wire.StageRecord{UUID: "s", ChunkIndex: 0, Seq: seq, Box: []byte{byte(seq)}})); err != nil {
			t.Fatal(err)
		}
	}

	// "Restart": a second engine over the same store.
	engine2, err := New(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	boxes, err := engine2.GetStaged("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 3 {
		t.Fatalf("restarted engine sees %d staged records, want 3", len(boxes))
	}
	sealed, err := chunk.Seal(h.enc, h.spec, chunk.CompressionNone, 0, 0, 100,
		[]chunk.Point{{TS: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := errOf(engine2.Handle(context.Background(), &wire.InsertChunk{UUID: "s", Chunk: chunk.MarshalSealed(sealed)})); err != nil {
		t.Fatal(err)
	}
	if boxes, _ := engine2.GetStaged("s", 0); len(boxes) != 0 {
		t.Errorf("%d staged records survived seal after restart", len(boxes))
	}
	// And the store keys themselves are gone.
	leaked := 0
	store.Scan("r/s/", func(string, []byte) bool { leaked++; return true })
	if leaked != 0 {
		t.Errorf("%d staged store keys leaked", leaked)
	}
}

// TestStagedIndexNoScanOnInsert proves the ROADMAP item is closed: after
// the first touch, chunk inserts do not scan the store for staged records.
func TestStagedIndexNoScanOnInsert(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	// First insert loads the (empty) staged index.
	h.ingest(t, "s", 1)
	before := h.store.Stats().Scans
	start := int64(1) * 100
	sealed, err := chunk.Seal(h.enc, h.spec, chunk.CompressionNone, 1, start, start+100,
		[]chunk.Point{{TS: start, Val: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := errOf(h.engine.Handle(context.Background(), &wire.InsertChunk{UUID: "s", Chunk: chunk.MarshalSealed(sealed)})); err != nil {
		t.Fatal(err)
	}
	if after := h.store.Stats().Scans; after != before {
		t.Errorf("InsertChunk still scans the store: %d -> %d scans", before, after)
	}
}
