package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/wire"
)

func TestStagedRecordLifecycle(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t)
	h.createStream(t, "s")
	if err := errOf(h.engine.Handle(ctx, &wire.StageRecord{UUID: "nope", ChunkIndex: 0, Seq: 0, Box: []byte{1}})); err == nil {
		t.Error("staging on unknown stream accepted")
	}
	// Stage three records for chunk 0 out of order; GetStaged must
	// return them in sequence order.
	h.engine.Handle(ctx, &wire.StageRecord{UUID: "s", ChunkIndex: 0, Seq: 2, Box: []byte{2}})
	h.engine.Handle(ctx, &wire.StageRecord{UUID: "s", ChunkIndex: 0, Seq: 0, Box: []byte{0}})
	h.engine.Handle(ctx, &wire.StageRecord{UUID: "s", ChunkIndex: 0, Seq: 1, Box: []byte{1}})
	boxes, err := h.engine.GetStaged("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 3 {
		t.Fatalf("staged = %d, want 3", len(boxes))
	}
	for i, b := range boxes {
		if b[0] != byte(i) {
			t.Errorf("staged order wrong at %d: %v", i, b)
		}
	}
	// Sealing chunk 0 garbage-collects its staged records.
	h.ingest(t, "s", 1)
	boxes, err = h.engine.GetStaged("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 0 {
		t.Errorf("%d staged records survived seal", len(boxes))
	}
	// Staging for a sealed chunk is rejected.
	if err := errOf(h.engine.Handle(ctx, &wire.StageRecord{UUID: "s", ChunkIndex: 0, Seq: 9, Box: []byte{9}})); err == nil {
		t.Error("staging for sealed chunk accepted")
	}
	// Staging for a future chunk is fine.
	if err := errOf(h.engine.Handle(ctx, &wire.StageRecord{UUID: "s", ChunkIndex: 5, Seq: 0, Box: []byte{5}})); err != nil {
		t.Errorf("future staging rejected: %v", err)
	}
}

func TestHandleStagingMessages(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	resp := h.engine.Handle(context.Background(), &wire.StageRecord{UUID: "s", ChunkIndex: 0, Seq: 0, Box: []byte{7}})
	if _, ok := resp.(*wire.OK); !ok {
		t.Fatalf("StageRecord -> %#v", resp)
	}
	resp = h.engine.Handle(context.Background(), &wire.GetStaged{UUID: "s", ChunkIndex: 0})
	gs, ok := resp.(*wire.GetStagedResp)
	if !ok || len(gs.Boxes) != 1 || gs.Boxes[0][0] != 7 {
		t.Fatalf("GetStaged -> %#v", resp)
	}
}

func TestDeleteStreamRemovesStaged(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.engine.Handle(context.Background(), &wire.StageRecord{UUID: "s", ChunkIndex: 3, Seq: 0, Box: []byte{1}})
	if err := errOf(h.engine.Handle(context.Background(), &wire.DeleteStream{UUID: "s"})); err != nil {
		t.Fatal(err)
	}
	if h.store.Len() != 0 {
		t.Errorf("%d keys survived stream deletion (staged leak)", h.store.Len())
	}
}

// TestConcurrentMixedLoad stresses the engine with parallel ingest,
// queries, staging, and grant traffic across multiple streams.
func TestConcurrentMixedLoad(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t)
	const streams = 4
	for i := 0; i < streams; i++ {
		h.createStream(t, fmt.Sprintf("s%d", i))
	}
	var wg sync.WaitGroup
	errCh := make(chan error, streams*3)
	for i := 0; i < streams; i++ {
		uuid := fmt.Sprintf("s%d", i)
		// Writer.
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			enc := newHarness(t) // fresh key material per stream
			for c := uint64(0); c < 100; c++ {
				start := int64(c) * 100
				sealed, err := chunk.Seal(enc.enc, h.spec, chunk.CompressionNone, c, start, start+100,
					[]chunk.Point{{TS: start, Val: int64(c)}})
				if err != nil {
					errCh <- err
					return
				}
				if err := errOf(h.engine.Handle(ctx, &wire.InsertChunk{UUID: uuid, Chunk: chunk.MarshalSealed(sealed)})); err != nil {
					errCh <- err
					return
				}
			}
		}(i)
		// Reader: queries whatever has been ingested so far.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < 200; q++ {
				_, _, _, err := h.engine.StatRange(context.Background(), []string{uuid}, 0, 10_000, 0)
				if err != nil && err.Error() != "server: stream has no data" {
					// Races with ingest are fine; structural errors are not.
					continue
				}
			}
		}()
		// Grant churn.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := 0; g < 50; g++ {
				id := fmt.Sprintf("g%d", g)
				if err := errOf(h.engine.Handle(ctx, &wire.PutGrant{UUID: uuid, Principal: "p", GrantID: id, Blob: []byte{byte(g)}})); err != nil {
					errCh <- err
					return
				}
				if _, err := h.engine.GetGrants(uuid, "p"); err != nil {
					errCh <- err
					return
				}
				if g%2 == 0 {
					h.engine.Handle(ctx, &wire.DeleteGrant{UUID: uuid, Principal: "p", GrantID: id})
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for i := 0; i < streams; i++ {
		_, count, err := h.engine.StreamInfo(fmt.Sprintf("s%d", i))
		if err != nil || count != 100 {
			t.Errorf("stream s%d: count=%d err=%v", i, count, err)
		}
	}
}
