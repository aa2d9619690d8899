package server

import (
	"context"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/wire"
)

// TestAggRangeProjectsElements: the typed-plan query must return exactly
// the requested digest elements of the combined aggregate, decryptable
// with subkeys derived at the original element positions.
func TestAggRangeProjectsElements(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "a")
	h.ingest(t, "a", 10)

	// Project to the count element only (index 1 of [sum, count]).
	resp, err := h.engine.AggRange(context.Background(), []string{"a"}, 0, 1000, 0, []uint32{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Windows) != 1 || len(resp.Windows[0]) != 1 {
		t.Fatalf("windows shape %v", resp.Windows)
	}
	if resp.Epoch != h.cfg.Epoch || resp.Interval != h.cfg.Interval {
		t.Errorf("geometry echo %d/%d, want %d/%d", resp.Epoch, resp.Interval, h.cfg.Epoch, h.cfg.Interval)
	}
	dec := core.NewEncryptor(h.tree.NewWalker())
	vec, err := dec.DecryptRangeElems(resp.FromChunk, resp.ToChunk, []uint32{1}, resp.Windows[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if vec[0] != 10 {
		t.Errorf("projected count = %d, want 10", vec[0])
	}

	// Empty projection returns the full vector, matching StatRange.
	full, err := h.engine.AggRange(context.Background(), []string{"a"}, 0, 1000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Windows[0]) != h.spec.VectorLen() {
		t.Errorf("unprojected vector has %d elements, want %d", len(full.Windows[0]), h.spec.VectorLen())
	}

	// Out-of-range element indices are a bad request, not a panic.
	if _, err := h.engine.AggRange(context.Background(), []string{"a"}, 0, 1000, 0, []uint32{9}); err == nil {
		t.Error("out-of-range element accepted")
	}
}

// TestAggRangeMultiStreamSumsAndProjects: combined-then-projected windows
// equal the projection of the combined StatRange answer.
func TestAggRangeMultiStreamSumsAndProjects(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "a")
	h.createStream(t, "b")
	h.ingest(t, "a", 8)
	tree2, _ := core.NewTree(core.NewPRG(core.PRGAES), 20, core.Node{9})
	enc2 := core.NewEncryptor(tree2.NewWalker())
	for i := uint64(0); i < 8; i++ {
		start := int64(i) * 100
		sealed, _ := chunk.Seal(enc2, h.spec, chunk.CompressionNone, i, start, start+100,
			[]chunk.Point{{TS: start, Val: 7}})
		if err := errOf(h.engine.Handle(context.Background(), &wire.InsertChunk{UUID: "b", Chunk: chunk.MarshalSealed(sealed)})); err != nil {
			t.Fatal(err)
		}
	}
	uuids := []string{"a", "b"}
	fromS, toS, stat, err := h.engine.StatRange(context.Background(), uuids, 0, 800, 4)
	if err != nil {
		t.Fatal(err)
	}
	elems := []uint32{0} // sum element
	resp, err := h.engine.AggRange(context.Background(), uuids, 0, 800, 4, elems)
	if err != nil {
		t.Fatal(err)
	}
	agg := resp.Windows
	if resp.FromChunk != fromS || resp.ToChunk != toS || len(agg) != len(stat) {
		t.Fatalf("agg [%d,%d)x%d vs stat [%d,%d)x%d", resp.FromChunk, resp.ToChunk, len(agg), fromS, toS, len(stat))
	}
	for w := range agg {
		if len(agg[w]) != 1 || agg[w][0] != stat[w][0] {
			t.Errorf("window %d: projected %v vs full %v", w, agg[w], stat[w])
		}
	}
}

// TestHandleAggRange covers the wire-level dispatch, including the
// StreamCount echo and the StreamCredit rejection outside a streaming
// connection.
func TestHandleAggRange(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "a")
	h.ingest(t, "a", 5)
	resp := h.engine.Handle(context.Background(), &wire.AggRange{UUIDs: []string{"a"}, Ts: 0, Te: 500})
	ar, ok := resp.(*wire.AggRangeResp)
	if !ok {
		t.Fatalf("response %T: %v", resp, resp)
	}
	if ar.StreamCount != 1 || len(ar.Windows) != 1 {
		t.Errorf("StreamCount=%d windows=%d", ar.StreamCount, len(ar.Windows))
	}
	if _, isErr := h.engine.Handle(context.Background(), &wire.StreamCredit{ID: 1, Pages: 1}).(*wire.Error); !isErr {
		t.Error("StreamCredit accepted by a unary handler")
	}
}
