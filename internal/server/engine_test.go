package server

import (
	"context"
	"errors"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/wire"
)

// testHarness bundles an engine with owner-side key material for sealing
// valid chunks.
type testHarness struct {
	engine *Engine
	store  *kv.MemStore
	tree   *core.Tree
	enc    *core.Encryptor
	spec   chunk.DigestSpec
	cfg    wire.StreamConfig
}

func newHarness(t *testing.T) *testHarness {
	t.Helper()
	store := kv.NewMemStore()
	engine, err := New(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.NewTree(core.NewPRG(core.PRGAES), 20, core.Node{3})
	if err != nil {
		t.Fatal(err)
	}
	spec := chunk.DigestSpec{Sum: true, Count: true}
	specBytes, _ := spec.MarshalBinary()
	cfg := wire.StreamConfig{
		Epoch: 0, Interval: 100, VectorLen: uint32(spec.VectorLen()),
		Fanout: 8, DigestSpec: specBytes,
	}
	return &testHarness{
		engine: engine, store: store, tree: tree,
		enc: core.NewEncryptor(tree.NewWalker()), spec: spec, cfg: cfg,
	}
}

// errOf returns the *wire.Error an engine response carries, or nil.
func errOf(resp wire.Message) error {
	if e, ok := resp.(*wire.Error); ok {
		return e
	}
	return nil
}

func (h *testHarness) createStream(t *testing.T, uuid string) {
	t.Helper()
	if err := h.engine.CreateStream(uuid, h.cfg); err != nil {
		t.Fatal(err)
	}
}

// ingest seals n chunks each holding one point with value i+1.
func (h *testHarness) ingest(t *testing.T, uuid string, n uint64) {
	t.Helper()
	h.ingestFrom(t, uuid, 0, n)
}

// ingestFrom seals chunks [from, from+n); the walker-backed encryptor
// derives keys sequentially, so calls must cover contiguous ranges.
func (h *testHarness) ingestFrom(t *testing.T, uuid string, from, n uint64) {
	t.Helper()
	for i := from; i < from+n; i++ {
		start := int64(i) * 100
		sealed, err := chunk.Seal(h.enc, h.spec, chunk.CompressionNone, i, start, start+100,
			[]chunk.Point{{TS: start, Val: int64(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := errOf(h.engine.Handle(context.Background(), &wire.InsertChunk{UUID: uuid, Chunk: chunk.MarshalSealed(sealed)})); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
}

func TestCreateStreamValidation(t *testing.T) {
	h := newHarness(t)
	if err := h.engine.CreateStream("", h.cfg); err == nil {
		t.Error("empty UUID accepted")
	}
	bad := h.cfg
	bad.Interval = 0
	if err := h.engine.CreateStream("s", bad); err == nil {
		t.Error("zero interval accepted")
	}
	bad = h.cfg
	bad.VectorLen = 0
	if err := h.engine.CreateStream("s", bad); err == nil {
		t.Error("zero vector accepted")
	}
	h.createStream(t, "s")
	if err := h.engine.CreateStream("s", h.cfg); err == nil {
		t.Error("duplicate stream accepted")
	}
}

func TestInsertChunkValidation(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t)
	h.createStream(t, "s")
	if err := errOf(h.engine.Handle(ctx, &wire.InsertChunk{UUID: "nope", Chunk: []byte{1}})); err == nil {
		t.Error("unknown stream accepted")
	}
	if err := errOf(h.engine.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: []byte{0xff, 0xff}})); err == nil {
		t.Error("garbage chunk accepted")
	}
	// Out-of-order chunk index.
	sealed, _ := chunk.Seal(h.enc, h.spec, chunk.CompressionNone, 5, 500, 600, nil)
	if err := errOf(h.engine.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: chunk.MarshalSealed(sealed)})); err == nil {
		t.Error("out-of-order chunk accepted")
	}
	// Wrong geometry: interval mismatch.
	enc2 := core.NewEncryptor(h.tree.NewWalker())
	sealed, _ = chunk.Seal(enc2, h.spec, chunk.CompressionNone, 0, 0, 50, nil)
	if err := errOf(h.engine.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: chunk.MarshalSealed(sealed)})); err == nil {
		t.Error("geometry-mismatched chunk accepted")
	}
	// Wrong digest width.
	otherSpec := chunk.SumOnlySpec()
	enc3 := core.NewEncryptor(h.tree.NewWalker())
	sealed, _ = chunk.Seal(enc3, otherSpec, chunk.CompressionNone, 0, 0, 100, nil)
	if err := errOf(h.engine.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: chunk.MarshalSealed(sealed)})); err == nil {
		t.Error("wrong-width digest accepted")
	}
}

func TestStatRangeDecryptsCorrectly(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 50)
	from, to, windows, err := h.engine.StatRange(context.Background(), []string{"s"}, 1000, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if from != 10 || to != 30 {
		t.Fatalf("chunk range [%d,%d), want [10,30)", from, to)
	}
	dec := core.NewEncryptor(h.tree.NewWalker())
	vec, err := dec.DecryptRange(from, to, windows[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := h.spec.Interpret(vec)
	var want int64
	for i := 10; i < 30; i++ {
		want += int64(i + 1)
	}
	if r.Sum != want || r.Count != 20 {
		t.Errorf("sum=%d count=%d, want %d, 20", r.Sum, r.Count, want)
	}
}

func TestStatRangeWindows(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 24)
	from, to, windows, err := h.engine.StatRange(context.Background(), []string{"s"}, 0, 2400, 6)
	if err != nil {
		t.Fatal(err)
	}
	if from != 0 || to != 24 || len(windows) != 4 {
		t.Fatalf("from=%d to=%d windows=%d", from, to, len(windows))
	}
	dec := core.NewEncryptor(h.tree.NewWalker())
	for w := uint64(0); w < 4; w++ {
		vec, err := dec.DecryptRange(w*6, (w+1)*6, windows[w], nil)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := h.spec.Interpret(vec)
		if r.Count != 6 {
			t.Errorf("window %d count=%d", w, r.Count)
		}
	}
}

func TestStatRangeWindowAlignment(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 20)
	// Query [300, 1500) = chunks [3, 15); with 6-chunk windows the grid
	// must align to absolute positions: [0,6) [6,12) — from=0, to=12.
	from, to, windows, err := h.engine.StatRange(context.Background(), []string{"s"}, 300, 1500, 6)
	if err != nil {
		t.Fatal(err)
	}
	if from != 0 || to != 12 || len(windows) != 2 {
		t.Errorf("from=%d to=%d windows=%d, want 0, 12, 2", from, to, len(windows))
	}
}

func TestStatRangeErrors(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	if _, _, _, err := h.engine.StatRange(context.Background(), []string{"s"}, 0, 100, 0); err == nil {
		t.Error("query on empty stream accepted")
	}
	h.ingest(t, "s", 5)
	if _, _, _, err := h.engine.StatRange(context.Background(), nil, 0, 100, 0); err == nil {
		t.Error("no streams accepted")
	}
	if _, _, _, err := h.engine.StatRange(context.Background(), []string{"s"}, 100, 100, 0); err == nil {
		t.Error("empty range accepted")
	}
	if _, _, _, err := h.engine.StatRange(context.Background(), []string{"s"}, 99999, 999999, 0); err == nil {
		t.Error("range beyond data accepted")
	}
	if _, _, _, err := h.engine.StatRange(context.Background(), []string{"missing"}, 0, 100, 0); err == nil {
		t.Error("unknown stream accepted")
	}
}

func TestStatRangeMultiStream(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "a")
	h.createStream(t, "b")
	h.ingest(t, "a", 10)
	// Second stream, separate keys.
	tree2, _ := core.NewTree(core.NewPRG(core.PRGAES), 20, core.Node{77})
	enc2 := core.NewEncryptor(tree2.NewWalker())
	for i := uint64(0); i < 10; i++ {
		start := int64(i) * 100
		sealed, _ := chunk.Seal(enc2, h.spec, chunk.CompressionNone, i, start, start+100,
			[]chunk.Point{{TS: start, Val: 100}})
		if err := errOf(h.engine.Handle(context.Background(), &wire.InsertChunk{UUID: "b", Chunk: chunk.MarshalSealed(sealed)})); err != nil {
			t.Fatal(err)
		}
	}
	from, to, windows, err := h.engine.StatRange(context.Background(), []string{"a", "b"}, 0, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Decrypt: peel stream a's keys, then stream b's.
	decA := core.NewEncryptor(h.tree.NewWalker())
	decB := core.NewEncryptor(tree2.NewWalker())
	vec, err := decA.DecryptRange(from, to, windows[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	vec, err = decB.DecryptRange(from, to, vec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := h.spec.Interpret(vec)
	want := int64(55 + 1000) // 1+..+10 plus 10*100
	if r.Sum != want || r.Count != 20 {
		t.Errorf("sum=%d count=%d, want %d, 20", r.Sum, r.Count, want)
	}
	// Geometry mismatch rejected.
	bad := h.cfg
	bad.Interval = 999
	if err := h.engine.CreateStream("c", bad); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := h.engine.StatRange(context.Background(), []string{"a", "c"}, 0, 1000, 0); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

func TestGetRangeReturnsChunks(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 10)
	chunks, err := h.engine.GetRange(context.Background(), "s", 250, 750)
	if err != nil {
		t.Fatal(err)
	}
	// Chunks 2..7 overlap [250, 750).
	if len(chunks) != 6 {
		t.Fatalf("got %d chunks, want 6", len(chunks))
	}
	sealed, err := chunk.UnmarshalSealed(chunks[0])
	if err != nil {
		t.Fatal(err)
	}
	if sealed.Index != 2 {
		t.Errorf("first chunk index %d, want 2", sealed.Index)
	}
}

func TestDeleteRangeKeepsDigests(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 10)
	if err := errOf(h.engine.Handle(context.Background(), &wire.DeleteRange{UUID: "s", Ts: 0, Te: 500})); err != nil {
		t.Fatal(err)
	}
	chunks, err := h.engine.GetRange(context.Background(), "s", 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range chunks {
		sealed, _ := chunk.UnmarshalSealed(raw)
		if sealed.Index < 5 && len(sealed.Payload) != 0 {
			t.Errorf("chunk %d payload survived delete", sealed.Index)
		}
		if sealed.Index >= 5 && len(sealed.Payload) == 0 {
			t.Errorf("chunk %d payload wrongly deleted", sealed.Index)
		}
	}
	// Statistics over the deleted range still work.
	if _, _, _, err := h.engine.StatRange(context.Background(), []string{"s"}, 0, 500, 0); err != nil {
		t.Errorf("stats after delete: %v", err)
	}
}

func TestRollupDropsChunksAndFineIndex(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 64)
	if err := errOf(h.engine.Handle(context.Background(), &wire.Rollup{UUID: "s", Factor: 8, Ts: 0, Te: 6400})); err != nil {
		t.Fatal(err)
	}
	chunks, err := h.engine.GetRange(context.Background(), "s", 0, 6400)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 0 {
		t.Errorf("%d chunks survived rollup", len(chunks))
	}
	// Coarse stats still answer (8-chunk windows, fanout 8 → level 1).
	if _, _, _, err := h.engine.StatRange(context.Background(), []string{"s"}, 0, 6400, 8); err != nil {
		t.Errorf("coarse stats after rollup: %v", err)
	}
	// Fine stats must fail: level-0 digests are gone.
	if _, _, _, err := h.engine.StatRange(context.Background(), []string{"s"}, 100, 300, 0); err == nil {
		t.Error("fine stats answered after rollup")
	}
}

func TestDeleteStreamRemovesEverything(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 10)
	h.engine.Handle(ctx, &wire.PutGrant{UUID: "s", Principal: "p", GrantID: "g1", Blob: []byte{1}})
	h.engine.Handle(ctx, &wire.PutEnvelopes{UUID: "s", Factor: 6, Envs: []wire.WireEnvelope{{Index: 0, Box: []byte{2}}}})
	if err := errOf(h.engine.Handle(ctx, &wire.DeleteStream{UUID: "s"})); err != nil {
		t.Fatal(err)
	}
	if h.store.Len() != 0 {
		t.Errorf("%d keys survived stream deletion", h.store.Len())
	}
	if err := errOf(h.engine.Handle(ctx, &wire.DeleteStream{UUID: "s"})); err == nil {
		t.Error("double delete accepted")
	}
}

func TestGrantStorage(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t)
	h.createStream(t, "s")
	if err := errOf(h.engine.Handle(ctx, &wire.PutGrant{UUID: "s", Principal: "", GrantID: "g", Blob: []byte{1}})); err == nil {
		t.Error("empty principal accepted")
	}
	h.engine.Handle(ctx, &wire.PutGrant{UUID: "s", Principal: "alice", GrantID: "g1", Blob: []byte{1}})
	h.engine.Handle(ctx, &wire.PutGrant{UUID: "s", Principal: "alice", GrantID: "g2", Blob: []byte{2}})
	h.engine.Handle(ctx, &wire.PutGrant{UUID: "s", Principal: "bob", GrantID: "g3", Blob: []byte{3}})
	blobs, err := h.engine.GetGrants("s", "alice")
	if err != nil || len(blobs) != 2 {
		t.Fatalf("alice has %d grants, want 2 (%v)", len(blobs), err)
	}
	if err := errOf(h.engine.Handle(ctx, &wire.DeleteGrant{UUID: "s", Principal: "alice", GrantID: "g1"})); err != nil {
		t.Fatal(err)
	}
	blobs, _ = h.engine.GetGrants("s", "alice")
	if len(blobs) != 1 {
		t.Errorf("alice has %d grants after revoke, want 1", len(blobs))
	}
	// Delete all.
	if err := errOf(h.engine.Handle(ctx, &wire.DeleteGrant{UUID: "s", Principal: "alice", GrantID: ""})); err != nil {
		t.Fatal(err)
	}
	blobs, _ = h.engine.GetGrants("s", "alice")
	if len(blobs) != 0 {
		t.Errorf("alice has %d grants after revoke-all", len(blobs))
	}
	blobs, _ = h.engine.GetGrants("s", "bob")
	if len(blobs) != 1 {
		t.Error("bob's grant disappeared")
	}
}

func TestEnvelopeStorage(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	envs := []wire.WireEnvelope{{Index: 0, Box: []byte{1}}, {Index: 1, Box: []byte{2}}, {Index: 5, Box: []byte{3}}}
	if err := errOf(h.engine.Handle(context.Background(), &wire.PutEnvelopes{UUID: "s", Factor: 6, Envs: envs})); err != nil {
		t.Fatal(err)
	}
	got, err := h.engine.GetEnvelopes("s", 6, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d envelopes, want 3", len(got))
	}
	got, _ = h.engine.GetEnvelopes("s", 6, 1, 1)
	if len(got) != 1 || got[0].Index != 1 {
		t.Error("range fetch wrong")
	}
	// Different factor namespace.
	got, _ = h.engine.GetEnvelopes("s", 60, 0, 10)
	if len(got) != 0 {
		t.Error("factor namespaces collide")
	}
	if _, err := h.engine.GetEnvelopes("s", 6, 5, 2); err == nil {
		t.Error("reversed envelope range accepted")
	}
	if err := errOf(h.engine.Handle(context.Background(), &wire.PutEnvelopes{UUID: "s", Factor: 0, Envs: envs})); err == nil {
		t.Error("zero factor accepted")
	}
}

func TestEngineRecoversFromStore(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 20)
	// A second engine over the same store sees the stream and its data —
	// the paper's horizontally-scalable stateless instances.
	engine2, err := New(h.store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, count, err := engine2.StreamInfo("s")
	if err != nil {
		t.Fatal(err)
	}
	if count != 20 || cfg.Interval != 100 {
		t.Errorf("recovered count=%d interval=%d", count, cfg.Interval)
	}
	if _, _, _, err := engine2.StatRange(context.Background(), []string{"s"}, 0, 2000, 0); err != nil {
		t.Errorf("recovered engine cannot query: %v", err)
	}
}

func TestStreamInfoUnknown(t *testing.T) {
	h := newHarness(t)
	_, _, err := h.engine.StreamInfo("nope")
	if err == nil || !errors.Is(err, errStreamNotFound) {
		t.Errorf("want errStreamNotFound, got %v", err)
	}
}
