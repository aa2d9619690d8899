package replica

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/kv"
	"repro/internal/kv/durable"
	"repro/internal/kv/kvtest"
	"repro/internal/server"
	"repro/internal/wire"
)

// newDurableNode returns a bare Node (frames are injected straight into
// Handle) over a durable store in dir.
func newDurableNode(t testing.TB, dir string) (*Node, *durable.Store) {
	t.Helper()
	st, err := durable.Open(dir, durable.Options{Sync: durable.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	node, err := New(st, server.Config{}, Options{Self: "victim:1", Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close(); st.Close() })
	return node, st
}

// insertRecords marshals InsertChunk records for chunks [from, to) of "s".
func insertRecords(t testing.TB, from, to uint64) [][]byte {
	t.Helper()
	recs := make([][]byte, 0, to-from)
	for i := from; i < to; i++ {
		recs = append(recs, record(&wire.InsertChunk{UUID: "s", Chunk: testSealedChunk(t, i)}))
	}
	return recs
}

func wantAck(t testing.TB, resp wire.Message, watermark uint64) {
	t.Helper()
	if ack, ok := resp.(*wire.ReplAck); !ok || ack.Watermark != watermark {
		t.Fatalf("got %#v, want an ack at watermark %d", resp, watermark)
	}
}

// TestFrameIsOneWALRecord: however many records a ReplAppend carries, the
// follower commits them as one store batch — one WAL record — and frames
// that repeat what is already applied write nothing.
func TestFrameIsOneWALRecord(t *testing.T) {
	node, st := newDurableNode(t, t.TempDir())
	ctx := context.Background()
	records := func() uint64 { return st.Stats().Records }

	wantAck(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 1,
		Records: [][]byte{record(&wire.CreateStream{UUID: "s", Cfg: testCfg()})}}), 1)
	before := records()
	frame := &wire.ReplAppend{Epoch: 1, FirstSeq: 2, Records: insertRecords(t, 0, 60)}
	wantAck(t, node.Handle(ctx, frame), 61)
	if got := records() - before; got != 1 {
		t.Fatalf("a 60-record frame cost %d WAL records, want 1", got)
	}
	if info, ok := node.Handle(ctx, &wire.StreamInfo{UUID: "s"}).(*wire.StreamInfoResp); !ok || info.Count != 60 {
		t.Fatalf("StreamInfo after the frame -> %#v", info)
	}

	// A full duplicate (a retry after a lost ack) applies and writes nothing.
	before = records()
	wantAck(t, node.Handle(ctx, frame), 61)
	if got := records() - before; got != 0 {
		t.Fatalf("a duplicate frame cost %d WAL records, want 0", got)
	}
	// An overlapping frame skips its applied prefix and lands the rest, in
	// one record again.
	overlap := &wire.ReplAppend{Epoch: 1, FirstSeq: 52, Records: insertRecords(t, 50, 70)}
	wantAck(t, node.Handle(ctx, overlap), 71)
	if got := records() - before; got != 1 {
		t.Fatalf("an overlapping frame cost %d WAL records, want 1", got)
	}
	if info, ok := node.Handle(ctx, &wire.StreamInfo{UUID: "s"}).(*wire.StreamInfoResp); !ok || info.Count != 70 {
		t.Fatalf("StreamInfo after the overlap -> %#v", info)
	}
	// A Batch envelope fans its streams out over goroutines inside one
	// record: still one frame, one WAL record.
	before = records()
	batch := &wire.Batch{Reqs: []wire.Message{
		&wire.CreateStream{UUID: "t", Cfg: testCfg()},
		&wire.InsertChunk{UUID: "s", Chunk: testSealedChunk(t, 70)},
		&wire.InsertChunk{UUID: "s", Chunk: testSealedChunk(t, 71)},
	}}
	wantAck(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 72,
		Records: [][]byte{record(batch), record(&wire.InsertChunk{UUID: "t", Chunk: testSealedChunk(t, 0)})}}), 73)
	if got := records() - before; got != 1 {
		t.Fatalf("a frame with a Batch envelope cost %d WAL records, want 1", got)
	}
}

// TestFrameDivergingMidwayKeepsItsPrefix: record 30 of a frame diverges.
// Records 1..29 are committed and acknowledged by watermark, the error is
// returned, nothing after is applied — and the prefix is in the store, not
// only in the engine's memory: it survives a reopen.
func TestFrameDivergingMidwayKeepsItsPrefix(t *testing.T) {
	dir := t.TempDir()
	node, st := newDurableNode(t, dir)
	ctx := context.Background()
	recs := [][]byte{record(&wire.CreateStream{UUID: "s", Cfg: testCfg()})} // seq 1
	recs = append(recs, insertRecords(t, 0, 28)...)                         // seq 2..29
	recs = append(recs, record(&wire.CreateStream{UUID: "s", Cfg: testCfg()}))
	recs = append(recs, insertRecords(t, 28, 38)...)
	wantErr(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 1, Records: recs}), wire.CodeInternal)
	if _, _, wm := node.Status(); wm != 29 {
		t.Fatalf("watermark %d after a frame that diverged at record 30, want 29", wm)
	}
	// The leader reships from the watermark: the same divergence, no
	// progress, nothing applied twice.
	wantErr(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 30, Records: recs[29:]}), wire.CodeInternal)
	if _, _, wm := node.Status(); wm != 29 {
		t.Fatalf("watermark moved to %d on the reshipped divergence", wm)
	}
	want := statBytes(t, node, "s")
	node.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := durable.Open(dir, durable.Options{Sync: durable.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	engine, err := server.New(re, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, count, err := engine.StreamInfo("s"); err != nil || count != 28 {
		t.Fatalf("reopened store holds %d chunks (%v), want the 28 of records 2..29", count, err)
	}
	resp := engine.Handle(ctx, &wire.StatRange{UUIDs: []string{"s"}, Ts: 0, Te: 1 << 40, WindowChunks: 4})
	if got := wire.Marshal(resp); string(got) != string(want) {
		t.Fatalf("the reopened prefix answers %#v, the live follower answered differently", resp)
	}
	if chunks, err := engine.GetRange(ctx, "s", 0, 2800); err != nil || len(chunks) != 28 {
		t.Fatalf("reopened store returns %d chunks (%v), want 28", len(chunks), err)
	}
}

// TestReadsDuringFrames: clients read from a follower while frames land.
// What a reader sees is a prefix of the stream — nothing of a frame, or
// some of its records whole — never a torn one: the aggregate over the
// range the engine reports always equals the plaintext sum over exactly
// that range, and every chunk in it is retrievable.
func TestReadsDuringFrames(t *testing.T) {
	node := newBareNode(t)
	ctx := context.Background()
	wantAck(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 1,
		Records: [][]byte{record(&wire.CreateStream{UUID: "s", Cfg: testCfg()})}}), 1)
	wantAck(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 2, Records: insertRecords(t, 0, 1)}), 2)

	const frames, perFrame = 40, 25
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, ok := node.Handle(ctx, &wire.StatRange{UUIDs: []string{"s"}, Ts: 0, Te: 1 << 40}).(*wire.StatRangeResp)
				if !ok {
					t.Errorf("StatRange during a frame -> %#v", resp)
					return
				}
				n := resp.ToChunk
				if resp.FromChunk != 0 || n == 0 || resp.Windows[0][0] != n*(n+1)/2 || resp.Windows[0][1] != n {
					t.Errorf("StatRange saw chunks [%d,%d) summing to %d over %d points: not a prefix of the stream",
						resp.FromChunk, n, resp.Windows[0][0], resp.Windows[0][1])
					return
				}
				got, ok := node.Handle(ctx, &wire.GetRange{UUID: "s", Ts: 0, Te: int64(n) * 100}).(*wire.GetRangeResp)
				if !ok || uint64(len(got.Chunks)) != n {
					t.Errorf("GetRange over the %d chunks StatRange just covered -> %#v", n, got)
					return
				}
				last, err := chunk.UnmarshalSealed(got.Chunks[n-1])
				if err != nil || last.Index != n-1 {
					t.Errorf("chunk %d read back as %#v (%v)", n-1, last, err)
					return
				}
			}
		}()
	}
	for f := uint64(0); f < frames; f++ {
		from := 1 + f*perFrame
		wantAck(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 2 + from,
			Records: insertRecords(t, from, from+perFrame)}), 1+from+perFrame)
	}
	close(stop)
	wg.Wait()
}

// failingStore refuses every write once broken is set.
type failingStore struct {
	kv.Store
	broken bool
}

func (f *failingStore) Batch(ops []kv.Op) error {
	if f.broken {
		return errors.New("disk full")
	}
	return f.Store.Batch(ops)
}

// TestFrameTheStoreRefuses: when the frame's one commit fails, the follower
// acknowledges nothing, reports the failure, and serves what the store
// holds — not what the replay had reached in memory.
func TestFrameTheStoreRefuses(t *testing.T) {
	store := &failingStore{Store: kv.NewMemStore()}
	node, err := New(store, server.Config{}, Options{Self: "victim:1", Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ctx := context.Background()
	wantAck(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 1,
		Records: [][]byte{record(&wire.CreateStream{UUID: "s", Cfg: testCfg()})}}), 1)
	wantAck(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 2, Records: insertRecords(t, 0, 5)}), 6)

	store.broken = true
	wantErr(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 7, Records: insertRecords(t, 5, 15)}), wire.CodeInternal)
	if _, _, wm := node.Status(); wm != 6 {
		t.Fatalf("watermark %d after a refused commit, want 6", wm)
	}
	if info, ok := node.Handle(ctx, &wire.StreamInfo{UUID: "s"}).(*wire.StreamInfoResp); !ok || info.Count != 5 {
		t.Fatalf("StreamInfo after a refused commit -> %#v, want the 5 chunks the store holds", info)
	}
	// The store recovers; the leader reships the same frame and it lands.
	store.broken = false
	wantAck(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 7, Records: insertRecords(t, 5, 15)}), 16)
	if info, ok := node.Handle(ctx, &wire.StreamInfo{UUID: "s"}).(*wire.StreamInfoResp); !ok || info.Count != 15 {
		t.Fatalf("StreamInfo after the reshipped frame -> %#v", info)
	}
}

// openFrame is a frameStore with a frame open from creation until Close,
// which commits it first.
type openFrame struct{ *frameStore }

func (f openFrame) Close() error {
	if err := f.end(); err != nil {
		return err
	}
	return f.frameStore.Close()
}

// TestFrameStoreConformance: a frameStore is a kv.Store like any other,
// whether it passes straight through or buffers an open frame.
func TestFrameStoreConformance(t *testing.T) {
	t.Run("pass-through", func(t *testing.T) {
		kvtest.Conformance(t, func(*testing.T) kv.Store { return &frameStore{Store: kv.NewMemStore()} })
	})
	t.Run("open-frame", func(t *testing.T) {
		kvtest.Conformance(t, func(*testing.T) kv.Store {
			f := openFrame{&frameStore{Store: kv.NewMemStore()}}
			f.begin()
			return f
		})
	})
}

// TestFrameGetShallow: a frameStore is a kv.ShallowGetter over any store,
// so the engine's index reads nodes in place on a node too. An open
// frame's pending value comes from the frame's own block and stays as it
// was after the frame commits and the key is overwritten; a pending delete
// reads as missing; with no frame open the read is the real store's
// GetShallow, or its Get on a store without one.
func TestFrameGetShallow(t *testing.T) {
	mem := kv.NewMemStore()
	f := &frameStore{Store: mem}
	var sg kv.ShallowGetter = f
	f.begin()
	if err := f.Put("k", []byte("pending")); err != nil {
		t.Fatal(err)
	}
	gets := mem.Stats().Gets
	pending, err := sg.GetShallow("k")
	if err != nil || string(pending) != "pending" || mem.Stats().Gets != gets {
		t.Fatalf("GetShallow in a frame = %q, %v, %d store reads; want the overlay's value", pending, err, mem.Stats().Gets-gets)
	}
	if err := f.end(); err != nil {
		t.Fatal(err)
	}
	if err := f.Put("k", []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	if string(pending) != "pending" {
		t.Fatalf("a pending value handed out changed to %q after its frame committed", pending)
	}
	if v, err := sg.GetShallow("k"); err != nil || string(v) != "overwritten" || mem.Stats().Gets != gets+1 {
		t.Fatalf("GetShallow with no frame = %q, %v; want the store's value, read once", v, err)
	}
	f.begin()
	f.Delete("k")
	if v, err := sg.GetShallow("k"); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("GetShallow of a pending delete = %q, %v; want ErrNotFound", v, err)
	}
	if err := f.end(); err != nil {
		t.Fatal(err)
	}

	plain := &frameStore{Store: &failingStore{Store: kv.NewMemStore()}}
	plain.Put("k", []byte("v"))
	if v, err := plain.GetShallow("k"); err != nil || string(v) != "v" {
		t.Fatalf("GetShallow over a store without it = %q, %v", v, err)
	}
}
