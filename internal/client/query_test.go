package client

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/crypto/hybrid"
	"repro/internal/server"
	"repro/internal/wire"
)

// countingHandler tallies statistical requests (StatRange and AggRange)
// so tests can assert paging.
type countingHandler struct {
	inner server.Handler
	stats atomic.Int64
}

func (c *countingHandler) Handle(ctx context.Context, req wire.Message) wire.Message {
	switch req.(type) {
	case *wire.StatRange, *wire.AggRange:
		c.stats.Add(1)
	}
	return c.inner.Handle(ctx, req)
}

// TestQueryCursorMatchesStatSeries: the lazy cursor must yield exactly the
// windows StatSeries materializes, across page boundaries.
func TestQueryCursorMatchesStatSeries(t *testing.T) {
	engine := newWriterEngine(t)
	counting := &countingHandler{inner: engine}
	tr := &InProc{Engine: counting}
	s := newWriterStream(t, tr, "q")
	ctx := context.Background()

	const chunks = 60
	for c := 0; c < chunks; c++ {
		start := writerEpoch + int64(c)*1000
		if err := s.AppendChunk(ctx, []chunk.Point{{TS: start, Val: int64(c)}}); err != nil {
			t.Fatal(err)
		}
	}
	te := writerEpoch + chunks*1000
	want, err := s.StatSeries(ctx, writerEpoch, te, 4)
	if err != nil {
		t.Fatal(err)
	}

	before := counting.stats.Load()
	it := s.Query().Range(writerEpoch, te).Window(4).PageSize(5).Iter(ctx)
	var got []StatResult
	for it.Next() {
		got = append(got, it.Result())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	pages := counting.stats.Load() - before
	if len(got) != len(want) {
		t.Fatalf("cursor yielded %d windows, StatSeries %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Sum != want[i].Sum || got[i].Count != want[i].Count ||
			got[i].FromChunk != want[i].FromChunk || got[i].ToChunk != want[i].ToChunk {
			t.Errorf("window %d: cursor %+v vs series %+v", i, got[i].Result, want[i].Result)
		}
	}
	// 15 windows at 5 per page = 3 paged stat requests (laziness proof:
	// each page is a separate, bounded server round trip).
	if pages != 3 {
		t.Errorf("cursor issued %d stat requests, want 3 pages", pages)
	}

	// All() drains equivalently.
	all, err := s.Query().Range(writerEpoch, te).Window(4).PageSize(5).All(ctx)
	if err != nil || len(all) != len(want) {
		t.Errorf("All: %d windows, err=%v", len(all), err)
	}

	// Scalar query (no window): one result matching StatRange.
	scalar, err := s.StatRange(ctx, writerEpoch, te)
	if err != nil {
		t.Fatal(err)
	}
	it = s.Query().Range(writerEpoch, te).Iter(ctx)
	if !it.Next() {
		t.Fatalf("scalar cursor empty: %v", it.Err())
	}
	if got := it.Result(); got.Sum != scalar.Sum || got.Count != scalar.Count {
		t.Errorf("scalar cursor %+v vs StatRange %+v", got.Result, scalar.Result)
	}
	if it.Next() {
		t.Error("scalar cursor yielded a second result")
	}

	// An empty range is an error, like StatRange.
	it = s.Query().Range(te, writerEpoch).Window(4).Iter(ctx)
	if it.Next() || it.Err() == nil {
		t.Error("inverted range accepted")
	}

	// A range past the ingested data yields no windows and no error.
	it = s.Query().Range(te+1000_000, te+2000_000).Window(4).Iter(ctx)
	if it.Next() {
		t.Error("cursor past end yielded a window")
	}
	if err := it.Err(); err != nil {
		t.Errorf("cursor past end errored: %v", err)
	}
}

// TestQueryCursorStreamsOverTCP: on a multiplexed transport the cursor
// opens no push stream — it sends one wire.AggRange round trip per page —
// and yields exactly the windows StatSeries materializes. Abandoning the
// cursor early leaves nothing in flight on the session.
func TestQueryCursorStreamsOverTCP(t *testing.T) {
	engine := newWriterEngine(t)
	addr := startSessionServer(t, engine)
	tr, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	spy := &aggSpy{Transport: tr}
	s := newWriterStream(t, spy, "qstream")
	ctx := context.Background()

	const chunks = 60
	for c := 0; c < chunks; c++ {
		start := writerEpoch + int64(c)*1000
		if err := s.AppendChunk(ctx, []chunk.Point{{TS: start, Val: int64(c)}}); err != nil {
			t.Fatal(err)
		}
	}
	te := writerEpoch + chunks*1000
	want, err := s.StatSeries(ctx, writerEpoch, te, 4)
	if err != nil {
		t.Fatal(err)
	}

	spy.reset()
	it := s.Query().Range(writerEpoch, te).Window(4).PageSize(5).Iter(ctx)
	var got []StatResult
	for it.Next() {
		got = append(got, it.Result())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	// 15 windows at 5 per page.
	if aggs, streams := spy.sent(); streams != 0 || len(aggs) != 3 {
		t.Errorf("cursor opened %d streams and sent %d AggRange, want 0 and 3", streams, len(aggs))
	}
	if len(got) != len(want) {
		t.Fatalf("cursor yielded %d windows, StatSeries %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Sum != want[i].Sum || got[i].Count != want[i].Count ||
			got[i].FromChunk != want[i].FromChunk || got[i].ToChunk != want[i].ToChunk {
			t.Errorf("window %d: cursor %+v vs series %+v", i, got[i].Result, want[i].Result)
		}
	}

	// Early abandonment: take two windows, close, and verify the
	// transport's session has nothing left in flight.
	it = s.Query().Range(writerEpoch, te).Window(4).PageSize(2).Iter(ctx)
	if !it.Next() || !it.Next() {
		t.Fatalf("short iteration failed: %v", it.Err())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	sess, err := tr.session()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "nothing in flight after close", func() bool { return sess.InFlight() == 0 })

	// The connection survived the abandonment: fresh queries still work.
	res, err := s.Query().Range(writerEpoch, te).Window(4).All(ctx)
	if err != nil || len(res) != len(want) {
		t.Fatalf("query after abandoned cursor: %d windows, err=%v", len(res), err)
	}
}

// TestQueryCursorConsumerResolution: a resolution-restricted consumer can
// page windows at its granted factor but not finer, mirroring StatSeries.
func TestQueryCursorConsumerResolution(t *testing.T) {
	engine := newWriterEngine(t)
	tr := &InProc{Engine: engine}
	owner := NewOwner(tr)
	ctx := context.Background()
	s, err := owner.CreateStream(ctx, StreamOptions{
		UUID: "qres", Epoch: writerEpoch, Interval: 1000,
		Spec:        chunk.DigestSpec{Sum: true, Count: true},
		Compression: chunk.CompressionNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableResolution(ctx, 4); err != nil {
		t.Fatal(err)
	}
	const chunks = 32
	for c := 0; c < chunks; c++ {
		start := writerEpoch + int64(c)*1000
		if err := s.AppendChunk(ctx, []chunk.Point{{TS: start, Val: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	kp, err := hybrid.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	te := writerEpoch + chunks*1000
	if _, err := s.Grant(ctx, kp.PublicBytes(), writerEpoch, te, 4); err != nil {
		t.Fatal(err)
	}
	cs, err := NewConsumer(tr, kp).OpenStream(ctx, "qres")
	if err != nil {
		t.Fatal(err)
	}
	it := cs.Query().Range(writerEpoch, te).Window(4).PageSize(3).Iter(ctx)
	n := 0
	for it.Next() {
		if got := it.Result().Count; got != 4 {
			t.Errorf("window %d count = %d", n, got)
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != chunks/4 {
		t.Errorf("consumer cursor yielded %d windows, want %d", n, chunks/4)
	}
	// Finer than granted: fails like StatSeries does.
	it = cs.Query().Range(writerEpoch, te).Window(2).Iter(ctx)
	if it.Next() || it.Err() == nil {
		t.Error("finer-than-granted window accepted")
	}
	// Scalar without a full-resolution grant: rejected.
	it = cs.Query().Range(writerEpoch, te).Iter(ctx)
	if it.Next() || it.Err() == nil {
		t.Error("scalar query without full-resolution grant accepted")
	}
}
