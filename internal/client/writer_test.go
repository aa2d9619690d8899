package client

import (
	"context"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/wire"
)

func newWriterEngine(t *testing.T) *server.Engine {
	t.Helper()
	engine, err := server.New(kv.NewMemStore(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

const writerEpoch = int64(1_700_000_000_000)

func newWriterStream(t *testing.T, tr Transport, uuid string) *OwnerStream {
	t.Helper()
	owner := NewOwner(tr)
	s, err := owner.CreateStream(context.Background(), StreamOptions{
		UUID: uuid, Epoch: writerEpoch, Interval: 1000,
		Spec:        chunk.DigestSpec{Sum: true, Count: true},
		Compression: chunk.CompressionNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWriterPipelinedIngest pushes records through the writer and verifies
// the server state matches a blocking ingest exactly.
func TestWriterPipelinedIngest(t *testing.T) {
	engine := newWriterEngine(t)
	tr := &InProc{Engine: engine}
	s := newWriterStream(t, tr, "w")
	ctx := context.Background()

	w, err := s.Writer(ctx, WriterOptions{BatchChunks: 8, MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Direct ingest is gated while the writer is open.
	if err := s.AppendChunk(ctx, nil); err == nil || !strings.Contains(err.Error(), "Writer") {
		t.Errorf("direct AppendChunk while writer open: %v", err)
	}
	if err := s.Append(ctx, chunk.Point{TS: writerEpoch, Val: 1}); err == nil {
		t.Error("direct Append while writer open accepted")
	}

	// 100 chunks, 2 points each, via per-point Append (exercises the
	// builder path) — plus a final point left in the open interval.
	const chunks = 100
	for i := 0; i < chunks*2+1; i++ {
		ts := writerEpoch + int64(i)*500
		if err := w.Append(chunk.Point{TS: ts, Val: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Count(); got != chunks {
		t.Errorf("acked count after Flush = %d, want %d", got, chunks)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Writer detached: direct ingest works again and seals the remainder.
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := s.StatRange(ctx, writerEpoch, writerEpoch+(chunks+1)*1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != chunks*2+1 || res.Sum != chunks*2+1 {
		t.Errorf("count=%d sum=%d, want %d", res.Count, res.Sum, chunks*2+1)
	}

	// A second writer can open after Close.
	w2, err := s.Writer(ctx, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Writer(ctx, WriterOptions{}); err == nil {
		t.Error("two concurrent writers accepted")
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterOverTCP runs the writer against a real TCP server, so the
// Batch envelope itself crosses the wire.
func TestWriterOverTCP(t *testing.T) {
	engine := newWriterEngine(t)
	srv := server.NewServer(engine, func(string, ...any) {})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx, lis)
	defer srv.Close()

	tr, err := DialTCP(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	s := newWriterStream(t, tr, "wtcp")
	w, err := s.Writer(ctx, WriterOptions{BatchChunks: 16, MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 200
	for c := 0; c < chunks; c++ {
		start := writerEpoch + int64(c)*1000
		if err := w.AppendChunk([]chunk.Point{{TS: start, Val: int64(c)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := s.StatRange(ctx, writerEpoch, writerEpoch+chunks*1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != chunks {
		t.Errorf("count = %d, want %d", res.Count, chunks)
	}
}

// TestWriterGapChunksSplitAcrossBatches: one Append after a long producer
// outage completes thousands of (mostly empty) gap chunks at once; the
// writer must split them into bounded envelopes instead of shipping one
// over-MaxBatch batch the server would reject.
func TestWriterGapChunksSplitAcrossBatches(t *testing.T) {
	engine := newWriterEngine(t)
	tr := &InProc{Engine: engine}
	s := newWriterStream(t, tr, "wgap")
	ctx := context.Background()

	w, err := s.Writer(ctx, WriterOptions{BatchChunks: 8, MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(chunk.Point{TS: writerEpoch, Val: 1}); err != nil {
		t.Fatal(err)
	}
	// A point wire.MaxBatch+200 intervals later completes that many chunks
	// in a single call.
	gap := uint64(wire.MaxBatch + 200)
	if err := w.Append(chunk.Point{TS: writerEpoch + int64(gap)*1000, Val: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Count(); got != gap {
		t.Errorf("acked count = %d, want %d", got, gap)
	}
}

// TestTCPCloseUnblocksStuckRoundTrip: Close must abort an in-flight
// exchange (no context deadline, server never replies) instead of queueing
// behind it forever.
func TestTCPCloseUnblocksStuckRoundTrip(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			_ = conn // accept and never respond
		}
	}()
	tr, err := DialTCP(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tr.RoundTrip(context.Background(), &wire.ListStreams{})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the round trip block in its read
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stuck round trip reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not unblock the in-flight round trip")
	}
	if _, err := tr.RoundTrip(context.Background(), &wire.ListStreams{}); err == nil {
		t.Fatal("round trip after Close succeeded")
	}
}

// failAfterHandler passes requests through until `after` InsertChunks have
// been applied, then fails every further insert.
type failAfterHandler struct {
	inner server.Handler
	after int64
	seen  atomic.Int64
}

func (f *failAfterHandler) Handle(ctx context.Context, req wire.Message) wire.Message {
	switch m := req.(type) {
	case *wire.InsertChunk:
		if f.seen.Add(1) > f.after {
			return &wire.Error{Code: wire.CodeInternal, Msg: "disk on fire"}
		}
		return f.inner.Handle(ctx, m)
	case *wire.Batch:
		resps := make([]wire.Message, len(m.Reqs))
		for i, sub := range m.Reqs {
			resps[i] = f.Handle(ctx, sub)
		}
		return &wire.BatchResp{Resps: resps}
	default:
		return f.inner.Handle(ctx, req)
	}
}

// TestWriterCloseSurfacesMidStreamError: appends succeed locally while the
// server is already failing; the error must surface on Close (and on
// subsequent appends), never be swallowed.
func TestWriterCloseSurfacesMidStreamError(t *testing.T) {
	engine := newWriterEngine(t)
	failing := &failAfterHandler{inner: engine, after: 10}
	tr := &InProc{Engine: failing}
	s := newWriterStream(t, tr, "werr")
	ctx := context.Background()

	w, err := s.Writer(ctx, WriterOptions{BatchChunks: 4, MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	sawAppendError := false
	for c := 0; c < 64; c++ {
		start := writerEpoch + int64(c)*1000
		if err := w.AppendChunk([]chunk.Point{{TS: start, Val: 1}}); err != nil {
			sawAppendError = true
			break
		}
	}
	err = w.Close()
	if err == nil {
		t.Fatal("Close swallowed the mid-stream server error")
	}
	if !strings.Contains(err.Error(), "disk on fire") {
		t.Errorf("Close error lost the server failure: %v", err)
	}
	if !sawAppendError && w.Err() == nil {
		t.Error("no fast-fail signal on appends after failure")
	}
	if got := s.Count(); got != 10 {
		t.Errorf("acked count = %d, want exactly the applied prefix 10", got)
	}
	// Close is idempotent and keeps reporting.
	if err2 := w.Close(); err2 == nil {
		t.Error("second Close lost the error")
	}
}

// TestWriterCanceledContext: canceling the writer's context fails it
// rather than hanging appends on a full pipeline.
func TestWriterCanceledContext(t *testing.T) {
	engine := newWriterEngine(t)
	tr := &InProc{Engine: engine}
	s := newWriterStream(t, tr, "wcancel")
	ctx, cancel := context.WithCancel(context.Background())

	w, err := s.Writer(ctx, WriterOptions{BatchChunks: 2, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.Now().Add(10 * time.Second)
	failed := false
	for c := 0; time.Now().Before(deadline); c++ {
		start := writerEpoch + int64(c)*1000
		if err := w.AppendChunk([]chunk.Point{{TS: start, Val: 1}}); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("appends kept succeeding on a canceled writer")
	}
	if err := w.Close(); err == nil {
		t.Error("Close after cancellation returned nil")
	}
}

// overlapDoer is a multiplexed-transport fake: Do hands each submitted
// batch to the test unresolved, so the test can prove the writer issues
// batch N+1 before batch N is acknowledged.
type overlapDoer struct {
	inner     Transport
	submitted chan *Call
}

func (d *overlapDoer) RoundTrip(ctx context.Context, req wire.Message) (wire.Message, error) {
	return d.inner.RoundTrip(ctx, req)
}
func (d *overlapDoer) Close() error { return d.inner.Close() }
func (d *overlapDoer) Do(ctx context.Context, req wire.Message) (*Call, error) {
	c := &Call{req: req, done: make(chan struct{})}
	d.submitted <- c
	return c, nil
}

// TestWriterOverlapsBatchesOnDoer: on a multiplexed transport the writer
// must have MaxInFlight batches simultaneously unacknowledged — the whole
// point of connection-level pipelining — instead of one blocking round
// trip at a time.
func TestWriterOverlapsBatchesOnDoer(t *testing.T) {
	engine := newWriterEngine(t)
	tr := &overlapDoer{inner: &InProc{Engine: engine}, submitted: make(chan *Call, 4)}
	s := newWriterStream(t, tr, "wover")
	ctx := context.Background()

	w, err := s.Writer(ctx, WriterOptions{BatchChunks: 4, MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 8; c++ {
		start := writerEpoch + int64(c)*1000
		if err := w.AppendChunk([]chunk.Point{{TS: start, Val: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	// Both batches must be on the wire with neither acknowledged.
	var calls []*Call
	for len(calls) < 2 {
		select {
		case c := <-tr.submitted:
			calls = append(calls, c)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d batches submitted unacknowledged; writer is serializing round trips", len(calls))
		}
	}
	// Acknowledge both; the writer settles and closes cleanly.
	for _, c := range calls {
		b := c.req.(*wire.Batch)
		resps := make([]wire.Message, len(b.Reqs))
		for i := range resps {
			resps[i] = &wire.OK{}
		}
		c.resp = &wire.BatchResp{Resps: resps}
		close(c.done)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Count(); got != 8 {
		t.Errorf("acked count = %d, want 8", got)
	}
}

// handoffDoer is a multiplexed-transport fake that acknowledges every batch
// at once and records how far the producer had got when the batch reached
// the transport.
type handoffDoer struct {
	Transport                // RoundTrip and Close of the in-process engine
	appended    atomic.Int64 // chunks the producer has finished appending
	submittedAt []int64      // appended, read at each Do (sender goroutine only)
}

func (d *handoffDoer) Do(ctx context.Context, req wire.Message) (*Call, error) {
	d.submittedAt = append(d.submittedAt, d.appended.Load())
	resps := make([]wire.Message, len(req.(*wire.Batch).Reqs))
	for i := range resps {
		resps[i] = &wire.OK{}
	}
	c := &Call{req: req, done: make(chan struct{}), resp: &wire.BatchResp{Resps: resps}}
	close(c.done)
	return c, nil
}

// TestWriterHandsFullBatchOffPromptly: a producer that appends in a tight
// loop and never blocks (cheap seals, a transport that never pushes back)
// must not run whole bursts of batches ahead of the sender. With one P the
// only way the sender runs is for the producer to give it the processor;
// counted in chunks, batch k has to reach the transport before the producer
// finishes the batch after next. Without the yield in unlockAppend the
// producer runs on until the batch queue is full, and batch 0 is submitted
// at chunk 79.
func TestWriterHandsFullBatchOffPromptly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := &handoffDoer{Transport: &InProc{Engine: newWriterEngine(t)}}
	s := newWriterStream(t, tr, "whand")
	w, err := s.Writer(context.Background(), WriterOptions{flushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	const batchChunks, batches = 16, 32 // the default batch size
	for c := 0; c < batchChunks*batches; c++ {
		start := writerEpoch + int64(c)*1000
		if err := w.AppendChunk([]chunk.Point{{TS: start, Val: 1}}); err != nil {
			t.Fatal(err)
		}
		tr.appended.Add(1)
	}
	if err := w.Close(); err != nil { // waits for the sender: submittedAt is ours now
		t.Fatal(err)
	}
	if len(tr.submittedAt) != batches {
		t.Fatalf("%d batches submitted, want %d", len(tr.submittedAt), batches)
	}
	for k, at := range tr.submittedAt {
		if limit := int64(batchChunks * (k + 2)); at >= limit {
			t.Errorf("batch %d reached the transport after %d appends, want fewer than %d", k, at, limit)
		}
	}
}
