package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/sub"
	"repro/internal/wire"
)

func TestHandleDispatchAllTypes(t *testing.T) {
	h := newHarness(t)
	// CreateStream via Handle.
	resp := h.engine.Handle(context.Background(), &wire.CreateStream{UUID: "s", Cfg: h.cfg})
	if _, ok := resp.(*wire.OK); !ok {
		t.Fatalf("CreateStream -> %#v", resp)
	}
	// Duplicate -> CodeExists.
	resp = h.engine.Handle(context.Background(), &wire.CreateStream{UUID: "s", Cfg: h.cfg})
	if e, ok := resp.(*wire.Error); !ok || e.Code != wire.CodeExists {
		t.Errorf("duplicate create -> %#v", resp)
	}
	// Insert a chunk.
	sealed, _ := chunk.Seal(h.enc, h.spec, chunk.CompressionNone, 0, 0, 100,
		[]chunk.Point{{TS: 10, Val: 5}})
	resp = h.engine.Handle(context.Background(), &wire.InsertChunk{UUID: "s", Chunk: chunk.MarshalSealed(sealed)})
	if _, ok := resp.(*wire.OK); !ok {
		t.Fatalf("InsertChunk -> %#v", resp)
	}
	// StreamInfo.
	resp = h.engine.Handle(context.Background(), &wire.StreamInfo{UUID: "s"})
	if info, ok := resp.(*wire.StreamInfoResp); !ok || info.Count != 1 {
		t.Errorf("StreamInfo -> %#v", resp)
	}
	// StatRange.
	resp = h.engine.Handle(context.Background(), &wire.StatRange{UUIDs: []string{"s"}, Ts: 0, Te: 100})
	if sr, ok := resp.(*wire.StatRangeResp); !ok || len(sr.Windows) != 1 {
		t.Errorf("StatRange -> %#v", resp)
	}
	// GetRange.
	resp = h.engine.Handle(context.Background(), &wire.GetRange{UUID: "s", Ts: 0, Te: 100})
	if gr, ok := resp.(*wire.GetRangeResp); !ok || len(gr.Chunks) != 1 {
		t.Errorf("GetRange -> %#v", resp)
	}
	// Grants + envelopes.
	if _, ok := h.engine.Handle(context.Background(), &wire.PutGrant{UUID: "s", Principal: "p", GrantID: "g", Blob: []byte{1}}).(*wire.OK); !ok {
		t.Error("PutGrant failed")
	}
	if gg, ok := h.engine.Handle(context.Background(), &wire.GetGrants{UUID: "s", Principal: "p"}).(*wire.GetGrantsResp); !ok || len(gg.Blobs) != 1 {
		t.Error("GetGrants failed")
	}
	if _, ok := h.engine.Handle(context.Background(), &wire.DeleteGrant{UUID: "s", Principal: "p", GrantID: "g"}).(*wire.OK); !ok {
		t.Error("DeleteGrant failed")
	}
	if _, ok := h.engine.Handle(context.Background(), &wire.PutEnvelopes{UUID: "s", Factor: 2, Envs: []wire.WireEnvelope{{Index: 0, Box: []byte{9}}}}).(*wire.OK); !ok {
		t.Error("PutEnvelopes failed")
	}
	if ge, ok := h.engine.Handle(context.Background(), &wire.GetEnvelopes{UUID: "s", Factor: 2, Lo: 0, Hi: 0}).(*wire.GetEnvelopesResp); !ok || len(ge.Envs) != 1 {
		t.Error("GetEnvelopes failed")
	}
	// DeleteRange / Rollup / DeleteStream.
	if _, ok := h.engine.Handle(context.Background(), &wire.DeleteRange{UUID: "s", Ts: 0, Te: 100}).(*wire.OK); !ok {
		t.Error("DeleteRange failed")
	}
	if _, ok := h.engine.Handle(context.Background(), &wire.Rollup{UUID: "s", Factor: 8, Ts: 0, Te: 100}).(*wire.OK); !ok {
		t.Error("Rollup failed")
	}
	if _, ok := h.engine.Handle(context.Background(), &wire.DeleteStream{UUID: "s"}).(*wire.OK); !ok {
		t.Error("DeleteStream failed")
	}
	// Unknown stream -> CodeNotFound.
	resp = h.engine.Handle(context.Background(), &wire.StreamInfo{UUID: "s"})
	if e, ok := resp.(*wire.Error); !ok || e.Code != wire.CodeNotFound {
		t.Errorf("missing stream -> %#v", resp)
	}
	// Unsupported request type.
	resp = h.engine.Handle(context.Background(), &wire.OK{})
	if e, ok := resp.(*wire.Error); !ok || e.Code != wire.CodeBadRequest {
		t.Errorf("bad request -> %#v", resp)
	}
}

// startTCP runs a Server over a loopback listener.
func startTCP(t *testing.T, engine *Engine) (addr string, stop func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(engine, func(string, ...any) {})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx, lis)
	}()
	return lis.Addr().String(), func() {
		cancel()
		srv.Close()
		<-done
	}
}

// roundTripRaw writes one v3 request frame and reads one response frame,
// asserting the echoed correlation ID.
func roundTripRaw(t *testing.T, conn net.Conn, id uint64, req wire.Message) wire.Message {
	t.Helper()
	if err := wire.WriteRequest(conn, id, 0, req); err != nil {
		t.Fatal(err)
	}
	gotID, more, resp, err := readResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if gotID != id || more {
		t.Fatalf("response envelope id=%d more=%v, want id=%d", gotID, more, id)
	}
	return resp
}

func TestTCPServerRoundTrip(t *testing.T) {
	h := newHarness(t)
	addr, stop := startTCP(t, h.engine)
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp := roundTripRaw(t, conn, 1, &wire.CreateStream{UUID: "tcp-s", Cfg: h.cfg})
	if _, ok := resp.(*wire.OK); !ok {
		t.Fatalf("CreateStream over TCP -> %#v", resp)
	}
	sealed, _ := chunk.Seal(h.enc, h.spec, chunk.CompressionNone, 0, 0, 100,
		[]chunk.Point{{TS: 1, Val: 7}})
	resp = roundTripRaw(t, conn, 2, &wire.InsertChunk{UUID: "tcp-s", Chunk: chunk.MarshalSealed(sealed)})
	if _, ok := resp.(*wire.OK); !ok {
		t.Fatalf("InsertChunk over TCP -> %#v", resp)
	}
	resp = roundTripRaw(t, conn, 3, &wire.StatRange{UUIDs: []string{"tcp-s"}, Ts: 0, Te: 100})
	sr, ok := resp.(*wire.StatRangeResp)
	if !ok {
		t.Fatalf("StatRange over TCP -> %#v", resp)
	}
	dec := core.NewEncryptor(h.tree.NewWalker())
	vec, err := dec.DecryptRange(sr.FromChunk, sr.ToChunk, sr.Windows[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := h.spec.Interpret(vec)
	if r.Sum != 7 || r.Count != 1 {
		t.Errorf("sum=%d count=%d over TCP", r.Sum, r.Count)
	}
}

func TestTCPServerConcurrentClients(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 50)
	addr, stop := startTCP(t, h.engine)
	defer stop()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			for i := 0; i < 50; i++ {
				if err := wire.WriteRequest(conn, uint64(i+1), 0, &wire.StatRange{UUIDs: []string{"s"}, Ts: 0, Te: 5000}); err != nil {
					errs <- err
					return
				}
				id, _, resp, err := readResponse(conn)
				if err != nil {
					errs <- err
					return
				}
				if id != uint64(i+1) {
					errs <- fmt.Errorf("response for call %d while awaiting %d", id, i+1)
					return
				}
				if _, ok := resp.(*wire.StatRangeResp); !ok {
					errs <- resp.(*wire.Error)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// stallHandler parks every request until its context fires.
type stallHandler struct{}

func (*stallHandler) Handle(ctx context.Context, _ wire.Message) wire.Message {
	<-ctx.Done()
	return &wire.Error{Code: wire.CodeCanceled, Msg: ctx.Err().Error()}
}

// TestConnInFlightCap: a connection at its in-flight cap gets CodeBusy for
// the overflow request — answered out of order, ahead of the parked ones —
// instead of the server growing unbounded handler goroutines.
func TestConnInFlightCap(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(&stallHandler{}, func(string, ...any) {})
	srv.MaxConnInFlight = 2
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx, lis) }()
	defer func() { cancel(); srv.Close(); <-done }()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for id := uint64(1); id <= 3; id++ {
		if err := wire.WriteRequest(conn, id, 0, &wire.ListStreams{}); err != nil {
			t.Fatal(err)
		}
	}
	// Requests 1 and 2 are parked; 3 overflows and must be refused first.
	id, more, resp, err := readResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 || more {
		t.Fatalf("first response for call %d (more=%v), want busy answer for 3", id, more)
	}
	if e, ok := resp.(*wire.Error); !ok || e.Code != wire.CodeBusy {
		t.Fatalf("overflow request -> %#v, want CodeBusy", resp)
	}
}

// TestQueryStreamOverTCP: the retired push query is answered raw in one
// frame — no FlagMore, no OK terminator — carrying exactly the
// StatRangeResp of the equivalent StatRange; PageWindows is ignored.
func TestQueryStreamOverTCP(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "qs")
	h.ingest(t, "qs", 10)
	addr, stop := startTCP(t, h.engine)
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// 10 chunks of 100ms, window 2 -> 5 windows, in one frame although
	// the request asks for pages of 3.
	if err := wire.WriteRequest(conn, 77, 0, &wire.QueryStream{
		UUID: "qs", Ts: 0, Te: 1000, WindowChunks: 2, PageWindows: 3,
	}); err != nil {
		t.Fatal(err)
	}
	id, more, resp, err := readResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if id != 77 || more {
		t.Fatalf("answer frame id=%d more=%v", id, more)
	}
	want := h.engine.Handle(context.Background(), &wire.StatRange{UUIDs: []string{"qs"}, Ts: 0, Te: 1000, WindowChunks: 2})
	if _, ok := want.(*wire.StatRangeResp); !ok {
		t.Fatalf("StatRange -> %#v", want)
	}
	if got, ok := resp.(*wire.StatRangeResp); !ok || len(got.Windows) != 5 || !bytes.Equal(wire.Marshal(got), wire.Marshal(want)) {
		t.Fatalf("QueryStream answer %#v differs from StatRange %#v", resp, want)
	}

	// Unknown stream: a single terminal error frame.
	if err := wire.WriteRequest(conn, 78, 0, &wire.QueryStream{
		UUID: "nope", Ts: 0, Te: 1000, WindowChunks: 2,
	}); err != nil {
		t.Fatal(err)
	}
	id, more, resp, err = readResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if id != 78 || more {
		t.Fatalf("error frame id=%d more=%v", id, more)
	}
	if e, ok := resp.(*wire.Error); !ok || e.Code != wire.CodeNotFound {
		t.Fatalf("unknown stream -> %#v", resp)
	}
}

// TestPushExportRefused: a pushed stream export (StreamSnapshot with Push)
// gets exactly one frame, a CodeBadRequest refusal, and exports nothing —
// a single page would read to an older router as the whole export. The
// connection stays usable.
func TestPushExportRefused(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "px")
	h.ingest(t, "px", 10)
	addr, stop := startTCP(t, h.engine)
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteRequest(conn, 5, 0, &wire.StreamSnapshot{UUID: "px", WithMeta: true, MaxItems: 4, Push: true}); err != nil {
		t.Fatal(err)
	}
	id, more, resp, err := readResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if id != 5 || more {
		t.Fatalf("refusal frame id=%d more=%v", id, more)
	}
	if e, ok := resp.(*wire.Error); !ok || e.Code != wire.CodeBadRequest {
		t.Fatalf("pushed export -> %#v, want CodeBadRequest", resp)
	}
	// The next frame on the connection answers the next request: nothing
	// else was sent for the refused one.
	if err := wire.WriteRequest(conn, 6, 0, &wire.StreamInfo{UUID: "px"}); err != nil {
		t.Fatal(err)
	}
	id, more, resp, err = readResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if info, ok := resp.(*wire.StreamInfoResp); id != 6 || more || !ok || info.Count != 10 {
		t.Fatalf("after refusal: id=%d more=%v resp=%#v", id, more, resp)
	}
}

func TestTCPServerSurvivesGarbage(t *testing.T) {
	h := newHarness(t)
	addr, stop := startTCP(t, h.engine)
	defer stop()
	// A connection sending garbage must be dropped without killing the
	// server.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0, 0, 0, 2, 0xEE, 0xEE}) // unknown message type
	conn.Close()
	// Server still answers a healthy client.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := wire.WriteRequest(conn2, 1, 0, &wire.CreateStream{UUID: "x", Cfg: h.cfg}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := readResponse(conn2); err != nil {
		t.Fatalf("server died after garbage connection: %v", err)
	}
}

// probeConn is the write side of a connection: it reports each Write to the
// test and swallows the bytes.
type probeConn struct {
	net.Conn
	onWrite func()
}

func (c *probeConn) Write(p []byte) (int, error) {
	c.onWrite()
	return len(p), nil
}

// TestUnarySlotFreeBeforeResponseWritten pins the order that keeps a client
// with a full window (client.DefaultWindow == DefaultMaxConnInFlight) from
// being refused: by the time a unary response's first byte reaches the
// connection, its request no longer holds an in-flight slot — and until the
// write pump takes the response off the queue, it still does, so a client
// that does not read cannot run the server past its cap.
func TestUnarySlotFreeBeforeResponseWritten(t *testing.T) {
	srv := NewServer(nil, func(string, ...any) {})
	cs := newConnSched(1)
	if !cs.tryAcquire() {
		t.Fatal("fresh scheduler has no slot")
	}
	out := make(chan respFrame, 1)
	cs.runHolding("", func() {
		out <- respFrame{id: 1, msg: &wire.OK{}, slot: cs}
	})
	cs.wait()
	if cs.tryAcquire() {
		t.Fatal("slot free while the response is still queued: a client that never reads could exceed the cap")
	}
	heldAtWrite := -1
	conn := &probeConn{onWrite: func() { heldAtWrite = len(cs.sem) }}
	done := make(chan struct{})
	go srv.writePump(conn, out, done)
	close(out)
	<-done
	if heldAtWrite != 0 {
		t.Fatalf("%d slot(s) held when the response reached the connection, want 0", heldAtWrite)
	}
}

// closeGateHandler serves subscriptions whose handles park in Close until
// gate closes, and answers every unary request with OK.
type closeGateHandler struct{ gate chan struct{} }

func (*closeGateHandler) Handle(context.Context, wire.Message) wire.Message { return &wire.OK{} }

func (h *closeGateHandler) Subscribe(context.Context, *wire.Subscribe) (sub.Handle, error) {
	return gatedHandle{h.gate}, nil
}

type gatedHandle struct{ gate chan struct{} }

func (gatedHandle) Resp() *wire.SubscribeResp { return &wire.SubscribeResp{} }
func (gatedHandle) Recv(ctx context.Context) (*wire.SubEvent, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}
func (h gatedHandle) Close() error { <-h.gate; return nil }

// TestSubscriptionSlotFreeBeforeFinalFrame extends the unary slot rule to
// push streams: once a subscription's final frame reaches the client, the
// client's window slot is free, so the server's must be too. With a cap of
// one, the request sent on reading the final frame must run, not get
// CodeBusy while the worker is still closing its handle.
func TestSubscriptionSlotFreeBeforeFinalFrame(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &closeGateHandler{gate: make(chan struct{})}
	srv := NewServer(h, func(string, ...any) {})
	srv.MaxConnInFlight = 1
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx, lis) }()
	defer func() { close(h.gate); cancel(); srv.Close(); <-done }()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteRequest(conn, 1, 0, &wire.Subscribe{UUIDs: []string{"s"}, WindowChunks: 1}); err != nil {
		t.Fatal(err)
	}
	if id, more, resp, err := readResponse(conn); err != nil || id != 1 || !more {
		t.Fatalf("opening frame: id=%d more=%v %#v %v", id, more, resp, err)
	}
	if err := wire.WriteRequest(conn, 0, 0, &wire.Unsubscribe{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if id, more, resp, err := readResponse(conn); err != nil || id != 1 || more {
		t.Fatalf("final frame: id=%d more=%v %#v %v", id, more, resp, err)
	}
	if err := wire.WriteRequest(conn, 2, 0, &wire.ListStreams{}); err != nil {
		t.Fatal(err)
	}
	id, _, resp, err := readResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(*wire.OK); id != 2 || !ok {
		t.Fatalf("request after the final frame: id=%d %#v, want OK for 2", id, resp)
	}
}

// readResponse reads one framed response envelope.
func readResponse(r io.Reader) (uint64, bool, wire.Message, error) {
	payload, err := wire.ReadFrame(r)
	if err != nil {
		return 0, false, nil, err
	}
	return wire.DecodeResponse(payload)
}
