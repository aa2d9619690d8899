package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/server"
	"repro/internal/wire"
)

// startSessionServer serves a handler over a loopback listener.
func startSessionServer(t *testing.T, h server.Handler) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer(h, func(string, ...any) {})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx, lis) }()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		<-done
	})
	return lis.Addr().String()
}

// parkingHandler echoes StreamInfo requests (the response Meta carries the
// requested UUID, so tests can verify correlation) and parks every UUID
// with the "slow" prefix until released.
type parkingHandler struct {
	inner   server.Handler // fallback for non-StreamInfo requests, may be nil
	parked  atomic.Int64
	release chan struct{}
}

func newParkingHandler(inner server.Handler) *parkingHandler {
	return &parkingHandler{inner: inner, release: make(chan struct{})}
}

func (h *parkingHandler) Handle(ctx context.Context, req wire.Message) wire.Message {
	si, ok := req.(*wire.StreamInfo)
	if !ok {
		if h.inner != nil {
			return h.inner.Handle(ctx, req)
		}
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "parking handler only speaks StreamInfo"}
	}
	if strings.HasPrefix(si.UUID, "slow") {
		h.parked.Add(1)
		select {
		case <-h.release:
		case <-ctx.Done():
			return &wire.Error{Code: wire.CodeCanceled, Msg: ctx.Err().Error()}
		}
	}
	return &wire.StreamInfoResp{Cfg: wire.StreamConfig{Meta: si.UUID}, Count: 1}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSessionOutOfOrderCompletion is the acceptance path of the
// multiplexed transport: one TCP connection carries >= 4 concurrently
// in-flight requests, a later fast request completes while earlier slow
// ones are still parked server-side, and every out-of-order response is
// matched back to the call that issued it.
func TestSessionOutOfOrderCompletion(t *testing.T) {
	h := newParkingHandler(nil)
	addr := startSessionServer(t, h)
	sess, err := DialSession(addr, SessionOptions{Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	// Four slow calls, all genuinely in flight on the one connection.
	const slow = 4
	calls := make([]*Call, slow)
	for i := range calls {
		if calls[i], err = sess.Do(ctx, &wire.StreamInfo{UUID: fmt.Sprintf("slow-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "slow calls to park", func() bool { return h.parked.Load() == slow })
	if got := sess.InFlight(); got != slow {
		t.Fatalf("InFlight = %d while %d calls parked", got, slow)
	}

	// A fast request issued later overtakes them.
	fast, err := sess.RoundTrip(ctx, &wire.StreamInfo{UUID: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	if info := fast.(*wire.StreamInfoResp); info.Cfg.Meta != "fast" {
		t.Fatalf("fast response mismatched: %q", info.Cfg.Meta)
	}
	for i, c := range calls {
		select {
		case <-c.Done():
			t.Fatalf("slow call %d completed before release", i)
		default:
		}
	}

	// Release: every parked response must land on its own call.
	close(h.release)
	for i, c := range calls {
		resp, err := c.Wait(ctx)
		if err != nil {
			t.Fatalf("slow call %d: %v", i, err)
		}
		if got := resp.(*wire.StreamInfoResp).Cfg.Meta; got != fmt.Sprintf("slow-%d", i) {
			t.Fatalf("slow call %d matched response %q", i, got)
		}
	}
	if got := sess.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after all calls completed", got)
	}
}

// TestSessionCancelReclaimsPending: canceling a call removes it from the
// pending table at once (the slot lingers only as a tombstone until the
// server's late response is absorbed), and the connection stays healthy —
// no redial, later calls work.
func TestSessionCancelReclaimsPending(t *testing.T) {
	h := newParkingHandler(nil)
	addr := startSessionServer(t, h)
	sess, err := DialSession(addr, SessionOptions{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	c, err := sess.Do(context.Background(), &wire.StreamInfo{UUID: "slow-cancel"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "call to park", func() bool { return h.parked.Load() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled wait -> %v", err)
	}
	if got := sess.pendingLen(); got != 0 {
		t.Fatalf("pending table holds %d entries after cancel", got)
	}
	if got := sess.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1 tombstone", got)
	}

	// The server eventually answers the canceled call; the tombstone
	// absorbs it and the slot frees.
	close(h.release)
	waitFor(t, "tombstone reclaim", func() bool { return sess.InFlight() == 0 })

	// Cancellation did not poison the connection.
	resp, err := sess.RoundTrip(context.Background(), &wire.StreamInfo{UUID: "after"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*wire.StreamInfoResp).Cfg.Meta != "after" {
		t.Fatal("post-cancel call mismatched")
	}
}

// slowStatEngine parks StatRange requests (until released) and passes
// everything else to the engine.
type slowStatEngine struct {
	inner   server.Handler
	parked  atomic.Int64
	release chan struct{}
}

func (h *slowStatEngine) Handle(ctx context.Context, req wire.Message) wire.Message {
	if _, ok := req.(*wire.StatRange); ok {
		h.parked.Add(1)
		select {
		case <-h.release:
		case <-ctx.Done():
			return &wire.Error{Code: wire.CodeCanceled, Msg: ctx.Err().Error()}
		}
	}
	return h.inner.Handle(ctx, req)
}

// plainChunk seals one plaintext-mode chunk at the given index.
func plainChunk(t *testing.T, idx uint64, val int64) []byte {
	t.Helper()
	spec := chunk.DigestSpec{Sum: true, Count: true}
	start := int64(idx) * 1000
	sealed, err := chunk.SealPlain(spec, chunk.CompressionNone, idx, start, start+1000,
		[]chunk.Point{{TS: start, Val: val}})
	if err != nil {
		t.Fatal(err)
	}
	return chunk.MarshalSealed(sealed)
}

func plainStreamCfg() wire.StreamConfig {
	spec := chunk.DigestSpec{Sum: true, Count: true}
	specBytes, _ := spec.MarshalBinary()
	return wire.StreamConfig{Epoch: 0, Interval: 1000, VectorLen: uint32(spec.VectorLen()), Fanout: 8, DigestSpec: specBytes}
}

// TestSlowQueryDoesNotDelayFastInsert: the latency-asserted e2e — a
// deliberately slow StatRange must not delay an InsertChunk issued later
// on the same connection. The insert's latency is bounded both logically
// (it completes while the query is still parked) and by wall clock.
func TestSlowQueryDoesNotDelayFastInsert(t *testing.T) {
	engine := newWriterEngine(t)
	slow := &slowStatEngine{inner: engine, release: make(chan struct{})}
	addr := startSessionServer(t, slow)
	sess, err := DialSession(addr, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	for _, uuid := range []string{"qa", "qb"} {
		if resp, err := sess.RoundTrip(ctx, &wire.CreateStream{UUID: uuid, Cfg: plainStreamCfg()}); err != nil {
			t.Fatal(err)
		} else if _, ok := resp.(*wire.OK); !ok {
			t.Fatalf("create %s -> %#v", uuid, resp)
		}
	}
	if resp, _ := sess.RoundTrip(ctx, &wire.InsertChunk{UUID: "qa", Chunk: plainChunk(t, 0, 7)}); resp == nil {
		t.Fatal("priming insert failed")
	}

	slowCall, err := sess.Do(ctx, &wire.StatRange{UUIDs: []string{"qa"}, Ts: 0, Te: 1000})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "query to park", func() bool { return slow.parked.Load() == 1 })

	start := time.Now()
	resp, err := sess.RoundTrip(ctx, &wire.InsertChunk{UUID: "qb", Chunk: plainChunk(t, 0, 9)})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(*wire.OK); !ok {
		t.Fatalf("fast insert -> %#v", resp)
	}
	select {
	case <-slowCall.Done():
		t.Fatal("slow query completed before the fast insert returned")
	default:
	}
	if elapsed > 2*time.Second {
		t.Fatalf("fast insert took %v behind a parked query", elapsed)
	}

	close(slow.release)
	if resp, err := slowCall.Wait(ctx); err != nil {
		t.Fatal(err)
	} else if _, ok := resp.(*wire.StatRangeResp); !ok {
		t.Fatalf("slow query -> %#v", resp)
	}
}

// TestSessionSameStreamOrderPreserved: concurrent in-flight inserts for
// one stream must apply in submission order — the engine rejects
// out-of-order chunk indices, so success proves the server's per-stream
// scheduling held while requests overlapped on the wire.
func TestSessionSameStreamOrderPreserved(t *testing.T) {
	engine := newWriterEngine(t)
	addr := startSessionServer(t, engine)
	sess, err := DialSession(addr, SessionOptions{Window: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	if resp, err := sess.RoundTrip(ctx, &wire.CreateStream{UUID: "ord", Cfg: plainStreamCfg()}); err != nil {
		t.Fatal(err)
	} else if _, ok := resp.(*wire.OK); !ok {
		t.Fatalf("create -> %#v", resp)
	}
	const chunks = 64
	calls := make([]*Call, chunks)
	for i := range calls {
		if calls[i], err = sess.Do(ctx, &wire.InsertChunk{UUID: "ord", Chunk: plainChunk(t, uint64(i), 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range calls {
		resp, err := c.Wait(ctx)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if e, bad := resp.(*wire.Error); bad {
			t.Fatalf("chunk %d rejected: %v (per-stream order lost)", i, e)
		}
	}
	info, err := sess.RoundTrip(ctx, &wire.StreamInfo{UUID: "ord"})
	if err != nil {
		t.Fatal(err)
	}
	if got := info.(*wire.StreamInfoResp).Count; got != chunks {
		t.Fatalf("ingested %d chunks, want %d", got, chunks)
	}
}

// TestSessionHammer shares one session between many goroutines under the
// race detector: mixed inserts, queries, and deliberately canceled calls.
func TestSessionHammer(t *testing.T) {
	engine := newWriterEngine(t)
	addr := startSessionServer(t, engine)
	sess, err := DialSession(addr, SessionOptions{Window: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	const goroutines = 8
	const ops = 40
	for g := 0; g < goroutines; g++ {
		uuid := fmt.Sprintf("hammer-%d", g)
		if resp, err := sess.RoundTrip(ctx, &wire.CreateStream{UUID: uuid, Cfg: plainStreamCfg()}); err != nil {
			t.Fatal(err)
		} else if _, ok := resp.(*wire.OK); !ok {
			t.Fatalf("create %s -> %#v", uuid, resp)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			uuid := fmt.Sprintf("hammer-%d", g)
			for i := 0; i < ops; i++ {
				resp, err := sess.RoundTrip(ctx, &wire.InsertChunk{UUID: uuid, Chunk: plainChunk(t, uint64(i), int64(i))})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d insert %d: %w", g, i, err)
					return
				}
				if e, bad := resp.(*wire.Error); bad {
					errs <- fmt.Errorf("goroutine %d insert %d: %v", g, i, e)
					return
				}
				if i%8 == 3 {
					if _, err := sess.RoundTrip(ctx, &wire.StatRange{UUIDs: []string{uuid}, Ts: 0, Te: int64(i) * 1000}); err != nil {
						errs <- fmt.Errorf("goroutine %d query %d: %w", g, i, err)
						return
					}
				}
				if i%16 == 9 {
					// Exercise cancel/tombstone under load.
					cctx, cancel := context.WithCancel(ctx)
					c, err := sess.Do(cctx, &wire.StreamInfo{UUID: uuid})
					if err != nil {
						cancel()
						errs <- err
						return
					}
					cancel()
					c.Wait(cctx)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitFor(t, "in-flight drain", func() bool { return sess.InFlight() == 0 })
}

// hostileServer accepts one connection and lets the test script raw
// responses to it. respond is called per decoded request; returning false
// stops reading (the connection stays open until the test ends).
func hostileServer(t *testing.T, respond func(conn net.Conn, id uint64, req wire.Message) bool) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		for {
			payload, err := wire.ReadFrame(conn)
			if err != nil {
				conn.Close()
				return
			}
			id, _, _, req, err := wire.DecodeRequest(payload)
			if err != nil {
				conn.Close()
				return
			}
			if !respond(conn, id, req) {
				return
			}
		}
	}()
	return lis.Addr().String()
}

// mustBreak asserts that a session round trip against a hostile peer
// surfaces ErrSessionBroken promptly instead of hanging.
func mustBreak(t *testing.T, sess *Session, req wire.Message) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := sess.RoundTrip(ctx, req)
	if err == nil {
		t.Fatal("hostile response accepted")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("session hung on hostile response")
	}
	if !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("hostile response -> %v, want ErrSessionBroken", err)
	}
}

// TestSessionHostileResponses: responses with unknown correlation IDs,
// duplicate IDs, stream flags on unary calls, and garbage frames must
// surface a protocol error that fails the session — never a hang, never a
// mismatched response.
func TestSessionHostileResponses(t *testing.T) {
	t.Run("unknown id", func(t *testing.T) {
		addr := hostileServer(t, func(conn net.Conn, id uint64, _ wire.Message) bool {
			wire.WriteResponse(conn, id+1000, false, &wire.OK{})
			return true
		})
		sess, err := DialSession(addr, SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		mustBreak(t, sess, &wire.ListStreams{})
	})
	t.Run("duplicate id", func(t *testing.T) {
		addr := hostileServer(t, func(conn net.Conn, id uint64, _ wire.Message) bool {
			wire.WriteResponse(conn, id, false, &wire.ListStreamsResp{})
			wire.WriteResponse(conn, id, false, &wire.ListStreamsResp{})
			return true
		})
		sess, err := DialSession(addr, SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		// The first response completes the call; its duplicate is a
		// response for an unknown ID and kills the session.
		if _, err := sess.RoundTrip(context.Background(), &wire.ListStreams{}); err != nil {
			t.Fatalf("first response rejected: %v", err)
		}
		waitFor(t, "session failure on duplicate", func() bool {
			_, err := sess.RoundTrip(context.Background(), &wire.ListStreams{})
			return errors.Is(err, ErrSessionBroken)
		})
	})
	t.Run("stream flag on unary", func(t *testing.T) {
		addr := hostileServer(t, func(conn net.Conn, id uint64, _ wire.Message) bool {
			wire.WriteResponse(conn, id, true, &wire.ListStreamsResp{})
			return true
		})
		sess, err := DialSession(addr, SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		mustBreak(t, sess, &wire.ListStreams{})
	})
	t.Run("garbage frame", func(t *testing.T) {
		addr := hostileServer(t, func(conn net.Conn, _ uint64, _ wire.Message) bool {
			wire.WriteFrame(conn, []byte{0xEE, 0xEE, 0xEE})
			return true
		})
		sess, err := DialSession(addr, SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		mustBreak(t, sess, &wire.ListStreams{})
	})
}

// TestSessionTruncatedStreamEnvelope: a stream cut mid-page must surface
// the broken-session error from Recv, not hang the cursor.
func TestSessionTruncatedStreamEnvelope(t *testing.T) {
	addr := hostileServer(t, func(conn net.Conn, id uint64, _ wire.Message) bool {
		// One valid page, then a frame header promising more bytes than
		// ever arrive.
		wire.WriteResponse(conn, id, true, &wire.StatRangeResp{FromChunk: 0, ToChunk: 2, Windows: [][]uint64{{1, 2}}})
		conn.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xAA})
		conn.Close()
		return false
	})
	sess, err := DialSession(addr, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := sess.Stream(ctx, &wire.QueryStream{UUID: "s", Ts: 0, Te: 1000, WindowChunks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recv(); err != nil {
		t.Fatalf("valid first page rejected: %v", err)
	}
	_, err = st.Recv()
	if err == nil || err == io.EOF {
		t.Fatalf("truncated stream -> %v, want broken-session error", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("stream hung on truncation")
	}
	if !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("truncated stream -> %v, want ErrSessionBroken", err)
	}
}

// TestSessionBrokenConnFailsAllInFlight: when the peer dies, every
// in-flight call fails with the distinct redial-able error at once.
func TestSessionBrokenConnFailsAllInFlight(t *testing.T) {
	h := newParkingHandler(nil)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer(h, func(string, ...any) {})
	sctx, scancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(sctx, lis) }()
	defer func() { scancel(); <-done }()

	sess, err := DialSession(lis.Addr().String(), SessionOptions{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()
	calls := make([]*Call, 5)
	for i := range calls {
		if calls[i], err = sess.Do(ctx, &wire.StreamInfo{UUID: fmt.Sprintf("slow-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "calls to park", func() bool { return h.parked.Load() == int64(len(calls)) })
	srv.Close() // kills the connection under the parked calls

	for i, c := range calls {
		if _, err := c.Wait(ctx); !errors.Is(err, ErrSessionBroken) {
			t.Fatalf("call %d after conn breakage -> %v, want ErrSessionBroken", i, err)
		}
	}
	if _, err := sess.Do(ctx, &wire.ListStreams{}); !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("Do on dead session -> %v", err)
	}
}

// gateHandler parks every request until the test feeds it a token.
type gateHandler struct{ gate chan struct{} }

func (h *gateHandler) Handle(ctx context.Context, req wire.Message) wire.Message {
	select {
	case <-h.gate:
		return &wire.OK{}
	case <-ctx.Done():
		return &wire.Error{Code: wire.CodeCanceled, Msg: ctx.Err().Error()}
	}
}

// TestFullWindowIsNeverRefused: the session's default window equals the
// server's default per-connection cap, so a client that keeps its window
// full — every response is answered by the next request at once — depends
// on the server having freed a request's slot before the client can see the
// response. The server used to free it after queueing the response, and a
// busy box refused such a client CodeBusy now and then.
func TestFullWindowIsNeverRefused(t *testing.T) {
	const requests = 10_000
	h := &gateHandler{gate: make(chan struct{})}
	sess, err := DialSession(startSessionServer(t, h), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	// Do blocks while DefaultWindow calls are outstanding, so the issuer
	// refills the window the moment a response frees a slot.
	calls := make(chan *Call, requests) // holds every call: the issuer never waits on the harvest below
	go func() {
		defer close(calls)
		for i := 0; i < requests; i++ {
			call, err := sess.Do(ctx, &wire.ListStreams{})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			calls <- call
		}
	}()
	stop := make(chan struct{}) // a refused request takes no token: do not leave the feeder parked
	defer close(stop)
	go func() {
		for i := 0; i < requests; i++ {
			select {
			case h.gate <- struct{}{}: // completes one parked request
			case <-stop:
				return
			}
		}
	}()
	var busy, other int
	for call := range calls {
		resp, err := call.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if e, ok := resp.(*wire.Error); ok {
			if e.Code == wire.CodeBusy {
				busy++
			} else {
				other++
			}
		}
	}
	if busy != 0 || other != 0 {
		t.Errorf("%d of %d requests refused CodeBusy (%d other errors) with the window at the server's cap", busy, requests, other)
	}
}
