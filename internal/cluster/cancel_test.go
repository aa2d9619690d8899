package cluster

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/client"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/wire"
)

// slowStatHandler wraps an engine and stalls statistical sub-requests until
// the request context is canceled, recording that the cancellation was
// observed. Everything else passes through, so streams can be created and
// loaded normally.
type slowStatHandler struct {
	inner    server.Handler
	sawStat  atomic.Int64 // stat sub-requests received
	canceled atomic.Int64 // stat sub-requests aborted by ctx
}

func (s *slowStatHandler) Handle(ctx context.Context, req wire.Message) wire.Message {
	switch req.(type) {
	case *wire.StatRange, *wire.AggRange, *wire.StreamInfo:
		s.sawStat.Add(1)
		select {
		case <-ctx.Done():
			s.canceled.Add(1)
			return &wire.Error{Code: wire.CodeCanceled, Msg: ctx.Err().Error()}
		case <-time.After(30 * time.Second):
			return &wire.Error{Code: wire.CodeInternal, Msg: "slow shard was never canceled"}
		}
	default:
		return s.inner.Handle(ctx, req)
	}
}

// newSlowCluster builds a 4-shard router whose shards stall statistical
// requests, plus two stream UUIDs guaranteed to live on different shards
// with three chunks each.
func newSlowCluster(t *testing.T) (*Router, []*slowStatHandler, []string) {
	t.Helper()
	spec := chunk.DigestSpec{Sum: true, Count: true}
	specBytes, _ := spec.MarshalBinary()
	cfg := wire.StreamConfig{
		Epoch: 0, Interval: 100, VectorLen: uint32(spec.VectorLen()),
		Fanout: 8, DigestSpec: specBytes,
	}
	var shards []Shard
	var slows []*slowStatHandler
	for i := 0; i < 4; i++ {
		engine, err := server.New(kv.NewMemStore(), server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		slow := &slowStatHandler{inner: engine}
		slows = append(slows, slow)
		shards = append(shards, Shard{Name: string(rune('a' + i)), Handler: slow})
	}
	router, err := NewRouter(shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Find two streams on different shards and load three chunks into each.
	var uuids []string
	seen := map[string]bool{}
	for i := 0; len(uuids) < 2 && i < 256; i++ {
		uuid := "cancel-" + string(rune('A'+i))
		owner := router.Owner(uuid)
		if seen[owner] {
			continue
		}
		seen[owner] = true
		uuids = append(uuids, uuid)
		if resp := router.Handle(context.Background(), &wire.CreateStream{UUID: uuid, Cfg: cfg}); !isOK(resp) {
			t.Fatalf("create %s: %#v", uuid, resp)
		}
		for c := uint64(0); c < 3; c++ {
			start := int64(c) * 100
			sealed, err := chunk.SealPlain(spec, chunk.CompressionNone, c, start, start+100,
				[]chunk.Point{{TS: start, Val: int64(c + 1)}})
			if err != nil {
				t.Fatal(err)
			}
			if resp := router.Handle(context.Background(), &wire.InsertChunk{UUID: uuid, Chunk: chunk.MarshalSealed(sealed)}); !isOK(resp) {
				t.Fatalf("insert %s/%d: %#v", uuid, c, resp)
			}
		}
	}
	if len(uuids) < 2 {
		t.Fatal("could not place streams on two shards")
	}
	return router, slows, uuids
}

// TestCanceledContextAbortsCrossShardStatRange: a cross-shard StatRange
// fan-out against stalled shards must return promptly once the caller's
// context fires, with wire.CodeCanceled, and the shards themselves must
// observe the cancellation (no abandoned goroutines grinding on).
func TestCanceledContextAbortsCrossShardStatRange(t *testing.T) {
	router, slows, uuids := newSlowCluster(t)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	resp := router.Handle(ctx, &wire.StatRange{UUIDs: uuids, Ts: 0, Te: 300})
	elapsed := time.Since(start)

	e, ok := resp.(*wire.Error)
	if !ok || e.Code != wire.CodeCanceled {
		t.Fatalf("expected CodeCanceled, got %#v", resp)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; not prompt", elapsed)
	}
	if slows[0].sawStat.Load()+slows[1].sawStat.Load()+slows[2].sawStat.Load()+slows[3].sawStat.Load() == 0 {
		t.Fatal("no shard ever saw the fan-out")
	}
	// The stalled sub-requests received the same ctx and must unwind too.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var canceled, saw int64
		for _, s := range slows {
			canceled += s.canceled.Load()
			saw += s.sawStat.Load()
		}
		if canceled == saw {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards saw %d stat requests but only %d unwound", saw, canceled)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCanceledContextAbortsListStreams covers the other fan-out path.
func TestCanceledContextAbortsListStreams(t *testing.T) {
	engine, err := server.New(kv.NewMemStore(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	stall := &stallAllHandler{}
	router, err := NewRouter([]Shard{
		{Name: "ok", Handler: engine},
		{Name: "stuck", Handler: stall},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	resp := router.Handle(ctx, &wire.ListStreams{})
	if e, ok := resp.(*wire.Error); !ok || e.Code != wire.CodeCanceled {
		t.Fatalf("expected CodeCanceled, got %#v", resp)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("not prompt")
	}
}

// stallAllHandler blocks every request until its context is canceled.
type stallAllHandler struct{}

func (*stallAllHandler) Handle(ctx context.Context, _ wire.Message) wire.Message {
	<-ctx.Done()
	return &wire.Error{Code: wire.CodeCanceled, Msg: ctx.Err().Error()}
}

// TestDeadlinePropagatesOverTCP proves the acceptance path end to end: a
// client deadline crosses the wire in the request envelope, reconstitutes
// as a server-side context, aborts a stalled cross-shard fan-out behind the
// TCP front end, and the client round trip returns promptly.
func TestDeadlinePropagatesOverTCP(t *testing.T) {
	router, slows, uuids := newSlowCluster(t)

	srv := server.NewServer(router, func(string, ...any) {})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveCtx, stopServe := context.WithCancel(context.Background())
	defer stopServe()
	go srv.Serve(serveCtx, lis)
	defer srv.Close()

	tr, err := client.DialTCP(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	resp, rtErr := tr.RoundTrip(ctx, &wire.StatRange{UUIDs: uuids, Ts: 0, Te: 300})
	elapsed := time.Since(start)
	// Two valid outcomes, racing: the server's graceful CodeCanceled
	// response beats the client's socket deadline, or the client gives up
	// first with a context error. Either way the deadline crossed the wire.
	if rtErr == nil {
		e, ok := resp.(*wire.Error)
		if !ok || e.Code != wire.CodeCanceled {
			t.Fatalf("round trip against stalled shards -> %#v", resp)
		}
	} else if !errors.Is(rtErr, context.DeadlineExceeded) {
		t.Fatalf("expected deadline error, got %v", rtErr)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("client unblocked after %v; deadline not honored", elapsed)
	}
	// Server-side: the envelope deadline must have reached the shards.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var canceled int64
		for _, s := range slows {
			canceled += s.canceled.Load()
		}
		if canceled > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no shard observed the wire-propagated deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The transport redials transparently: the next call works.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if _, err := tr.RoundTrip(ctx2, &wire.ListStreams{}); err != nil {
		t.Fatalf("transport did not recover after abandoned round trip: %v", err)
	}
}
