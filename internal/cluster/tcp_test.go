package cluster

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/wire"
)

// startEngineTCP serves a fresh engine on a loopback listener.
func startEngineTCP(t *testing.T) (addr string, engine *server.Engine) {
	t.Helper()
	engine, err := server.New(kv.NewMemStore(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer(engine, func(string, ...any) {})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx, lis)
	}()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		<-done
	})
	return lis.Addr().String(), engine
}

// TestRouterOverTCPShards routes to engines reached over the real wire
// protocol, the -peers deployment shape of cmd/timecrypt-server.
func TestRouterOverTCPShards(t *testing.T) {
	var shards []Shard
	engines := make(map[string]*server.Engine)
	for i := 0; i < 3; i++ {
		addr, engine := startEngineTCP(t)
		name := fmt.Sprintf("peer-%d", i)
		sh, err := NewTCPShard(name, addr, 2)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sh)
		engines[name] = engine
	}
	router, err := NewRouter(shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	spec := wire.StreamConfig{Epoch: 0, Interval: 100, VectorLen: 2, Fanout: 8}
	const streams = 9
	for i := 0; i < streams; i++ {
		uuid := fmt.Sprintf("remote-%d", i)
		if resp := router.Handle(context.Background(), &wire.CreateStream{UUID: uuid, Cfg: spec}); !isOK(resp) {
			t.Fatalf("create %q over TCP -> %#v", uuid, resp)
		}
		// The stream must exist on the owning remote engine.
		if streams := engines[router.Owner(uuid)].ListStreams(); len(streams) == 0 {
			t.Fatalf("stream %q not on its owner", uuid)
		}
	}
	lr, ok := router.Handle(context.Background(), &wire.ListStreams{}).(*wire.ListStreamsResp)
	if !ok || len(lr.UUIDs) != streams {
		t.Fatalf("TCP fan-out listing -> %#v", lr)
	}
	victim := lr.UUIDs[0]
	if info, ok := router.Handle(context.Background(), &wire.StreamInfo{UUID: victim}).(*wire.StreamInfoResp); !ok {
		t.Fatalf("info over TCP failed: %#v", info)
	}
	// Transport failures surface as protocol errors, not panics.
	router.Close()
	if e, ok := router.Handle(context.Background(), &wire.StreamInfo{UUID: victim}).(*wire.Error); !ok || e.Code != wire.CodeInternal {
		t.Errorf("dead shard -> %#v, want internal error", e)
	}
}

// TestRebalanceOverTCPShards grows a cluster of remote engines reached
// over the real wire protocol: the stream exports page by cursor, one
// StreamSnapshot round trip per page, and the handoff and topology
// publish travel as ordinary requests.
func TestRebalanceOverTCPShards(t *testing.T) {
	var shards []Shard
	engines := make(map[string]*server.Engine)
	for i := 0; i < 3; i++ {
		addr, engine := startEngineTCP(t)
		sh, err := NewTCPShard(addr, addr, 4)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sh)
		engines[addr] = engine
	}
	router, err := NewRouter(shards, Options{Dial: func(member string) (Shard, error) {
		return NewTCPShard(member, member, 4)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// Start the fourth engine first. Placement hashes the random loopback
	// ports, so twelve streams sometimes all stay put; keep creating
	// streams until the grown ring hands at least one to the new member.
	addr4, engine4 := startEngineTCP(t)
	engines[addr4] = engine4
	var members []string
	for _, sh := range shards {
		members = append(members, sh.Name)
	}
	grown, err := NewRing(append(append([]string(nil), members...), addr4))
	if err != nil {
		t.Fatal(err)
	}
	var uuids []string
	for moves := false; len(uuids) < 12 || !moves; {
		if len(uuids) == 64 {
			t.Fatal("64 streams and none placed on the new member")
		}
		uuid := fmt.Sprintf("mv-%d", len(uuids))
		uuids = append(uuids, uuid)
		moves = moves || grown.Owner(uuid) == addr4
	}
	spec := wire.StreamConfig{Epoch: 0, Interval: 100, VectorLen: 2, Fanout: 8}
	for _, uuid := range uuids {
		if resp := router.Handle(context.Background(), &wire.CreateStream{UUID: uuid, Cfg: spec}); !isOK(resp) {
			t.Fatalf("create %q -> %#v", uuid, resp)
		}
		// Enough chunks for several export pages per stream.
		for c := 0; c < 8; c++ {
			sealed := testSealedChunk(t, uint64(c))
			if resp := router.Handle(context.Background(), &wire.InsertChunk{UUID: uuid, Chunk: sealed}); !isOK(resp) {
				t.Fatalf("insert %q/%d -> %#v", uuid, c, resp)
			}
		}
	}

	// Grow onto the fourth remote engine via the wire-level admin path (the
	// new member resolves through the dialer, exactly like timecrypt-cli
	// reshard against a router front end).
	resp := router.Handle(context.Background(), &wire.Reshard{Members: append(members, addr4)})
	ti, ok := resp.(*wire.TopologyInfoResp)
	if !ok || ti.Epoch != 2 || len(ti.Members) != 4 {
		t.Fatalf("Reshard over TCP -> %#v", resp)
	}
	if len(engine4.ListStreams()) == 0 {
		t.Fatal("no stream migrated to the new remote shard")
	}
	// Every stream serves from exactly one engine, matching the new ring.
	res := make(map[string]string)
	for name, e := range engines {
		for _, uuid := range e.ListStreams() {
			if prev, dup := res[uuid]; dup {
				t.Fatalf("stream %q on both %s and %s", uuid, prev, name)
			}
			res[uuid] = name
		}
	}
	for _, uuid := range uuids {
		if want := router.Owner(uuid); res[uuid] != want {
			t.Errorf("stream %q on %s, ring owner %s", uuid, res[uuid], want)
		}
		info, ok := router.Handle(context.Background(), &wire.StreamInfo{UUID: uuid}).(*wire.StreamInfoResp)
		if !ok || info.Count != 8 {
			t.Errorf("stream %q after TCP reshard: %#v", uuid, info)
		}
	}
}

// testSealedChunk seals one plaintext chunk with a 2-element digest for
// the TCP tests' VectorLen-2 stream config.
func testSealedChunk(t *testing.T, idx uint64) []byte {
	t.Helper()
	spec := chunk.DigestSpec{Sum: true, Count: true} // 2 elements
	start := int64(idx) * 100
	sealed, err := chunk.SealPlain(spec, chunk.CompressionNone, idx, start, start+100,
		[]chunk.Point{{TS: start, Val: int64(idx + 1)}})
	if err != nil {
		t.Fatal(err)
	}
	return chunk.MarshalSealed(sealed)
}

// TestTCPShardReconnects: a shard heals after its peer restarts instead of
// poisoning the connection pool forever.
func TestTCPShardReconnects(t *testing.T) {
	engine, err := server.New(kv.NewMemStore(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	srv := server.NewServer(engine, func(string, ...any) {})
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan struct{})
	go func() { defer close(done1); srv.Serve(ctx1, lis) }()

	sh, err := NewTCPShard("peer", addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Handler.(*tcpShard).Close()
	spec := wire.StreamConfig{Epoch: 0, Interval: 100, VectorLen: 2, Fanout: 8}
	if resp := sh.Handler.Handle(context.Background(), &wire.CreateStream{UUID: "s", Cfg: spec}); !isOK(resp) {
		t.Fatalf("create -> %#v", resp)
	}

	// Kill the peer: requests must fail cleanly (one per pooled slot).
	cancel1()
	srv.Close()
	<-done1
	for i := 0; i < 2; i++ {
		if _, ok := sh.Handler.Handle(context.Background(), &wire.StreamInfo{UUID: "s"}).(*wire.Error); !ok {
			t.Fatal("request to dead peer did not error")
		}
	}

	// Restart the peer on the same address (same engine state) — the
	// shard must redial and recover without a router restart.
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	srv2 := server.NewServer(engine, func(string, ...any) {})
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan struct{})
	go func() { defer close(done2); srv2.Serve(ctx2, lis2) }()
	defer func() { cancel2(); srv2.Close(); <-done2 }()

	var recovered bool
	for i := 0; i < 4 && !recovered; i++ {
		_, recovered = sh.Handler.Handle(context.Background(), &wire.StreamInfo{UUID: "s"}).(*wire.StreamInfoResp)
	}
	if !recovered {
		t.Fatal("shard did not recover after peer restart")
	}
}

// parkUntilGone parks every request until its context fires (the server
// cancels per-connection contexts when the connection dies), so a peer
// restart catches calls genuinely in flight.
type parkUntilGone struct {
	inner  server.Handler
	parked atomic.Int64
}

func (p *parkUntilGone) Handle(ctx context.Context, req wire.Message) wire.Message {
	if _, ok := req.(*wire.StreamInfo); ok {
		p.parked.Add(1)
		<-ctx.Done()
		return &wire.Error{Code: wire.CodeCanceled, Msg: ctx.Err().Error()}
	}
	return p.inner.Handle(ctx, req)
}

// TestTCPShardConcurrentRedial is the multiplexed-transport regression for
// peer restarts: many calls in flight on the shard's one connection when
// the peer dies must all observe the broken-conn failure, retry once, and
// succeed against the restarted peer — no stragglers stuck on a stale
// exchange, no poisoned pool.
func TestTCPShardConcurrentRedial(t *testing.T) {
	engine, err := server.New(kv.NewMemStore(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Distinct streams so the server's per-stream ordering doesn't
	// serialize the parked calls — all of them must be mid-flight when
	// the peer dies.
	const inflight = 8
	spec := wire.StreamConfig{Epoch: 0, Interval: 100, VectorLen: 2, Fanout: 8}
	for i := 0; i < inflight; i++ {
		if err := engine.CreateStream(fmt.Sprintf("s-%d", i), spec); err != nil {
			t.Fatal(err)
		}
	}
	park := &parkUntilGone{inner: engine}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	srv := server.NewServer(park, func(string, ...any) {})
	done1 := make(chan struct{})
	go func() { defer close(done1); srv.Serve(context.Background(), lis) }()

	sh, err := NewTCPShard("peer", addr, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Handler.(*tcpShard).Close()

	// Launch concurrent calls that all park server-side: genuinely in
	// flight together on the shard's single multiplexed connection.
	results := make(chan wire.Message, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			results <- sh.Handler.Handle(context.Background(), &wire.StreamInfo{UUID: fmt.Sprintf("s-%d", i)})
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for park.parked.Load() < inflight {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d calls in flight", park.parked.Load(), inflight)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Restart the peer under them: free the address first (close just the
	// listener, leaving the parked requests in flight), rebind a healthy
	// server, then kill the old connections so every parked call breaks
	// at once and retries against the new listener.
	lis.Close()
	<-done1
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	srv2 := server.NewServer(engine, func(string, ...any) {})
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan struct{})
	go func() { defer close(done2); srv2.Serve(ctx2, lis2) }()
	defer func() { cancel2(); srv2.Close(); <-done2 }()
	srv.Close()

	for i := 0; i < inflight; i++ {
		resp := <-results
		if _, ok := resp.(*wire.StreamInfoResp); !ok {
			t.Fatalf("in-flight call %d after peer restart -> %#v (retry-once failed)", i, resp)
		}
	}
}

// TestRetriableClassification pins the read-retry list the shard
// forwarders use: every read-only request heals transparently across a
// broken session (redial, leader failover), while anything mutating
// surfaces the ambiguity to the caller instead of being blindly replayed.
func TestRetriableClassification(t *testing.T) {
	reads := []wire.Message{
		&wire.StreamInfo{}, &wire.StatRange{}, &wire.GetRange{},
		&wire.ListStreams{}, &wire.GetGrants{}, &wire.GetEnvelopes{},
		&wire.GetStaged{}, &wire.AggRange{}, &wire.QueryStream{},
		&wire.TopologyInfo{}, &wire.StreamSnapshot{}, &wire.LeaseInfo{},
		&wire.Batch{Reqs: []wire.Message{&wire.StatRange{}, &wire.AggRange{}}},
	}
	for _, m := range reads {
		if wire.KindOf(m) != wire.KindRead {
			t.Errorf("%T not retriable — reads must heal across redials", m)
		}
	}
	writes := []wire.Message{
		&wire.InsertChunk{}, &wire.CreateStream{}, &wire.DeleteStream{},
		&wire.DeleteRange{}, &wire.Rollup{}, &wire.PutGrant{},
		&wire.StageRecord{}, &wire.Promote{}, &wire.ReplAppend{},
		&wire.Batch{},
		&wire.Batch{Reqs: []wire.Message{&wire.StatRange{}, &wire.InsertChunk{}}},
	}
	for _, m := range writes {
		if wire.KindOf(m) == wire.KindRead {
			t.Errorf("%T retriable — a replay after an ambiguous outcome double-applies", m)
		}
	}
}
