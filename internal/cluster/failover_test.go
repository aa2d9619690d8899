package cluster

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/kv"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wire"
)

// replMember is one replication group member served over real TCP, with
// a kill switch that simulates a crash (listener and all sessions die,
// nothing is flushed or handed off gracefully).
type replMember struct {
	node  *replica.Node
	store kv.Store
	addr  string
	kill  func()
}

func startReplMember(t *testing.T, lease time.Duration) *replMember {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := kv.NewMemStore()
	node, err := replica.New(store, server.Config{}, replica.Options{
		Self:  lis.Addr().String(),
		Lease: lease,
		Logf:  func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer(node, func(string, ...any) {})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx, lis) }()
	m := &replMember{node: node, store: store, addr: lis.Addr().String()}
	killed := false
	m.kill = func() {
		if killed {
			return
		}
		killed = true
		node.Close()
		cancel()
		srv.Close()
		<-done
	}
	t.Cleanup(m.kill)
	return m
}

// TestReplicatedShardFailsOver: a router shard backed by a leader +
// follower replication group survives the leader dying — reads answer
// byte-identically from the promoted follower and writes flow again —
// without the router's caller changing anything.
func TestReplicatedShardFailsOver(t *testing.T) {
	const lease = 200 * time.Millisecond
	leader := startReplMember(t, lease)
	follower := startReplMember(t, lease)
	leader.node.Lead([]string{follower.addr})

	sh, err := NewReplicatedShardOptions("g0", []string{leader.addr, follower.addr}, GroupOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter([]Shard{sh}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	tc := &testCluster{router: router, spec: chunk.DigestSpec{Sum: true, Count: true}}
	specBytes, _ := tc.spec.MarshalBinary()
	tc.cfg = wire.StreamConfig{Epoch: 0, Interval: 100, VectorLen: uint32(tc.spec.VectorLen()), Fanout: 8, DigestSpec: specBytes}
	const chunks = 6
	tc.createStream(t, "s")
	tc.ingest(t, "s", chunks)

	query := &wire.StatRange{UUIDs: []string{"s"}, Ts: 0, Te: chunks * 100}
	before := router.Handle(context.Background(), query)
	if _, ok := before.(*wire.StatRangeResp); !ok {
		t.Fatalf("StatRange before crash -> %#v", before)
	}

	leader.kill()

	// The first read after the crash rides the whole failover: dead
	// leader detected, lease waited out, follower promoted. An AggRange
	// (the typed-plan query path) exercises the read-retry list.
	if resp := router.Handle(context.Background(), &wire.AggRange{UUIDs: []string{"s"}, Ts: 0, Te: chunks * 100}); resp != nil {
		if _, bad := resp.(*wire.Error); bad {
			t.Fatalf("AggRange riding the failover -> %#v", resp)
		}
	}

	// Same bytes, same caller code.
	after := router.Handle(context.Background(), query)
	if !bytes.Equal(wire.Marshal(before), wire.Marshal(after)) {
		t.Fatalf("post-failover answer differs:\n before %#v\n after  %#v", before, after)
	}

	rs := sh.Handler.(*ReplicatedShard)
	if addr, epoch := rs.Leader(); addr != follower.addr || epoch < 2 {
		t.Fatalf("shard follows %s at epoch %d, want promoted follower %s at epoch >= 2", addr, epoch, follower.addr)
	}
	if role, epoch, _ := follower.node.Status(); role != wire.ReplLeader || epoch < 2 {
		t.Fatalf("follower role/epoch after promotion = %d/%d", role, epoch)
	}

	// Writes flow against the new leader (the dead peer is detected as
	// unreachable and excluded from the durability wait).
	start := int64(chunks) * 100
	sealed, err := chunk.SealPlain(tc.spec, chunk.CompressionNone, chunks, start, start+100,
		[]chunk.Point{{TS: start, Val: chunks + 1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp := router.Handle(context.Background(), &wire.InsertChunk{UUID: "s", Chunk: chunk.MarshalSealed(sealed)}); !isOK(resp) {
		t.Fatalf("post-failover write -> %#v", resp)
	}
	if got := tc.statSum(t, "s", (chunks+1)*100); got != (chunks+1)*(chunks+2)/2 {
		t.Fatalf("aggregate after post-failover write = %d", got)
	}
}
