package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
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

// TestRebalanceFromReplicatedGroup: a reshard moves streams out of a
// 3-member replication group reached over TCP. The export pages by cursor
// through the group's leader, and the moved stream arrives byte-identical:
// the destination's full export and its query answers equal the group's
// before the move.
func TestRebalanceFromReplicatedGroup(t *testing.T) {
	a := startReplMember(t, time.Second)
	b := startReplMember(t, time.Second)
	c := startReplMember(t, time.Second)
	if err := a.node.Lead([]string{b.addr, c.addr}); err != nil {
		t.Fatal(err)
	}
	group, err := NewReplicatedShardOptions("g0", []string{a.addr, b.addr, c.addr}, GroupOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter([]Shard{group}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	tc := &testCluster{router: router, spec: chunk.DigestSpec{Sum: true, Count: true}}
	specBytes, _ := tc.spec.MarshalBinary()
	tc.cfg = wire.StreamConfig{Epoch: 0, Interval: 100, VectorLen: uint32(tc.spec.VectorLen()), Fanout: 8, DigestSpec: specBytes}

	addr4, engine4 := startEngineTCP(t)
	grown, err := NewRing([]string{"g0", addr4})
	if err != nil {
		t.Fatal(err)
	}
	// Placement hashes a random loopback port: pick the first name the
	// grown ring hands to the new member, plus one that stays.
	var moving, staying string
	for i := 0; moving == "" || staying == ""; i++ {
		if i == 256 {
			t.Fatal("256 names and no split between the members")
		}
		uuid := fmt.Sprintf("rg-%d", i)
		if grown.Owner(uuid) == addr4 && moving == "" {
			moving = uuid
		} else if grown.Owner(uuid) == "g0" && staying == "" {
			staying = uuid
		}
	}
	// More chunks than one export page (snapshotPageItems) holds.
	const chunks = snapshotPageItems + 44
	tc.createStream(t, moving)
	tc.ingest(t, moving, chunks)
	tc.createStream(t, staying)
	tc.ingest(t, staying, 8)

	reads := []wire.Message{
		&wire.StreamInfo{UUID: moving},
		&wire.StatRange{UUIDs: []string{moving}, Ts: 0, Te: chunks * 100, WindowChunks: 10},
		&wire.GetRange{UUID: moving, Ts: 0, Te: chunks * 100},
	}
	before := make([][]byte, len(reads))
	for i, req := range reads {
		before[i] = wire.Marshal(router.Handle(context.Background(), req))
	}
	wantExport := exportAll(t, group.Handler, moving)

	conn4, err := NewTCPShard(addr4, addr4, 4)
	if err != nil {
		t.Fatal(err)
	}
	report, err := router.Rebalance(context.Background(), []Shard{{Name: "g0"}, conn4})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Moved) != 1 || report.Moved[0].UUID != moving || report.Moved[0].Chunks != chunks {
		t.Fatalf("moved %+v, want %q with %d chunks", report.Moved, moving, chunks)
	}
	if got := engine4.ListStreams(); len(got) != 1 || got[0] != moving {
		t.Fatalf("new member holds %v, want [%s]", got, moving)
	}
	if got := exportAll(t, engine4, moving); !reflect.DeepEqual(got, wantExport) {
		t.Fatalf("destination export differs from the group's: %d items vs %d", len(got), len(wantExport))
	}
	for i, req := range reads {
		if got := wire.Marshal(router.Handle(context.Background(), req)); !bytes.Equal(got, before[i]) {
			t.Errorf("%T after the move differs from before", req)
		}
	}
	if info, ok := router.Handle(context.Background(), &wire.StreamInfo{UUID: staying}).(*wire.StreamInfoResp); !ok || info.Count != 8 {
		t.Errorf("stream that stayed in the group: %#v", info)
	}
}

// exportAll pages a full WithMeta export of uuid out of h by cursor.
func exportAll(t *testing.T, h server.Handler, uuid string) []wire.KVItem {
	t.Helper()
	var items []wire.KVItem
	req := &wire.StreamSnapshot{UUID: uuid, WithMeta: true, MaxItems: snapshotPageItems}
	for {
		page, ok := h.Handle(context.Background(), req).(*wire.SnapshotChunk)
		if !ok {
			t.Fatalf("export of %q failed", uuid)
		}
		items = append(items, page.Items...)
		if page.Done {
			return items
		}
		req.Cursor = page.Cursor
	}
}
