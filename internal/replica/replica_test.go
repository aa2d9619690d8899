package replica

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/wire"
)

var testSpec = chunk.DigestSpec{Sum: true, Count: true}

func testCfg() wire.StreamConfig {
	specBytes, _ := testSpec.MarshalBinary()
	return wire.StreamConfig{
		Epoch: 0, Interval: 100, VectorLen: uint32(testSpec.VectorLen()),
		Fanout: 8, DigestSpec: specBytes,
	}
}

func testSealedChunk(t testing.TB, idx uint64) []byte {
	t.Helper()
	start := int64(idx) * 100
	sealed, err := chunk.SealPlain(testSpec, chunk.CompressionNone, idx, start, start+100,
		[]chunk.Point{{TS: start, Val: int64(idx + 1)}})
	if err != nil {
		t.Fatal(err)
	}
	return chunk.MarshalSealed(sealed)
}

// testNode is one replication group member served over real TCP.
type testNode struct {
	node  *Node
	store kv.Store
	addr  string
	srv   *server.Server
	stop  func()
}

// startNode serves a fresh Node on a loopback listener. lease keeps test
// heartbeats and failure detection fast.
func startNode(t testing.TB, lease time.Duration) *testNode {
	t.Helper()
	return startNodeOn(t, lease, kv.NewMemStore())
}

// startNodeOn serves a Node over an existing store, so tests can restart
// a member on top of its persisted replication state.
func startNodeOn(t testing.TB, lease time.Duration, store kv.Store) *testNode {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := New(store, server.Config{}, Options{
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
	tn := &testNode{node: node, store: store, addr: lis.Addr().String(), srv: srv}
	tn.stop = func() {
		node.Close()
		cancel()
		srv.Close()
		<-done
	}
	t.Cleanup(tn.stop)
	return tn
}

func isOK(m wire.Message) bool { _, ok := m.(*wire.OK); return ok }

// waitFor polls until cond holds or the deadline lapses.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// statBytes marshals a node's StatRange response so replicas can be
// compared byte for byte.
func statBytes(t testing.TB, n *Node, uuid string) []byte {
	t.Helper()
	resp := n.Handle(context.Background(), &wire.StatRange{
		UUIDs: []string{uuid}, Ts: 0, Te: 1 << 40, WindowChunks: 4,
	})
	if _, isErr := resp.(*wire.Error); isErr {
		t.Fatalf("StatRange -> %#v", resp)
	}
	return wire.Marshal(resp)
}

func TestLeaderReplicatesToFollower(t *testing.T) {
	follower := startNode(t, 200*time.Millisecond)
	leader := startNode(t, 200*time.Millisecond)
	leader.node.Lead([]string{follower.addr})

	ctx := context.Background()
	if resp := leader.node.Handle(ctx, &wire.CreateStream{UUID: "s1", Cfg: testCfg()}); !isOK(resp) {
		t.Fatalf("CreateStream -> %#v", resp)
	}
	for i := uint64(0); i < 10; i++ {
		if resp := leader.node.Handle(ctx, &wire.InsertChunk{UUID: "s1", Chunk: testSealedChunk(t, i)}); !isOK(resp) {
			t.Fatalf("InsertChunk(%d) -> %#v", i, resp)
		}
		// Read-your-writes: the insert was acknowledged only after the
		// follower applied it, so the follower must see it now.
		info, ok := follower.node.Handle(ctx, &wire.StreamInfo{UUID: "s1"}).(*wire.StreamInfoResp)
		if !ok || info.Count != i+1 {
			t.Fatalf("follower count after insert %d: %#v", i, info)
		}
	}
	if got, want := statBytes(t, follower.node, "s1"), statBytes(t, leader.node, "s1"); !bytes.Equal(got, want) {
		t.Error("follower StatRange diverged from leader")
	}
	role, epoch, wm := follower.node.Status()
	if role != wire.ReplFollower || epoch != 1 || wm != 11 {
		t.Errorf("follower status: role=%d epoch=%d watermark=%d", role, epoch, wm)
	}
}

func TestFollowerRefusesClientWrites(t *testing.T) {
	follower := startNode(t, 200*time.Millisecond)
	leader := startNode(t, 200*time.Millisecond)
	leader.node.Lead([]string{follower.addr})
	ctx := context.Background()
	if resp := leader.node.Handle(ctx, &wire.CreateStream{UUID: "s1", Cfg: testCfg()}); !isOK(resp) {
		t.Fatalf("CreateStream -> %#v", resp)
	}
	waitFor(t, "follower adoption", func() bool {
		role, _, _ := follower.node.Status()
		return role == wire.ReplFollower
	})
	errMsg, ok := follower.node.Handle(ctx, &wire.InsertChunk{UUID: "s1", Chunk: testSealedChunk(t, 0)}).(*wire.Error)
	if !ok || errMsg.Code != wire.CodeNotLeader {
		t.Fatalf("follower write -> %#v", errMsg)
	}
	if errMsg.Aux != 1 {
		t.Errorf("CodeNotLeader epoch = %d, want 1", errMsg.Aux)
	}
	// The referral names the leader that is actually shipping to this
	// follower (carried in every ReplAppend frame), so clients redirect in
	// one hop.
	if errMsg.Msg != leader.addr {
		t.Errorf("CodeNotLeader referral = %q, want %q", errMsg.Msg, leader.addr)
	}
	// Reads keep working on the follower.
	if resp := follower.node.Handle(ctx, &wire.StreamInfo{UUID: "s1"}); resp == nil {
		t.Fatal("follower read failed")
	}
}

func TestPromoteFailoverAndDeposedLeader(t *testing.T) {
	follower := startNode(t, 100*time.Millisecond)
	leader := startNode(t, 100*time.Millisecond)
	leader.node.Lead([]string{follower.addr})

	ctx := context.Background()
	if resp := leader.node.Handle(ctx, &wire.CreateStream{UUID: "s1", Cfg: testCfg()}); !isOK(resp) {
		t.Fatalf("CreateStream -> %#v", resp)
	}
	for i := uint64(0); i < 5; i++ {
		if resp := leader.node.Handle(ctx, &wire.InsertChunk{UUID: "s1", Chunk: testSealedChunk(t, i)}); !isOK(resp) {
			t.Fatalf("InsertChunk(%d) -> %#v", i, resp)
		}
	}
	before := statBytes(t, leader.node, "s1")

	// Failover: promote the follower at a higher epoch, naming the old
	// leader as a member so it gets adopted back.
	ack, ok := follower.node.Handle(ctx, &wire.Promote{
		Epoch: 2, Leader: follower.addr, Members: []string{follower.addr, leader.addr},
	}).(*wire.ReplAck)
	if !ok || ack.Epoch != 2 {
		t.Fatalf("Promote -> %#v", ack)
	}
	role, epoch, _ := follower.node.Status()
	if role != wire.ReplLeader || epoch != 2 {
		t.Fatalf("promoted follower: role=%d epoch=%d", role, epoch)
	}
	// Every acknowledged chunk survives, byte for byte.
	if got := statBytes(t, follower.node, "s1"); !bytes.Equal(got, before) {
		t.Error("promoted follower lost acknowledged data")
	}

	// The old leader learns of the higher epoch from its own shipping (or
	// from the new leader's adoption) and stops accepting writes.
	waitFor(t, "old leader deposed", func() bool {
		role, _, _ := leader.node.Status()
		return role != wire.ReplLeader
	})
	resp := leader.node.Handle(ctx, &wire.InsertChunk{UUID: "s1", Chunk: testSealedChunk(t, 5)})
	if errMsg, isErr := resp.(*wire.Error); !isErr || errMsg.Code != wire.CodeNotLeader {
		t.Fatalf("deposed leader accepted a write: %#v", resp)
	}

	// The new leader resyncs the ex-leader (watermark reset forces a
	// snapshot) and then writes replicate to it as a follower.
	waitFor(t, "ex-leader resynced", func() bool {
		role, epoch, wm := leader.node.Status()
		return role == wire.ReplFollower && epoch == 2 && wm >= 6
	})
	if resp := follower.node.Handle(ctx, &wire.InsertChunk{UUID: "s1", Chunk: testSealedChunk(t, 5)}); !isOK(resp) {
		t.Fatalf("write on new leader -> %#v", resp)
	}
	if got, want := statBytes(t, leader.node, "s1"), statBytes(t, follower.node, "s1"); !bytes.Equal(got, want) {
		t.Error("ex-leader diverged after rejoining as follower")
	}
}

func TestSnapshotResyncFromTrimmedLog(t *testing.T) {
	follower := startNode(t, 100*time.Millisecond)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := kv.NewMemStore()
	// A one-byte log budget trims every acknowledged record away, so a
	// late-joining follower can never catch up from the log.
	node, err := New(store, server.Config{}, Options{
		Self: lis.Addr().String(), Lease: 100 * time.Millisecond,
		logBytes: 1, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	node.Lead(nil) // no followers yet

	ctx := context.Background()
	if resp := node.Handle(ctx, &wire.CreateStream{UUID: "s1", Cfg: testCfg()}); !isOK(resp) {
		t.Fatalf("CreateStream -> %#v", resp)
	}
	for i := uint64(0); i < 8; i++ {
		if resp := node.Handle(ctx, &wire.InsertChunk{UUID: "s1", Chunk: testSealedChunk(t, i)}); !isOK(resp) {
			t.Fatalf("InsertChunk(%d) -> %#v", i, resp)
		}
	}
	// Re-promote with the follower in the group: its watermark 0 is far
	// behind the trimmed log, forcing a full snapshot resync.
	if resp := node.Handle(ctx, &wire.Promote{
		Epoch: 2, Leader: lis.Addr().String(),
		Members: []string{lis.Addr().String(), follower.addr},
	}); resp == nil {
		t.Fatal("Promote failed")
	}
	waitFor(t, "snapshot resync", func() bool {
		role, epoch, wm := follower.node.Status()
		return role == wire.ReplFollower && epoch == 2 && wm >= 9
	})
	if got, want := statBytes(t, follower.node, "s1"), statBytes(t, node, "s1"); !bytes.Equal(got, want) {
		t.Error("resynced follower diverged from leader")
	}
	// And the pipeline keeps flowing after the resync.
	if resp := node.Handle(ctx, &wire.InsertChunk{UUID: "s1", Chunk: testSealedChunk(t, 8)}); !isOK(resp) {
		t.Fatalf("post-resync insert -> %#v", resp)
	}
	info, ok := follower.node.Handle(ctx, &wire.StreamInfo{UUID: "s1"}).(*wire.StreamInfoResp)
	if !ok || info.Count != 9 {
		t.Errorf("follower count after post-resync insert: %#v", info)
	}
}

// TestDivergentFollowerForcedToResync: a follower whose watermark comes
// from an older leader's sequence space (it missed a re-based promotion)
// must be snapshot-resynced, not allowed to duplicate-ack every new record
// while applying none of them — that would silently lose acknowledged
// writes.
func TestDivergentFollowerForcedToResync(t *testing.T) {
	follower := startNode(t, 100*time.Millisecond)
	old := startNode(t, 100*time.Millisecond)
	old.node.Lead([]string{follower.addr})

	ctx := context.Background()
	if resp := old.node.Handle(ctx, &wire.CreateStream{UUID: "s1", Cfg: testCfg()}); !isOK(resp) {
		t.Fatalf("CreateStream -> %#v", resp)
	}
	for i := uint64(0); i < 5; i++ {
		if resp := old.node.Handle(ctx, &wire.InsertChunk{UUID: "s1", Chunk: testSealedChunk(t, i)}); !isOK(resp) {
			t.Fatalf("InsertChunk(%d) -> %#v", i, resp)
		}
	}
	waitFor(t, "follower caught up on old leader", func() bool {
		_, _, wm := follower.node.Status()
		return wm == 6
	})

	// The old leader "dies"; a FRESH, empty node is promoted at a higher
	// epoch. Its log starts at sequence 1 — a different sequence space —
	// while the follower still carries watermark 6 from epoch 1.
	fresh := startNode(t, 100*time.Millisecond)
	if resp := fresh.node.Handle(ctx, &wire.Promote{
		Epoch: 2, Leader: fresh.addr, Members: []string{fresh.addr, follower.addr},
	}); resp == nil {
		t.Fatal("Promote failed")
	}

	// New writes on the fresh leader must actually reach the follower; a
	// divergent follower dup-acking them without applying would leave it
	// without stream s2 forever.
	if resp := fresh.node.Handle(ctx, &wire.CreateStream{UUID: "s2", Cfg: testCfg()}); !isOK(resp) {
		t.Fatalf("CreateStream on fresh leader -> %#v", resp)
	}
	for i := uint64(0); i < 5; i++ {
		if resp := fresh.node.Handle(ctx, &wire.InsertChunk{UUID: "s2", Chunk: testSealedChunk(t, i)}); !isOK(resp) {
			t.Fatalf("InsertChunk on fresh leader -> %#v", resp)
		}
	}
	waitFor(t, "divergent follower resynced to the fresh leader", func() bool {
		info, ok := follower.node.Handle(ctx, &wire.StreamInfo{UUID: "s2"}).(*wire.StreamInfoResp)
		return ok && info.Count == 5
	})
	// The resync replaced the follower's divergent image wholesale: the old
	// stream is gone (the fresh leader never had it) and states match.
	if resp := follower.node.Handle(ctx, &wire.StreamInfo{UUID: "s1"}); !func() bool {
		_, isErr := resp.(*wire.Error)
		return isErr
	}() {
		t.Errorf("divergent follower kept stale stream s1: %#v", resp)
	}
	if got, want := statBytes(t, follower.node, "s2"), statBytes(t, fresh.node, "s2"); !bytes.Equal(got, want) {
		t.Error("resynced follower diverged from fresh leader")
	}
}

// TestCrashMidSnapshotInstallRestartsFenced: the installing marker is
// durable and the state key survives the pre-install wipe, so a node that
// crashes between the wipe and the snapshot's Done page restarts as a
// fenced follower — it must not come back standalone serving a partial
// image (empty reads, accepted writes).
func TestCrashMidSnapshotInstallRestartsFenced(t *testing.T) {
	store := kv.NewMemStore()
	silent := func(string, ...any) {}
	node, err := New(store, server.Config{}, Options{Self: "a:1", Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if resp := node.Handle(ctx, &wire.CreateStream{UUID: "old", Cfg: testCfg()}); !isOK(resp) {
		t.Fatalf("CreateStream -> %#v", resp)
	}
	// First page of an install at epoch 7 wipes the store; the sender dies
	// before Done, then this node crashes.
	if resp := node.Handle(ctx, &wire.ReplSnapshot{
		Epoch: 7, Watermark: 40, First: true, Leader: "b:1",
		Items: []wire.KVItem{{Key: "partial/key", Value: []byte{1}}},
	}); resp == nil {
		t.Fatal("snapshot first page refused")
	}
	node.Close()

	reborn, err := New(store, server.Config{}, Options{Self: "a:1", Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	role, epoch, _ := reborn.Status()
	if role != wire.ReplFollower || epoch != 7 {
		t.Fatalf("restarted mid-install: role=%d epoch=%d, want fenced follower at epoch 7", role, epoch)
	}
	// Reads are fenced (the store is a partial image)...
	wantErr(t, reborn.Handle(ctx, &wire.StreamInfo{UUID: "old"}), wire.CodeBusy)
	// ...writes are refused...
	wantErr(t, reborn.Handle(ctx, &wire.CreateStream{UUID: "x", Cfg: testCfg()}), wire.CodeNotLeader)
	// ...it cannot be promoted to lead over the partial image...
	wantErr(t, reborn.Handle(ctx, &wire.Promote{Epoch: 8, Leader: "a:1"}), wire.CodeBusy)
	// ...and a resumed page without a fresh First is refused (its
	// predecessor pages died with the process).
	wantErr(t, reborn.Handle(ctx, &wire.ReplSnapshot{Epoch: 7, Watermark: 40, Done: true}), wire.CodeBadRequest)

	// A fresh First..Done snapshot completes the resync and lifts the fence.
	ack, ok := reborn.Handle(ctx, &wire.ReplSnapshot{
		Epoch: 7, Watermark: 3, First: true, Done: true, Leader: "b:1",
	}).(*wire.ReplAck)
	if !ok || ack.Watermark != 3 {
		t.Fatalf("fresh snapshot -> %#v", ack)
	}
	if role, epoch, wm := reborn.Status(); role != wire.ReplFollower || epoch != 7 || wm != 3 {
		t.Fatalf("after resync: role=%d epoch=%d wm=%d", role, epoch, wm)
	}
	if resp := reborn.Handle(ctx, &wire.StreamInfo{UUID: "old"}); func() bool {
		errMsg, isErr := resp.(*wire.Error)
		return isErr && errMsg.Code == wire.CodeBusy
	}() {
		t.Error("reads still fenced after a completed resync")
	}
}

// TestLeaderRecoversFollowerStuckMidInstall: a follower fenced by a
// crashed snapshot install answers CodeBusy to every append forever; the
// leader must notice the busy streak and send a fresh snapshot — the one
// frame such a follower still accepts — instead of retrying appends
// indefinitely.
func TestLeaderRecoversFollowerStuckMidInstall(t *testing.T) {
	silent := func(string, ...any) {}
	fstore := kv.NewMemStore()
	crashed, err := New(fstore, server.Config{}, Options{Self: "f:1", Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if resp := crashed.Handle(ctx, &wire.ReplSnapshot{
		Epoch: 1, Watermark: 9, First: true, Leader: "dead:1",
		Items: []wire.KVItem{{Key: "partial/key", Value: []byte{1}}},
	}); resp == nil {
		t.Fatal("snapshot first page refused")
	}
	crashed.Close()

	follower := startNodeOn(t, 100*time.Millisecond, fstore)
	wantErr(t, follower.node.Handle(ctx, &wire.StreamInfo{UUID: "s1"}), wire.CodeBusy)

	leader := startNode(t, 100*time.Millisecond)
	if resp := leader.node.Handle(ctx, &wire.CreateStream{UUID: "s1", Cfg: testCfg()}); !isOK(resp) {
		t.Fatalf("CreateStream -> %#v", resp)
	}
	for i := uint64(0); i < 3; i++ {
		if resp := leader.node.Handle(ctx, &wire.InsertChunk{UUID: "s1", Chunk: testSealedChunk(t, i)}); !isOK(resp) {
			t.Fatalf("InsertChunk(%d) -> %#v", i, resp)
		}
	}
	leader.node.Lead([]string{follower.addr})

	waitFor(t, "stuck follower snapshot-resynced", func() bool {
		role, _, _ := follower.node.Status()
		if role != wire.ReplFollower {
			return false
		}
		info, ok := follower.node.Handle(ctx, &wire.StreamInfo{UUID: "s1"}).(*wire.StreamInfoResp)
		return ok && info.Count == 3
	})
	// And the pipeline flows after the recovery.
	if resp := leader.node.Handle(ctx, &wire.InsertChunk{UUID: "s1", Chunk: testSealedChunk(t, 3)}); !isOK(resp) {
		t.Fatalf("post-recovery insert -> %#v", resp)
	}
	if got, want := statBytes(t, follower.node, "s1"), statBytes(t, leader.node, "s1"); !bytes.Equal(got, want) {
		t.Error("recovered follower diverged from leader")
	}
}

func TestRestartedLeaderComesBackDeposed(t *testing.T) {
	store := kv.NewMemStore()
	node, err := New(store, server.Config{}, Options{Self: "a:1", Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	node.Lead(nil)
	node.Close()

	reborn, err := New(store, server.Config{}, Options{Self: "a:1", Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	role, epoch, _ := reborn.Status()
	if role != wire.ReplDeposed || epoch != 1 {
		t.Fatalf("restarted leader: role=%d epoch=%d, want deposed at epoch 1", role, epoch)
	}
	// It refuses writes until re-promoted or adopted...
	resp := reborn.Handle(context.Background(), &wire.CreateStream{UUID: "x", Cfg: testCfg()})
	if errMsg, isErr := resp.(*wire.Error); !isErr || errMsg.Code != wire.CodeNotLeader {
		t.Fatalf("deposed node accepted a write: %#v", resp)
	}
	// ...and Lead is a no-op over persisted state (no self-promotion).
	reborn.Lead(nil)
	if role, _, _ := reborn.Status(); role != wire.ReplDeposed {
		t.Error("restarted ex-leader self-promoted")
	}
	// An explicit re-promotion at a higher epoch restores it.
	if ack, ok := reborn.Handle(context.Background(), &wire.Promote{Epoch: 2, Leader: "a:1"}).(*wire.ReplAck); !ok || ack.Epoch != 2 {
		t.Fatalf("re-promotion failed: %#v", ack)
	}
	if role, _, _ := reborn.Status(); role != wire.ReplLeader {
		t.Error("re-promoted node is not leading")
	}
}

func TestStandaloneNodePassesThrough(t *testing.T) {
	node, err := New(kv.NewMemStore(), server.Config{}, Options{Self: "a:1", Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ctx := context.Background()
	if resp := node.Handle(ctx, &wire.CreateStream{UUID: "s", Cfg: testCfg()}); !isOK(resp) {
		t.Fatalf("CreateStream -> %#v", resp)
	}
	if resp := node.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: testSealedChunk(t, 0)}); !isOK(resp) {
		t.Fatalf("InsertChunk -> %#v", resp)
	}
	li, ok := node.Handle(ctx, &wire.LeaseInfo{}).(*wire.LeaseInfoResp)
	if !ok || li.Role != wire.ReplStandalone {
		t.Fatalf("LeaseInfo -> %#v", li)
	}
}

func TestLeaseInfoReportsGroup(t *testing.T) {
	follower := startNode(t, 200*time.Millisecond)
	leader := startNode(t, 200*time.Millisecond)
	leader.node.Lead([]string{follower.addr})
	li, ok := leader.node.Handle(context.Background(), &wire.LeaseInfo{}).(*wire.LeaseInfoResp)
	if !ok || li.Role != wire.ReplLeader || li.Epoch != 1 || len(li.Members) != 2 {
		t.Fatalf("leader LeaseInfo -> %#v", li)
	}
	if li.LeaseMS != 200 {
		t.Errorf("LeaseMS = %d, want 200", li.LeaseMS)
	}
	waitFor(t, "follower adoption", func() bool {
		role, _, _ := follower.node.Status()
		return role == wire.ReplFollower
	})
	fli, ok := follower.node.Handle(context.Background(), &wire.LeaseInfo{}).(*wire.LeaseInfoResp)
	if !ok || fli.Role != wire.ReplFollower || fli.Epoch != 1 {
		t.Fatalf("follower LeaseInfo -> %#v", fli)
	}
}

// parkingStore parks the first batch that puts key until release closes.
type parkingStore struct {
	kv.Store
	key     string
	once    sync.Once
	parked  chan struct{}
	release chan struct{}
}

func (s *parkingStore) Batch(ops []kv.Op) error {
	for _, op := range ops {
		if op.Kind == kv.OpPut && op.Key == s.key {
			s.once.Do(func() {
				close(s.parked)
				<-s.release
			})
			break
		}
	}
	return s.Store.Batch(ops)
}

// TestDeposeDuringApplyDoesNotDeadlock: a leader's insert still holds its
// stream's order lock when a newer leader's frame deposes the node and
// replays a record of the same stream, holding the node lock while it
// waits for that order lock. The leader's log append must not need the
// node lock, or neither request ever finishes.
func TestDeposeDuringApplyDoesNotDeadlock(t *testing.T) {
	store := &parkingStore{Store: kv.NewMemStore(), key: "c/s/1",
		parked: make(chan struct{}), release: make(chan struct{})}
	node, err := New(store, server.Config{}, Options{Self: "a:1", Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Lead(nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, req := range []wire.Message{
		&wire.CreateStream{UUID: "s", Cfg: testCfg()},
		&wire.InsertChunk{UUID: "s", Chunk: testSealedChunk(t, 0)},
	} {
		if resp := node.Handle(ctx, req); !isOK(resp) {
			t.Fatalf("%T -> %#v", req, resp)
		}
	}
	applied := make(chan wire.Message, 1)
	go func() { applied <- node.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: testSealedChunk(t, 1)}) }()
	<-store.parked
	replayed := make(chan wire.Message, 1)
	go func() {
		replayed <- node.Handle(ctx, &wire.ReplAppend{Epoch: 2, FirstSeq: 1, Leader: "b:1",
			Records: [][]byte{record(&wire.InsertChunk{UUID: "s", Chunk: testSealedChunk(t, 2)})}})
	}()
	time.Sleep(20 * time.Millisecond) // let the frame reach the order lock
	close(store.release)
	for name, ch := range map[string]chan wire.Message{"leader insert": applied, "deposing frame": replayed} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never finished: the two requests deadlocked", name)
		}
	}
	node.Close() // only now: a deadlocked node would never close
}

// TestMigrationMessagesLogInApplyOrder: a failed migration's HandoffAbort
// can reach the destination leader while its IngestSnapshot is still being
// applied, though the stream is not served there yet: both take the order
// lock of the UUID's bare table entry. The abort must wait for the ingest,
// so the log replays them in the order the leader applied them and
// followers discard the partial import too.
func TestMigrationMessagesLogInApplyOrder(t *testing.T) {
	store := &parkingStore{Store: kv.NewMemStore(), key: "m/s",
		parked: make(chan struct{}), release: make(chan struct{})}
	node, err := New(store, server.Config{}, Options{Self: "a:1", Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Lead(nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ingest := &wire.IngestSnapshot{UUID: "s", Items: []wire.KVItem{{Key: "m/s", Value: []byte("meta")}}}
	abort := &wire.HandoffComplete{UUID: "s", Action: wire.HandoffAbort}
	ingested := make(chan wire.Message, 1)
	go func() { ingested <- node.Handle(ctx, ingest) }()
	<-store.parked
	aborted := make(chan wire.Message, 1)
	go func() { aborted <- node.Handle(ctx, abort) }()
	time.Sleep(20 * time.Millisecond) // an unordered abort applies and logs now
	close(store.release)
	for _, ch := range []chan wire.Message{ingested, aborted} {
		if resp := <-ch; !isOK(resp) {
			t.Fatalf("%#v", resp)
		}
	}
	_, recs, ok := node.log.from(1, 1<<20)
	if !ok || len(recs) != 2 || !bytes.Equal(recs[0], record(ingest)) || !bytes.Equal(recs[1], record(abort)) {
		t.Fatalf("log holds %d records (ok %v), want the ingest then the abort", len(recs), ok)
	}
	if _, err := store.Get("m/s"); err == nil {
		t.Fatal("the abort applied before the ingest it cleans up after")
	}
}
