package replica

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/kv"
	"repro/internal/netchaos"
	"repro/internal/server"
	"repro/internal/wire"
)

// startChaosNode serves a node whose shippers dial through the chaos
// network under the given name, so partitions between group members are
// expressed as netchaos link rules instead of killed processes — the
// node stays alive and unreachable, which is the shape quorum mode
// exists to survive.
func startChaosNode(t testing.TB, lease time.Duration, nw *netchaos.Network, name string, quorum bool) *testNode {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := kv.NewMemStore()
	node, err := New(store, server.Config{}, Options{
		Self:    lis.Addr().String(),
		Lease:   lease,
		Logf:    func(string, ...any) {},
		Quorum:  quorum,
		NetDial: nw.Dialer(name),
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Register(name, lis.Addr().String())
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

// sealChunkVal is testSealedChunk with an explicit point value, so a
// test can tell two competing writes of the same chunk index apart.
func sealChunkVal(t testing.TB, idx uint64, val int64) []byte {
	t.Helper()
	start := int64(idx) * 100
	sealed, err := chunk.SealPlain(testSpec, chunk.CompressionNone, idx, start, start+100,
		[]chunk.Point{{TS: start, Val: val}})
	if err != nil {
		t.Fatal(err)
	}
	return chunk.MarshalSealed(sealed)
}

func wantCode(t testing.TB, resp wire.Message, code uint32, what string) {
	t.Helper()
	errMsg, isErr := resp.(*wire.Error)
	if !isErr || errMsg.Code != code {
		t.Fatalf("%s -> %#v, want error code %d", what, resp, code)
	}
}

// TestQuorumRefusesSmallGroup: quorum acknowledgement over fewer than 3
// members degrades silently to leader-only durability (⌈2/2⌉ = 1, the
// leader itself), so both bootstrap paths must refuse the configuration
// loudly instead of starting.
func TestQuorumRefusesSmallGroup(t *testing.T) {
	silent := func(string, ...any) {}
	node, err := New(kv.NewMemStore(), server.Config{}, Options{Self: "a:1", Logf: silent, Quorum: true})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Lead(nil); err == nil {
		t.Fatal("quorum Lead with no followers succeeded")
	}
	if err := node.Lead([]string{"b:1"}); err == nil {
		t.Fatal("quorum Lead with one follower succeeded (F=1 group)")
	}
	if role, _, _ := node.Status(); role != wire.ReplStandalone {
		t.Fatal("refused Lead still changed the node's role")
	}
	// The promotion path enforces the same bound: a router must not be
	// able to shrink a quorum group below 3 by promoting over a stump.
	wantCode(t, node.Handle(context.Background(), &wire.Promote{
		Epoch: 5, Leader: "a:1", Members: []string{"a:1", "b:1"},
	}), wire.CodeBadRequest, "quorum Promote with 2 members")
	// A full 3-member group is accepted by both paths.
	if err := node.Lead([]string{"b:1", "c:1"}); err != nil {
		t.Fatalf("quorum Lead with 2 followers: %v", err)
	}
	if role, _, _ := node.Status(); role != wire.ReplLeader {
		t.Fatal("3-member quorum Lead did not take the lease")
	}
}

// TestQuorumAcksWithMajorityOnly: ⌈3/2⌉ = 2 of 3 must ack, leader
// included — so a group with one dead member keeps acknowledging writes,
// and the surviving follower still offers read-your-writes.
func TestQuorumAcksWithMajorityOnly(t *testing.T) {
	nw := netchaos.New(1, nil)
	lease := 200 * time.Millisecond
	live := startChaosNode(t, lease, nw, "b", true)
	// A dead member: allocate a real address, then close it.
	deadLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := deadLis.Addr().String()
	deadLis.Close()
	leader := startChaosNode(t, lease, nw, "a", true)
	if err := leader.node.Lead([]string{live.addr, dead}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if resp := leader.node.Handle(ctx, &wire.CreateStream{UUID: "s", Cfg: testCfg()}); !isOK(resp) {
		t.Fatalf("CreateStream -> %#v", resp)
	}
	for i := uint64(0); i < 5; i++ {
		if resp := leader.node.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: testSealedChunk(t, i)}); !isOK(resp) {
			t.Fatalf("InsertChunk(%d) with one member down -> %#v", i, resp)
		}
		// The ack implies the live follower applied it: read-your-writes.
		info, ok := live.node.Handle(ctx, &wire.StreamInfo{UUID: "s"}).(*wire.StreamInfoResp)
		if !ok || info.Count != i+1 {
			t.Fatalf("follower count after insert %d: %#v", i, info)
		}
	}
	if got, want := statBytes(t, live.node, "s"), statBytes(t, leader.node, "s"); !bytes.Equal(got, want) {
		t.Error("surviving follower diverged from leader")
	}
}

// TestQuorumBlocksWithoutMajorityAndHealsCleanly: a leader partitioned
// from both followers must (a) let an already-in-flight write block
// rather than ack it, (b) refuse NEW writes with CodeBusy before
// applying anything once the gate notices, and (c) release the blocked
// write exactly once after the partition heals — no duplicate
// application, no lost ack.
func TestQuorumBlocksWithoutMajorityAndHealsCleanly(t *testing.T) {
	nw := netchaos.New(2, t.Logf)
	lease := 200 * time.Millisecond
	f1 := startChaosNode(t, lease, nw, "b", true)
	f2 := startChaosNode(t, lease, nw, "c", true)
	leader := startChaosNode(t, lease, nw, "a", true)
	if err := leader.node.Lead([]string{f1.addr, f2.addr}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if resp := leader.node.Handle(ctx, &wire.CreateStream{UUID: "s", Cfg: testCfg()}); !isOK(resp) {
		t.Fatalf("CreateStream -> %#v", resp)
	}
	for i := uint64(0); i < 3; i++ {
		if resp := leader.node.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: testSealedChunk(t, i)}); !isOK(resp) {
			t.Fatalf("InsertChunk(%d) -> %#v", i, resp)
		}
	}

	nw.Partition([]string{"a"}, []string{"b", "c"})

	// An in-flight write issued right after the cut: applied locally,
	// then parked in the durability wait. Its generous deadline outlives
	// the partition, so the ONLY acceptable outcomes are an ack after
	// the heal or a leadership change — never a premature solo ack.
	blocked := make(chan wire.Message, 1)
	go func() {
		wctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		blocked <- leader.node.Handle(wctx, &wire.InsertChunk{UUID: "s", Chunk: testSealedChunk(t, 3)})
	}()
	select {
	case resp := <-blocked:
		t.Fatalf("write acked without a quorum: %#v", resp)
	case <-time.After(lease):
	}

	// After a full lease without follower contact the gate closes: new
	// writes refuse fast with CodeBusy, applying nothing.
	time.Sleep(2 * lease)
	for i := 0; i < 3; i++ {
		wantCode(t, leader.node.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: testSealedChunk(t, 4)}),
			wire.CodeBusy, "write without quorum")
	}

	nw.Heal()
	select {
	case resp := <-blocked:
		if !isOK(resp) {
			t.Fatalf("blocked write after heal -> %#v", resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked write never resolved after heal")
	}
	// The CodeBusy probes applied nothing and the blocked write applied
	// once: chunk 4 inserts cleanly now, and all three replicas agree.
	if resp := leader.node.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: testSealedChunk(t, 4)}); !isOK(resp) {
		t.Fatalf("post-heal insert -> %#v", resp)
	}
	for _, tn := range []*testNode{f1, f2} {
		tn := tn
		waitFor(t, "follower caught up after heal", func() bool {
			info, ok := tn.node.Handle(ctx, &wire.StreamInfo{UUID: "s"}).(*wire.StreamInfoResp)
			return ok && info.Count == 5
		})
		if got, want := statBytes(t, tn.node, "s"), statBytes(t, leader.node, "s"); !bytes.Equal(got, want) {
			t.Error("replica diverged after heal")
		}
	}
}

// TestDeposedMinorityLeaderResyncsAndDiscardsTail: a quorum leader cut
// off from its majority applies a write locally that never acks; the
// majority promotes a new leader and accepts different writes. When the
// partition heals, the ex-leader must rejoin via snapshot resync with
// its unacked tail GONE — replaced by the majority's history, not merged
// with it.
func TestDeposedMinorityLeaderResyncsAndDiscardsTail(t *testing.T) {
	nw := netchaos.New(3, t.Logf)
	lease := 200 * time.Millisecond
	b := startChaosNode(t, lease, nw, "b", true)
	c := startChaosNode(t, lease, nw, "c", true)
	a := startChaosNode(t, lease, nw, "a", true)
	if err := a.node.Lead([]string{b.addr, c.addr}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if resp := a.node.Handle(ctx, &wire.CreateStream{UUID: "s", Cfg: testCfg()}); !isOK(resp) {
		t.Fatalf("CreateStream -> %#v", resp)
	}
	for i := uint64(0); i < 3; i++ {
		if resp := a.node.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: testSealedChunk(t, i)}); !isOK(resp) {
			t.Fatalf("InsertChunk(%d) -> %#v", i, resp)
		}
	}

	nw.Partition([]string{"a"}, []string{"b", "c"})

	// The minority leader applies chunk 3 (value 4) locally; the ack
	// never comes. This is a's unacked tail.
	tail := make(chan wire.Message, 1)
	go func() {
		wctx, cancel := context.WithTimeout(context.Background(), 2*lease)
		defer cancel()
		tail <- a.node.Handle(wctx, &wire.InsertChunk{UUID: "s", Chunk: testSealedChunk(t, 3)})
	}()
	waitFor(t, "tail applied locally on the minority leader", func() bool {
		info, ok := a.node.Handle(ctx, &wire.StreamInfo{UUID: "s"}).(*wire.StreamInfoResp)
		return ok && info.Count == 4
	})
	if resp := <-tail; isOK(resp) {
		t.Fatal("minority leader acked a write without a quorum")
	}

	// Majority-side failover. A quorum of 3 is the leader plus EITHER
	// follower, so only one of b and c is sure to hold the acked prefix:
	// the more advanced one takes the lease with the full membership, as
	// the router's fence-then-promote would have it.
	next, other := b, c
	_, _, wmB := b.node.Status()
	if _, _, wmC := c.node.Status(); wmC > wmB {
		next, other = c, b
	}
	ack, ok := next.node.Handle(ctx, &wire.Promote{
		Epoch: 2, Leader: next.addr, Members: []string{a.addr, b.addr, c.addr},
	}).(*wire.ReplAck)
	if !ok || ack.Epoch != 2 {
		t.Fatalf("Promote -> %#v", ack)
	}
	// The new leader writes its OWN chunk 3 (value 99): after the heal
	// exactly one of the two competing histories may survive.
	if resp := next.node.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: sealChunkVal(t, 3, 99)}); !isOK(resp) {
		t.Fatalf("InsertChunk on new leader -> %#v", resp)
	}
	// The follower that was passed over catches up with the new leader,
	// whether or not it held the whole prefix.
	// sameAsLeader tolerates the errors of a node still mid-resync (busy
	// installing, or wiped and not yet holding the stream).
	sameAsLeader := func(tn *testNode) bool {
		role, epoch, _ := tn.node.Status()
		if role != wire.ReplFollower || epoch != 2 {
			return false
		}
		resp := tn.node.Handle(ctx, &wire.StatRange{UUIDs: []string{"s"}, Ts: 0, Te: 1 << 40, WindowChunks: 4})
		if _, isErr := resp.(*wire.Error); isErr {
			return false
		}
		return bytes.Equal(wire.Marshal(resp), statBytes(t, next.node, "s"))
	}
	waitFor(t, "passed-over follower caught up with the new leader", func() bool { return sameAsLeader(other) })

	nw.Heal()
	waitFor(t, "ex-leader resynced to the majority history", func() bool { return sameAsLeader(a) })
	if a.node.Installs() == 0 {
		t.Error("ex-leader rejoined without a snapshot resync")
	}
	// The surviving chunk 3 is the majority's (sum 1+2+3+99), not the
	// discarded tail's (1+2+3+4).
	resp, ok := a.node.Handle(ctx, &wire.StatRange{UUIDs: []string{"s"}, Ts: 0, Te: 400}).(*wire.StatRangeResp)
	if !ok {
		t.Fatalf("StatRange -> %#v", resp)
	}
	if got := resp.Windows[0][0]; got != 105 {
		t.Fatalf("post-heal sum = %d, want 105 (unacked tail discarded)", got)
	}
}
