package cluster

// The partition suite: fault-injection tests (internal/netchaos) proving
// the quorum-acknowledgement window is closed at the cluster layer — a
// router riding a partitioned replication group never loses an
// acknowledged write, never observes two acknowledging leaders, and
// recovers read-your-writes on the majority side. Every schedule is
// deterministic: the seeded property test logs its seed and replays with
//
//	go test ./internal/cluster/ -run TestRandomFaultSchedule -seed=N

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/kv"
	"repro/internal/netchaos"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wire"
)

// chaosSeed replays a specific fault schedule in the seeded property
// test; 0 derives a fresh seed from the clock (and logs it).
var chaosSeed = flag.Uint64("seed", 0, "replay a specific netchaos fault schedule (0 = random, logged)")

// startChaosMember is startReplMember with the member's outbound dials
// routed through a chaos network under the given name, so partitions are
// link rules instead of killed processes — the member stays alive and
// unreachable, the failure shape quorum mode exists to survive.
func startChaosMember(t *testing.T, lease time.Duration, nw *netchaos.Network, name string, quorum bool, onAck func(epoch, seq uint64)) *replMember {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := kv.NewMemStore()
	node, err := replica.New(store, server.Config{}, replica.Options{
		Self:    lis.Addr().String(),
		Lease:   lease,
		Logf:    func(string, ...any) {},
		Quorum:  quorum,
		NetDial: nw.Dialer(name),
		OnAck:   onAck,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Register(name, lis.Addr().String())
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

// waitUntil polls cond for up to 15s — partition tests wait through
// lease expiries, elections, and snapshot resyncs.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// statB marshals one StatRange answer so replicas (or a replica and a
// control engine) can be compared byte-for-byte.
func statB(t *testing.T, h server.Handler, uuid string, te int64) []byte {
	t.Helper()
	resp := h.Handle(context.Background(), &wire.StatRange{UUIDs: []string{uuid}, Ts: 0, Te: te, WindowChunks: 4})
	return wire.Marshal(resp)
}

// sealIdxVal seals one single-point chunk with an explicit value, so
// competing writes of the same index are distinguishable post-heal.
func sealIdxVal(t *testing.T, spec chunk.DigestSpec, idx uint64, val int64) []byte {
	t.Helper()
	start := int64(idx) * 100
	sealed, err := chunk.SealPlain(spec, chunk.CompressionNone, idx, start, start+100,
		[]chunk.Point{{TS: start, Val: val}})
	if err != nil {
		t.Fatal(err)
	}
	return chunk.MarshalSealed(sealed)
}

// insertAcked drives one chunk to a durable acknowledgement through h,
// following the discipline real writers need under partitions: only
// wire.OK counts as acked; CodeBusy and CodeNotLeader applied nothing
// and retry freely; any ambiguous outcome (the connection died or the
// call timed out mid-flight) is resolved by reading StreamInfo.Count —
// chunks are inserted in index order, so the count names the next index
// exactly and a blind retry can never double-apply.
func insertAcked(t *testing.T, h server.Handler, spec chunk.DigestSpec, uuid string, idx uint64, timeout time.Duration) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		resp := h.Handle(ctx, &wire.InsertChunk{UUID: uuid, Chunk: sealIdxVal(t, spec, idx, int64(idx+1))})
		cancel()
		e, isErr := resp.(*wire.Error)
		if !isErr {
			if isOK(resp) {
				return true
			}
			return false // a non-error, non-OK response would be a protocol bug
		}
		switch e.Code {
		case wire.CodeBusy, wire.CodeNotLeader:
			// Nothing was applied; retry after a beat.
		default:
			// Ambiguous (or the chunk raced in and a duplicate was
			// refused): ask how far ingest actually got.
			rctx, rcancel := context.WithTimeout(context.Background(), 2*time.Second)
			info, ok := h.Handle(rctx, &wire.StreamInfo{UUID: uuid}).(*wire.StreamInfoResp)
			rcancel()
			if ok && info.Count > idx {
				return true // applied before the error reached us
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return false
}

// ackJournal records every client-acknowledged mutation as (node, epoch,
// seq) via replica.Options.OnAck, and checks the two safety invariants a
// quorum group owes its callers: at most one node acknowledges writes in
// any epoch, and acknowledged sequence ranges never overlap across
// epochs (a deposed leader's acks all precede its successor's).
type ackJournal struct {
	mu      sync.Mutex
	byEpoch map[uint64]*epochAcks
	bad     []string
}

type epochAcks struct {
	node     string
	min, max uint64
}

func newAckJournal() *ackJournal {
	return &ackJournal{byEpoch: map[uint64]*epochAcks{}}
}

func (j *ackJournal) hook(node string) func(epoch, seq uint64) {
	return func(epoch, seq uint64) {
		j.mu.Lock()
		defer j.mu.Unlock()
		e := j.byEpoch[epoch]
		if e == nil {
			j.byEpoch[epoch] = &epochAcks{node: node, min: seq, max: seq}
			return
		}
		if e.node != node {
			j.bad = append(j.bad, fmt.Sprintf("epoch %d acked by both %s and %s (seq %d)", epoch, e.node, node, seq))
			return
		}
		if seq < e.min {
			e.min = seq
		}
		if seq > e.max {
			e.max = seq
		}
	}
}

func (j *ackJournal) check(t *testing.T, seed uint64) {
	t.Helper()
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, v := range j.bad {
		t.Errorf("ack journal (seed=%d): %s", seed, v)
	}
	epochs := make([]uint64, 0, len(j.byEpoch))
	for e := range j.byEpoch {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, k int) bool { return epochs[i] < epochs[k] })
	for i := 1; i < len(epochs); i++ {
		prev, cur := j.byEpoch[epochs[i-1]], j.byEpoch[epochs[i]]
		if prev.max >= cur.min {
			t.Errorf("ack journal (seed=%d): epoch %d acked through seq %d but epoch %d acked from seq %d — ranges overlap",
				seed, epochs[i-1], prev.max, epochs[i], cur.min)
		}
	}
}

// wmMonitor samples every member's (role, epoch, watermark, installs)
// and flags a watermark that moved backwards within one epoch without a
// snapshot install — the one shape of regression that is never
// legitimate (promotions bump the epoch; resyncs bump the install
// counter).
type wmMonitor struct {
	stop chan struct{}
	done chan struct{}

	mu  sync.Mutex
	bad []string
}

func watchWatermarks(members map[string]*replMember) *wmMonitor {
	m := &wmMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	type last struct {
		epoch, wm, installs uint64
		seen                bool
	}
	go func() {
		defer close(m.done)
		prev := map[string]*last{}
		for name := range members {
			prev[name] = &last{}
		}
		for {
			select {
			case <-m.stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			for name, mem := range members {
				_, epoch, wm := mem.node.Status()
				installs := mem.node.Installs()
				p := prev[name]
				if p.seen && epoch == p.epoch && installs == p.installs && wm < p.wm {
					m.mu.Lock()
					m.bad = append(m.bad, fmt.Sprintf("%s watermark %d -> %d within epoch %d", name, p.wm, wm, epoch))
					m.mu.Unlock()
				}
				*p = last{epoch: epoch, wm: wm, installs: installs, seen: true}
			}
		}
	}()
	return m
}

func (m *wmMonitor) finish(t *testing.T, seed uint64) {
	t.Helper()
	close(m.stop)
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, v := range m.bad {
		t.Errorf("watermark regression (seed=%d): %s", seed, v)
	}
}

// TestSplitBrainMinorityLeaderRefused: the split-brain regression. A
// quorum leader partitioned onto the minority side must refuse both its
// in-flight and its new writes, while the router (majority side) fences
// the group, promotes a majority member, and keeps serving writes with
// read-your-writes — all through the same Handle calls the caller was
// already making.
func TestSplitBrainMinorityLeaderRefused(t *testing.T) {
	const lease = 200 * time.Millisecond
	nw := netchaos.New(21, t.Logf)
	journal := newAckJournal()
	a := startChaosMember(t, lease, nw, "a", true, journal.hook("a"))
	b := startChaosMember(t, lease, nw, "b", true, journal.hook("b"))
	c := startChaosMember(t, lease, nw, "c", true, journal.hook("c"))
	if err := a.node.Lead([]string{b.addr, c.addr}); err != nil {
		t.Fatal(err)
	}

	// The per-attempt call timeout is what lets the router notice an
	// alive-but-blackholed leader: the attempt deadlines while the
	// caller's context is still alive, which routes into failover.
	sh, err := NewReplicatedShardOptions("g0", []string{a.addr, b.addr, c.addr}, GroupOptions{
		Logf: t.Logf, NetDial: nw.Dialer("router"), Quorum: true, CallTimeout: 2 * lease,
	})
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
	tc.createStream(t, "s")
	tc.ingest(t, "s", 3)

	// Cut the leader away from the majority AND the router, then race an
	// in-flight write directly against the minority leader. Its deadline
	// outlives the whole failover, so the only acceptable outcome is a
	// refusal — an OK here would be a split-brain ack.
	nw.Partition([]string{"a"}, []string{"b", "c", "router"})
	inflight := make(chan wire.Message, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 12*time.Second)
		defer cancel()
		inflight <- a.node.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: sealIdxVal(t, tc.spec, 3, 1000)})
	}()

	// The router's next write rides the failover: blackholed leader
	// detected, majority fenced, a majority member promoted. Value 4
	// (idx+1) marks the majority's history against the minority's 1000.
	if !insertAcked(t, tc.router, tc.spec, "s", 3, 15*time.Second) {
		t.Fatal("router write never acked on the majority side")
	}
	// Read-your-writes through the same router: the acked chunk is
	// visible, and it is the majority's version.
	if got := tc.statSum(t, "s", 400); got != 1+2+3+4 {
		t.Fatalf("post-failover read = %d, want 10 (majority history)", got)
	}
	if addr, epoch := sh.Handler.(*ReplicatedShard).Leader(); addr == a.addr || epoch < 2 {
		t.Fatalf("router follows %s at epoch %d, want a majority member at epoch >= 2", addr, epoch)
	}

	// Once a full lease passes without follower contact, the minority
	// leader's gate closes: new writes refuse fast, applying nothing.
	time.Sleep(2 * lease)
	nctx, ncancel := context.WithTimeout(context.Background(), 2*lease)
	resp := a.node.Handle(nctx, &wire.InsertChunk{UUID: "s", Chunk: sealIdxVal(t, tc.spec, 4, 1000)})
	ncancel()
	if isOK(resp) {
		t.Fatalf("minority leader acked a new write during the partition: %#v", resp)
	}

	// The in-flight write must have been refused, not acked.
	nw.Heal()
	select {
	case resp := <-inflight:
		if isOK(resp) {
			t.Fatalf("minority leader acked its in-flight write: %#v", resp)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("in-flight minority write never resolved")
	}

	// After the heal the ex-leader resyncs into the majority history.
	waitUntil(t, "ex-leader rejoined the majority history", func() bool {
		role, epoch, _ := a.node.Status()
		return role == wire.ReplFollower && epoch >= 2 &&
			bytes.Equal(statB(t, a.node, "s", 400), statB(t, b.node, "s", 400))
	})
	journal.check(t, 21)
}

// runPartitionWindow is the acceptance scenario, parameterized by mode:
// a 3-member group ingests, the acking leader is isolated mid-ingest by
// the SAME netchaos schedule, the majority promotes a new leader, the
// partition heals. It returns which of the mid-cut writes were
// acknowledged and which of those acknowledgements the healed group
// lost. Quorum mode must return lost == nil; availability mode loses its
// solo-acked tail by design — the pair of runs is the proof the -quorum
// flag closes that window.
func runPartitionWindow(t *testing.T, quorum bool) (ackedCut, lost []uint64) {
	t.Helper()
	const lease = 200 * time.Millisecond
	nw := netchaos.New(7, t.Logf) // same seed both modes: identical schedule
	a := startChaosMember(t, lease, nw, "a", quorum, nil)
	b := startChaosMember(t, lease, nw, "b", quorum, nil)
	c := startChaosMember(t, lease, nw, "c", quorum, nil)
	if err := a.node.Lead([]string{b.addr, c.addr}); err != nil {
		t.Fatal(err)
	}

	spec := chunk.DigestSpec{Sum: true, Count: true}
	specBytes, _ := spec.MarshalBinary()
	cfg := wire.StreamConfig{Epoch: 0, Interval: 100, VectorLen: uint32(spec.VectorLen()), Fanout: 8, DigestSpec: specBytes}
	ctx := context.Background()
	if resp := a.node.Handle(ctx, &wire.CreateStream{UUID: "s", Cfg: cfg}); !isOK(resp) {
		t.Fatalf("CreateStream -> %#v", resp)
	}
	for i := uint64(0); i < 5; i++ {
		if resp := a.node.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: sealIdxVal(t, spec, i, int64(i+1))}); !isOK(resp) {
			t.Fatalf("InsertChunk(%d) -> %#v", i, resp)
		}
	}

	// Mid-ingest, the schedule isolates the acking leader. The writer
	// keeps going against it with bounded patience per chunk.
	nw.Partition([]string{"a"}, []string{"b", "c"})
	for i := uint64(5); i < 8; i++ {
		wctx, cancel := context.WithTimeout(ctx, 3*lease)
		resp := a.node.Handle(wctx, &wire.InsertChunk{UUID: "s", Chunk: sealIdxVal(t, spec, i, int64(i+1))})
		cancel()
		if isOK(resp) {
			ackedCut = append(ackedCut, i)
		}
	}

	// The majority side elects a new leader while the old one is still cut
	// off. A quorum of 3 is the leader plus EITHER follower, so only one of
	// b and c is sure to hold every acknowledged chunk: the more advanced
	// one is promoted, as the router's fence-then-promote would have it.
	next := b
	_, _, wmB := b.node.Status()
	if _, _, wmC := c.node.Status(); wmC > wmB {
		next = c
	}
	if ack, ok := next.node.Handle(ctx, &wire.Promote{
		Epoch: 2, Leader: next.addr, Members: []string{a.addr, b.addr, c.addr},
	}).(*wire.ReplAck); !ok || ack.Epoch != 2 {
		t.Fatalf("Promote -> %#v", ack)
	}

	nw.Heal()
	waitUntil(t, "ex-leader rejoined after heal", func() bool {
		role, epoch, _ := a.node.Status()
		return role == wire.ReplFollower && epoch >= 2 &&
			bytes.Equal(statB(t, a.node, "s", 800), statB(t, next.node, "s", 800))
	})

	info, ok := next.node.Handle(ctx, &wire.StreamInfo{UUID: "s"}).(*wire.StreamInfoResp)
	if !ok {
		t.Fatalf("StreamInfo on the new leader failed")
	}
	if info.Count < 5 {
		t.Fatalf("pre-cut acknowledged chunks lost: count = %d, want >= 5", info.Count)
	}
	for _, i := range ackedCut {
		if i >= info.Count {
			lost = append(lost, i)
		}
	}

	// Byte-identical control: an engine that never saw a partition, fed
	// exactly the acknowledged writes that survived. In quorum mode this
	// must equal the healed group's answer bit for bit.
	control, err := server.New(kv.NewMemStore(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if resp := control.Handle(ctx, &wire.CreateStream{UUID: "s", Cfg: cfg}); !isOK(resp) {
		t.Fatalf("control CreateStream -> %#v", resp)
	}
	for i := uint64(0); i < info.Count; i++ {
		if resp := control.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: sealIdxVal(t, spec, i, int64(i+1))}); !isOK(resp) {
			t.Fatalf("control InsertChunk(%d) -> %#v", i, resp)
		}
	}
	if quorum && !bytes.Equal(statB(t, next.node, "s", 800), statB(t, control, "s", 800)) {
		t.Error("healed quorum group differs from the never-partitioned control")
	}
	return ackedCut, lost
}

// TestPartitionWindowClosedByQuorum runs the identical leader-isolation
// schedule in both acknowledgement modes and asserts the difference the
// -quorum flag buys: availability mode demonstrably acks writes during
// the cut and loses them to the majority's history (the window), quorum
// mode acks nothing it cannot keep (the window closed).
func TestPartitionWindowClosedByQuorum(t *testing.T) {
	t.Run("availability-loses-solo-acked-tail", func(t *testing.T) {
		acked, lost := runPartitionWindow(t, false)
		if len(acked) == 0 {
			t.Fatal("availability mode acked nothing during the cut; the scenario proves nothing")
		}
		if len(lost) == 0 {
			t.Fatal("availability mode kept its solo-acked tail — then what does -quorum buy?")
		}
		t.Logf("availability mode: acked %v during the cut, lost %v after the heal", acked, lost)
	})
	t.Run("quorum-loses-nothing-acked", func(t *testing.T) {
		acked, lost := runPartitionWindow(t, true)
		if len(lost) != 0 {
			t.Fatalf("quorum mode lost acknowledged chunks %v", lost)
		}
		t.Logf("quorum mode: acked %v during the cut, lost none", acked)
	})
}

// TestRandomFaultScheduleInvariants: the seeded property test. A random
// netchaos schedule (partitions, one-way cuts, lossy links, delays,
// heals) runs against a 3-member quorum group while a writer pushes
// chunks through a router; after the final heal the group must have
// every acknowledged chunk, one acking leader per epoch, non-overlapping
// acked sequence ranges across epochs, and no illegitimate watermark
// regression. Fails reproduce with -seed=N (logged below).
func TestRandomFaultScheduleInvariants(t *testing.T) {
	seed := *chaosSeed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	t.Logf("fault schedule seed=%d (replay: go test ./internal/cluster/ -run TestRandomFaultScheduleInvariants -seed=%d)", seed, seed)

	const lease = 200 * time.Millisecond
	nw := netchaos.New(seed, t.Logf)
	journal := newAckJournal()
	members := map[string]*replMember{}
	for _, name := range []string{"a", "b", "c"} {
		members[name] = startChaosMember(t, lease, nw, name, true, journal.hook(name))
	}
	a, b, c := members["a"], members["b"], members["c"]
	if err := a.node.Lead([]string{b.addr, c.addr}); err != nil {
		t.Fatal(err)
	}
	sh, err := NewReplicatedShardOptions("g0", []string{a.addr, b.addr, c.addr}, GroupOptions{
		Logf: t.Logf, NetDial: nw.Dialer("router"), Quorum: true, CallTimeout: 2 * lease,
	})
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
	tc.createStream(t, "s")
	tc.ingest(t, "s", 2)

	mon := watchWatermarks(members)
	steps := netchaos.RandomSchedule(seed, []string{"a", "b", "c"}, 4, 150*time.Millisecond)
	schedDone := make(chan struct{})
	go func() { defer close(schedDone); nw.Run(steps) }()

	// The writer pushes chunks through the router for the whole schedule;
	// every return of insertAcked is a durability promise the group must
	// keep through whatever the schedule did.
	const target = 10
	for i := uint64(2); i < target; i++ {
		if !insertAcked(t, tc.router, tc.spec, "s", i, 20*time.Second) {
			t.Fatalf("chunk %d never acked (seed=%d)", i, seed)
		}
	}
	<-schedDone // the schedule always ends on a heal

	// Every acked chunk present, and the whole group byte-converged.
	waitUntil(t, fmt.Sprintf("group converged on %d chunks (seed=%d)", target, seed), func() bool {
		for _, m := range members {
			info, ok := m.node.Handle(context.Background(), &wire.StreamInfo{UUID: "s"}).(*wire.StreamInfoResp)
			if !ok || info.Count != target {
				return false
			}
		}
		ref := statB(t, a.node, "s", target*100)
		return bytes.Equal(ref, statB(t, b.node, "s", target*100)) &&
			bytes.Equal(ref, statB(t, c.node, "s", target*100))
	})
	mon.finish(t, seed)
	journal.check(t, seed)
}
