// Package replica adds per-shard replication and failover to a TimeCrypt
// engine (paper §3.2's horizontal scaling, hardened for node loss): a
// replica.Node wraps one server.Engine and ships every applied mutation —
// as its marshaled wire request, stamped with a dense sequence number —
// to F follower nodes over the ordinary multiplexed transport.
//
// Exactly one node per shard holds the group's epoch'd lease and acts as
// leader: it applies client mutations locally, appends them to an
// in-memory record log while the engine still holds the stream's order
// lock (server.Engine.Apply), so the log orders each stream's records as
// they applied, and acknowledges a write only once every active follower
// has applied it (synchronous, statement-level primary-backup).
// Followers apply records strictly in sequence order onto their own
// durable store — a gap or reordering is refused loudly with CodeReplGap,
// never applied — and serve reads behind their applied watermark, so a
// client that saw a write acknowledged can read it from any active
// follower. A follower that has fallen off the log's tail (or a node
// joining empty) is resynchronized with a paged full snapshot of the
// leader's store.
//
// Epochs make failover safe. Every replication frame carries the sender's
// lease epoch; a node that sees a higher epoch adopts it (a leader steps
// down), and one that sees a lower epoch refuses with the epoch it knows,
// deposing the stale sender. The cluster router promotes the
// most-advanced follower by sending Promote with epoch+1 after a leader's
// lease has lapsed; a deposed or restarted ex-leader refuses client
// writes until the current leader adopts it back — via full resync — as a
// follower. The same epoch comparison, enforced inside the engine as the
// write fence (server.HandoffFence), rejects stale-epoch mutations during
// shard migration.
package replica

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/sub"
	"repro/internal/wire"
)

// stateKey persists {epoch, role, installing} across restarts; it lives
// outside every engine key prefix and is excluded from resync snapshots
// and from the pre-install wipe, so a node's own role survives both a
// leader's snapshot and a crash in the middle of installing one.
const stateKey = "repl/state"

// Options parameterizes a replication node.
type Options struct {
	// Self is this node's advertised address, matched against
	// Promote.Leader and reported in LeaseInfoResp.
	Self string
	// Lease is the leader's lease interval: shippers heartbeat every
	// Lease/3, and a router considers the leader dead only after the
	// lease has lapsed without contact. 0 means DefaultLease.
	Lease time.Duration
	// logBytes is the replication log retention budget (0 = 16 MiB).
	logBytes int
	// StoreSeq reports the durable store's committed sequence for
	// LeaseInfoResp (nil = always 0); wired to durable.CommittedSeq so
	// operators can compare replication watermarks against fsync'd
	// state.
	StoreSeq func() uint64
	// Logf receives replication events (role changes, resyncs,
	// depositions); nil means log.Printf.
	Logf func(format string, args ...any)
	// Quorum switches the group to write-quorum acknowledgement: a leader
	// acks a mutation only once ⌈N/2⌉ of the N group members (itself
	// included) have durably applied it, and refuses new writes with
	// CodeBusy — before applying anything — while it cannot reach that
	// many members. The default (false) is availability-first: unreachable
	// followers are deactivated and the leader keeps acknowledging with
	// whoever remains. Quorum groups need at least 3 members; Lead and
	// Promote refuse smaller ones.
	Quorum bool
	// NetDial overrides how shippers dial followers (nil = TCP); test
	// harnesses inject fault-injecting dialers (internal/netchaos) here.
	NetDial func(addr string) (net.Conn, error)
	// OnAck, when set, observes every client-acknowledged replicated
	// mutation as (epoch, seq) just before the ack is released — the hook
	// partition tests use to check that acked sequence ranges never
	// overlap across epochs (at most one acking leader per epoch).
	OnAck func(epoch, seq uint64)
}

// DefaultLease is the leader lease interval when Options.Lease is 0.
const DefaultLease = 3 * time.Second

// follower is the leader's view of one replication target.
type follower struct {
	addr string
	// active marks a follower the leader waits on before acknowledging a
	// write. Followers start active (a healthy follower must see every
	// write from the first one) and are deactivated only when observed
	// unreachable — degrading durability rather than availability; a
	// returning follower reactivates once it acknowledges again.
	active bool
	// acked is the highest sequence the follower has acknowledged.
	acked uint64
	// lastAck is when the follower last answered the shipper at all (ack,
	// heartbeat, or gap report): quorum mode's reachability estimate. A
	// follower silent for a full lease no longer counts toward the quorum
	// gate, so new writes refuse fast instead of blocking to their
	// deadline.
	lastAck time.Time
	// modeWarned suppresses repeated mode-mismatch warnings.
	modeWarned bool
	// notify wakes the shipper when new records are appended.
	notify chan struct{}
	stop   chan struct{}
}

// Node wraps a server.Engine with the replication plane. It implements
// server.Handler and server.Subscriber, so it drops into the TCP front
// end (or a test harness) exactly where a bare engine would.
type Node struct {
	store kv.Store    // the node's real store: its own state key, snapshots, wipes
	frame *frameStore // the view of store every engine of this node runs on
	cfg   server.Config
	opts  Options

	// applyMu is held shared by a leader's mutation that names one stream,
	// and so takes that stream's order lock in the engine, migration
	// messages included; exclusively by a mutation naming no one stream
	// (TopologyUpdate, a mixed-stream Batch) and by snapshotDump's freeze.
	applyMu sync.RWMutex

	mu         sync.Mutex
	engine     *server.Engine
	role       uint8
	epoch      uint64
	leader     string // current leader's address ("" when unknown)
	watermark  uint64 // follower: last sequence applied from the leader
	installing bool   // a snapshot install is in progress; reads answer CodeBusy
	// installEpoch is the epoch of the in-process snapshot install; it is
	// deliberately NOT persisted, so a restart with the installing marker
	// refuses resumed pages (their predecessors died with the process) and
	// waits for a fresh First.
	installEpoch uint64
	followers    map[string]*follower
	changed      chan struct{} // closed and replaced on any ack/role change
	closed       bool
	// installs counts completed snapshot installs: the one transition
	// across which a follower's watermark may legitimately move backward
	// (a resync rebases it into the new leader's sequence space), so
	// monotonicity monitors exempt exactly those.
	installs uint64

	log *recordLog
}

// New opens the engine over store and restores the node's persisted
// replication state: a node that previously led comes back deposed (it
// must be re-promoted or adopted — self-resuming the lease could split
// the brain), a previous follower comes back as a follower with an empty
// watermark (forcing a resync), and a node with no state starts
// standalone, adoptable by any leader's first frame.
func New(store kv.Store, cfg server.Config, opts Options) (*Node, error) {
	frame := &frameStore{Store: store}
	engine, err := server.New(frame, cfg)
	if err != nil {
		return nil, err
	}
	if opts.Lease <= 0 {
		opts.Lease = DefaultLease
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	n := &Node{
		store:     store,
		frame:     frame,
		cfg:       cfg,
		opts:      opts,
		engine:    engine,
		role:      wire.ReplStandalone,
		followers: make(map[string]*follower),
		changed:   make(chan struct{}),
		log:       newRecordLog(opts.logBytes),
	}
	if raw, err := store.Get(stateKey); err == nil {
		d := wire.NewDecoder(raw)
		epoch, role := d.U64(), d.U8()
		if d.Err() == nil {
			// The installing flag is absent in pre-flag state records; a
			// truncated read decodes as false.
			installing := d.U8() == 1
			n.epoch = epoch
			switch role {
			case wire.ReplLeader, wire.ReplDeposed:
				n.role = wire.ReplDeposed
				opts.Logf("replica: restarted after leading epoch %d; deposed until re-promoted or adopted", epoch)
			case wire.ReplFollower:
				n.role = wire.ReplFollower
				if installing {
					// Crashed between the pre-install wipe and the
					// snapshot's Done page: the store is a partial image.
					// Keep the install fence up — reads answer CodeBusy,
					// mutations answer CodeNotLeader — until the leader
					// resyncs us with a fresh full snapshot.
					n.installing = true
					opts.Logf("replica: restarted mid-snapshot-install at epoch %d; refusing traffic until resynced", epoch)
				}
			}
		}
	} else if err != kv.ErrNotFound {
		return nil, err
	}
	return n, nil
}

// Lead bootstraps this node as the group's first leader. It is a no-op
// (with a warning) when the node carries persisted replication state: a
// restarted ex-leader must wait to be re-promoted by the router or
// adopted by the current leader, otherwise two nodes could claim the same
// epoch. In quorum mode a group of fewer than 3 members is refused with
// an error: with N=2 the write quorum is 1, which the leader satisfies
// alone — quorum acknowledgement would silently degrade to
// availability-mode semantics, so the misconfiguration fails loudly
// instead.
func (n *Node) Lead(members []string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.opts.Quorum && othersIn(members, n.opts.Self) < 2 {
		return fmt.Errorf("replica: quorum mode needs a group of at least 3 members (self + 2); got %d follower(s)",
			othersIn(members, n.opts.Self))
	}
	if n.role != wire.ReplStandalone || n.epoch != 0 {
		n.opts.Logf("replica: not self-promoting over persisted state (role %d, epoch %d); awaiting promotion", n.role, n.epoch)
		return nil
	}
	n.becomeLeaderLocked(1, members)
	return nil
}

// othersIn counts the distinct non-self addresses in members — the
// follower count a membership list implies.
func othersIn(members []string, self string) int {
	seen := make(map[string]bool)
	for _, a := range members {
		if a != "" && a != self && !seen[a] {
			seen[a] = true
		}
	}
	return len(seen)
}

// mode reports the group's acknowledgement mode for the wire. Options
// are immutable after New, so no lock is needed.
func (n *Node) mode() uint8 {
	if n.opts.Quorum {
		return wire.ReplModeQuorum
	}
	return wire.ReplModeAvailability
}

// quorumLocked is the write-quorum size ⌈N/2⌉ over the N = followers+1
// group members, leader included: 2 of 3, 3 of 5. Zero when the node is
// not a quorum-mode leader.
func (n *Node) quorumLocked() int {
	if !n.opts.Quorum || n.role != wire.ReplLeader {
		return 0
	}
	return (len(n.followers) + 2) / 2
}

// quorumGate refuses a new write — before anything is applied, so
// CodeBusy always means "retry freely" — when the leader is not
// currently in contact with a write quorum. Contact means a shipper
// response (ack, heartbeat, or gap report) within the last lease
// interval; a leader partitioned from its majority therefore starts
// refusing within one lease rather than accepting writes it can never
// acknowledge.
func (n *Node) quorumGate() *wire.Error {
	if !n.opts.Quorum {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	need := n.quorumLocked()
	if need == 0 {
		return nil // not leading; leaderApply revalidates the role anyway
	}
	inContact := 1 // the leader itself
	cutoff := time.Now().Add(-n.opts.Lease)
	for _, f := range n.followers {
		if f.lastAck.After(cutoff) {
			inContact++
		}
	}
	if inContact < need {
		return &wire.Error{Code: wire.CodeBusy,
			Msg: fmt.Sprintf("replica: quorum unreachable (%d of %d members in contact, need %d); retry",
				inContact, len(n.followers)+1, need)}
	}
	return nil
}

// Installs reports how many snapshot installs this node has completed.
// A completed install is the one transition across which the applied
// watermark may legitimately regress (a resync rebases it into the new
// leader's sequence space); monotonicity monitors sample this counter to
// exempt exactly those.
func (n *Node) Installs() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.installs
}

// Close stops shippers and releases the node. The engine's store is not
// closed; the caller owns it.
func (n *Node) Close() {
	n.mu.Lock()
	n.closed = true
	n.stopShippersLocked()
	n.bumpLocked()
	n.mu.Unlock()
}

// Status reports the node's current replication state for tests and
// operator tooling: role, epoch, and the applied watermark.
func (n *Node) Status() (role uint8, epoch, watermark uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role, n.epoch, n.watermarkLocked()
}

func (n *Node) watermarkLocked() uint64 {
	if n.role == wire.ReplLeader {
		return n.log.head() // every applied mutation's record, in apply order
	}
	return n.watermark
}

// bumpLocked wakes every waitDurable waiter and shipper-state observer.
func (n *Node) bumpLocked() {
	close(n.changed)
	n.changed = make(chan struct{})
}

// persistLocked records {epoch, role, installing} so a restart cannot
// regress the epoch, silently resume a lease, or serve a half-installed
// snapshot as real data.
func (n *Node) persistLocked() {
	var e wire.Encoder
	e.U64(n.epoch)
	e.U8(n.role)
	if n.installing {
		e.U8(1)
	} else {
		e.U8(0)
	}
	if err := n.store.Put(stateKey, e.Bytes()); err != nil {
		n.opts.Logf("replica: persisting state: %v", err)
	}
}

func (n *Node) stopShippersLocked() {
	for _, f := range n.followers {
		close(f.stop)
	}
	n.followers = make(map[string]*follower)
}

// becomeLeaderLocked takes the lease at epoch for the given follower set
// (own address excluded). The record log is re-based at watermark+1 so
// sequence numbers remain comparable across a promotion: an in-sync
// follower resumes from the log without a snapshot.
func (n *Node) becomeLeaderLocked(epoch uint64, members []string) {
	next := n.watermarkLocked() + 1 // a re-promoted leader keeps its progress
	n.stopShippersLocked()
	n.role = wire.ReplLeader
	n.epoch = epoch
	n.leader = n.opts.Self
	n.log.reset(next)
	for _, addr := range members {
		if addr == n.opts.Self || addr == "" {
			continue
		}
		if _, dup := n.followers[addr]; dup {
			continue
		}
		f := &follower{addr: addr, active: true, lastAck: time.Now(), notify: make(chan struct{}, 1), stop: make(chan struct{})}
		n.followers[addr] = f
		go n.runShipper(f, epoch)
	}
	n.persistLocked()
	n.bumpLocked()
	n.opts.Logf("replica: leading epoch %d with %d follower(s)", epoch, len(n.followers))
}

// becomeFollowerLocked adopts epoch under the given leader. Any
// leadership state is torn down, and in-flight waitDurable calls fail
// with CodeNotLeader (the write's outcome is ambiguous, exactly like a
// broken connection).
func (n *Node) becomeFollowerLocked(epoch uint64, leader string) {
	wasLeader := n.role == wire.ReplLeader
	n.stopShippersLocked()
	n.role = wire.ReplFollower
	n.epoch = epoch
	n.leader = leader
	if wasLeader {
		// An ex-leader may hold locally-applied writes the new leader
		// never saw; force a full resync before serving as a follower.
		n.watermark = 0
		n.opts.Logf("replica: deposed by epoch %d; resync required", epoch)
	}
	n.persistLocked()
	n.bumpLocked()
}

// deposeTo steps down after observing a higher epoch from a frame we sent
// (a follower refused our records). The node stays deposed — refusing
// writes — until the new leader adopts it.
func (n *Node) deposeTo(epoch uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if epoch <= n.epoch && n.role != wire.ReplLeader {
		return
	}
	if epoch > n.epoch {
		n.epoch = epoch
	}
	if n.role == wire.ReplLeader {
		n.stopShippersLocked()
		n.role = wire.ReplDeposed
		n.watermark = 0
		n.persistLocked()
		n.bumpLocked()
		n.opts.Logf("replica: deposed at epoch %d", n.epoch)
	}
}

// currentEngine returns the engine to serve reads from, or a CodeBusy
// error while a snapshot install has the store torn down.
func (n *Node) currentEngine() (*server.Engine, *wire.Error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.installing {
		return nil, &wire.Error{Code: wire.CodeBusy, Msg: "replica: snapshot install in progress"}
	}
	return n.engine, nil
}

// Handle implements server.Handler: replication-plane frames are
// consumed here, client mutations route through the leader path (or are
// refused with CodeNotLeader), and reads fall through to the wrapped
// engine.
func (n *Node) Handle(ctx context.Context, req wire.Message) wire.Message {
	switch m := req.(type) {
	case *wire.ReplAppend:
		return n.handleReplAppend(ctx, m)
	case *wire.ReplSnapshot:
		return n.handleReplSnapshot(ctx, m)
	case *wire.Promote:
		return n.handlePromote(m)
	case *wire.LeaseInfo:
		return n.handleLeaseInfo()
	}
	if wire.KindOf(req) == wire.KindMutation {
		n.mu.Lock()
		role, epoch, leader := n.role, n.epoch, n.leader
		n.mu.Unlock()
		switch role {
		case wire.ReplLeader:
			return n.leaderApply(ctx, req, epoch)
		case wire.ReplFollower, wire.ReplDeposed:
			return &wire.Error{Code: wire.CodeNotLeader, Aux: epoch, Msg: leader}
		}
		// Standalone: an unreplicated engine, plain pass-through.
	}
	engine, busy := n.currentEngine()
	if busy != nil {
		return busy
	}
	return engine.Handle(ctx, req)
}

// Subscribe implements server.Subscriber by delegating to the wrapped
// engine: followers serve live subscriptions too, fed by replicated
// inserts, so watchers survive a failover by redialing any group member.
func (n *Node) Subscribe(ctx context.Context, req *wire.Subscribe) (sub.Handle, error) {
	engine, busy := n.currentEngine()
	if busy != nil {
		return nil, busy
	}
	return engine.Subscribe(ctx, req)
}

// handleReplAppend applies a leader's record frame as one unit. The serve
// layer chains all replication frames of one connection through
// wire.ReplRoutingKey, so frames from ONE leader session arrive here in
// shipping order — but nothing serializes this against frames on other
// connections (a newer leader, a Promote). n.mu does: every role and epoch
// transition takes it, and the frame holds it from the epoch check to the
// watermark update, so a frame lands whole or not at all — a deposed
// leader's in-flight frame can neither apply past the depose point nor
// inflate the watermark, because the depose waits for the frame (at most
// maxShipBytes of records and one store commit) or the frame sees it.
//
// The records replay in order through the engine, whose store buffers
// their writes (frameStore) and commits them as ONE batch at the end: one
// WAL record and one fsync wait per frame. The watermark advances once,
// after that commit, and the ack is cumulative. A record that fails to
// decode or to apply stops the replay: the clean prefix before it is
// committed and acknowledged by watermark, the error is returned, nothing
// after it is applied. Atomicity across a process crash is not needed: a
// restarted follower comes back at watermark 0 and is resynced by snapshot.
func (n *Node) handleReplAppend(ctx context.Context, m *wire.ReplAppend) wire.Message {
	if m.Epoch == 0 {
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "replica: epoch 0 is reserved"}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if m.Epoch < n.epoch {
		return &wire.Error{Code: wire.CodeWrongShard, Aux: n.epoch,
			Msg: fmt.Sprintf("replica: stale replication epoch %d (current %d)", m.Epoch, n.epoch)}
	}
	if m.Epoch > n.epoch || n.role == wire.ReplStandalone || n.role == wire.ReplDeposed {
		// Adopt the higher (or first) epoch; a live leader steps down. The
		// frame names the shipping leader, so referrals point there — not
		// at whatever leader this node knew before.
		n.becomeFollowerLocked(m.Epoch, m.Leader)
	} else if n.role == wire.ReplLeader {
		// Equal epoch from another claimant: refuse — the sender must
		// resolve the conflict through a higher epoch, never silently.
		return &wire.Error{Code: wire.CodeWrongShard, Aux: n.epoch,
			Msg: "replica: competing leader at the same epoch"}
	} else if m.Leader != "" && n.leader != m.Leader {
		// Already following at this epoch: refresh a stale or unknown
		// leader address (there is exactly one leader per epoch).
		n.leader = m.Leader
	}
	if n.installing {
		return &wire.Error{Code: wire.CodeBusy, Msg: "replica: snapshot install in progress"}
	}
	ack := func() wire.Message {
		return &wire.ReplAck{Epoch: m.Epoch, Watermark: n.watermark, Mode: n.mode()}
	}
	if len(m.Records) == 0 {
		// Heartbeat: refresh the lease, report the watermark.
		return ack()
	}
	if m.FirstSeq > n.watermark+1 {
		// A gap: refuse the whole frame and report how far we actually
		// got, so the leader reships from there (or falls back to a
		// snapshot when the log no longer reaches back).
		return &wire.Error{Code: wire.CodeReplGap, Aux: n.watermark,
			Msg: fmt.Sprintf("replica: gap: frame starts at %d, watermark %d", m.FirstSeq, n.watermark)}
	}
	if m.FirstSeq+uint64(len(m.Records))-1 <= n.watermark {
		// Full duplicate (a retry after a lost ack): acknowledge
		// idempotently, apply nothing.
		return ack()
	}
	if n.closed {
		return &wire.Error{Code: wire.CodeBusy, Msg: "replica: node closed"}
	}
	replayCtx := wire.ContextWithEpoch(ctx, wire.ReplayEpoch)
	applied := n.watermark
	var failed *wire.Error
	n.frame.begin()
	for i, rec := range m.Records {
		seq := m.FirstSeq + uint64(i)
		if seq <= n.watermark {
			continue // overlap prefix already applied
		}
		req, err := wire.Unmarshal(rec)
		if err != nil {
			failed = &wire.Error{Code: wire.CodeBadRequest,
				Msg: fmt.Sprintf("replica: record %d undecodable: %v", seq, err)}
			break
		}
		if wire.KindOf(req) != wire.KindMutation {
			failed = &wire.Error{Code: wire.CodeBadRequest,
				Msg: fmt.Sprintf("replica: record %d is not a mutation (%T)", seq, req)}
			break
		}
		if errMsg, isErr := n.engine.Handle(replayCtx, req).(*wire.Error); isErr {
			// The leader only ships mutations that succeeded; an error
			// here means our state has diverged. Refuse loudly and stop
			// advancing — the leader will resync us by snapshot.
			failed = &wire.Error{Code: wire.CodeInternal,
				Msg: fmt.Sprintf("replica: record %d (%T) diverged: %s", seq, req, errMsg.Msg)}
			break
		}
		applied = seq
	}
	if err := n.frame.end(); err != nil {
		// The store refused the frame, so the engine that replayed it is
		// ahead of the store. Reopen it over what the store does hold —
		// the state the unmoved watermark describes.
		n.opts.Logf("replica: committing frame %d..%d: %v", m.FirstSeq, applied, err)
		if engine, rerr := server.New(n.frame, n.cfg); rerr != nil {
			n.opts.Logf("replica: reopening engine after a failed frame: %v", rerr)
		} else {
			n.engine = engine
		}
		return &wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("replica: committing frame: %v", err)}
	}
	n.watermark = applied
	if failed != nil {
		return failed
	}
	return ack()
}

// handleReplSnapshot installs one page of a leader's full-store snapshot.
// First wipes the local store (the resync replaces everything), Done
// reopens the engine over the installed state and adopts the snapshot's
// watermark. Reads answer CodeBusy for the duration. The installing flag
// is persisted (with the state key excluded from the wipe) BEFORE any key
// is deleted, so a crash anywhere inside the install restarts as a fenced
// follower — never as a standalone node serving the partial image.
func (n *Node) handleReplSnapshot(ctx context.Context, m *wire.ReplSnapshot) wire.Message {
	if m.Epoch == 0 {
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "replica: epoch 0 is reserved"}
	}
	for _, it := range m.Items {
		if it.Key == stateKey {
			// Installing it would overwrite the durable installing marker, so
			// a crash before Done could restart unfenced over a partial image.
			return &wire.Error{Code: wire.CodeBadRequest, Msg: "replica: snapshot page carries the replication state key"}
		}
	}
	n.mu.Lock()
	if m.Epoch < n.epoch {
		defer n.mu.Unlock()
		return &wire.Error{Code: wire.CodeWrongShard, Aux: n.epoch,
			Msg: fmt.Sprintf("replica: stale replication epoch %d (current %d)", m.Epoch, n.epoch)}
	}
	if m.Epoch > n.epoch || n.role != wire.ReplFollower {
		n.becomeFollowerLocked(m.Epoch, m.Leader)
	} else if m.Leader != "" && n.leader != m.Leader {
		n.leader = m.Leader
	}
	if m.First {
		n.installing = true
		n.installEpoch = m.Epoch
		n.persistLocked() // durable marker: a crash mid-install restarts fenced
	} else if !n.installing || n.installEpoch != m.Epoch {
		// No live install at this epoch: pages either never had a First, or
		// their predecessors died with a restart / were superseded by a
		// newer install. The leader restarts the resync from a fresh First.
		defer n.mu.Unlock()
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "replica: snapshot page without First"}
	}
	n.mu.Unlock()

	if m.First {
		if errw := n.wipeStore(m.Epoch); errw != nil {
			return errw
		}
	}
	if len(m.Items) > 0 {
		ops := make([]kv.Op, 0, len(m.Items))
		for _, it := range m.Items {
			ops = append(ops, kv.Op{Kind: kv.OpPut, Key: it.Key, Value: it.Value})
		}
		if errw := n.installStep(m.Epoch, func() error {
			if err := n.store.Batch(ops); err != nil {
				return fmt.Errorf("replica: installing page: %w", err)
			}
			return nil
		}); errw != nil {
			return errw
		}
	}
	if !m.Done {
		return &wire.ReplAck{Epoch: m.Epoch, Watermark: 0, Mode: n.mode()}
	}
	if errw := n.installStep(m.Epoch, func() error {
		engine, err := server.New(n.store, n.cfg)
		if err != nil {
			return fmt.Errorf("replica: reopening engine: %w", err)
		}
		n.engine = engine
		n.watermark = m.Watermark
		n.installing = false
		n.installEpoch = 0
		n.installs++
		n.persistLocked() // clear the durable installing marker
		return nil
	}); errw != nil {
		return errw
	}
	n.opts.Logf("replica: resynced by snapshot at epoch %d, watermark %d", m.Epoch, m.Watermark)
	return &wire.ReplAck{Epoch: m.Epoch, Watermark: m.Watermark, Mode: n.mode()}
}

// installStep runs one bounded store operation of a snapshot install with
// n.mu held, after revalidating that the install at epoch is still the
// current one. Like handleReplAppend holding n.mu across a frame, this makes
// check-then-write atomic with respect to every epoch/role transition: a
// page from a superseded install can never splice keys into a newer
// install (or into a live store) — the wipe, every page batch, and the
// final engine reopen all pass through here.
func (n *Node) installStep(epoch uint64, op func() error) *wire.Error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return &wire.Error{Code: wire.CodeBusy, Msg: "replica: node closed"}
	}
	if n.epoch != epoch {
		return &wire.Error{Code: wire.CodeWrongShard, Aux: n.epoch,
			Msg: fmt.Sprintf("replica: snapshot install superseded by epoch %d", n.epoch)}
	}
	if !n.installing || n.installEpoch != epoch {
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "replica: no snapshot install in progress at this epoch"}
	}
	if err := op(); err != nil {
		return &wire.Error{Code: wire.CodeInternal, Msg: err.Error()}
	}
	return nil
}

// wipeStore deletes every key except the node's own replication state, in
// batches, ahead of the snapshot install at epoch. The state key must
// survive: it holds the persisted installing marker, and a crash mid-wipe
// (or between the wipe and the snapshot's Done page) must restart as a
// fenced follower, not as a blank standalone node. Each delete batch goes
// through installStep, so a superseded install stops wiping immediately.
func (n *Node) wipeStore(epoch uint64) *wire.Error {
	var keys []string
	if err := n.store.Scan("", func(key string, _ []byte) bool {
		if key != stateKey {
			keys = append(keys, key)
		}
		return true
	}); err != nil {
		return &wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("replica: wiping store: %v", err)}
	}
	for len(keys) > 0 {
		batch := keys
		if len(batch) > 1024 {
			batch = batch[:1024]
		}
		ops := make([]kv.Op, len(batch))
		for i, k := range batch {
			ops[i] = kv.Op{Kind: kv.OpDelete, Key: k}
		}
		if errw := n.installStep(epoch, func() error {
			if err := n.store.Batch(ops); err != nil {
				return fmt.Errorf("replica: wiping store: %w", err)
			}
			return nil
		}); errw != nil {
			return errw
		}
		keys = keys[len(batch):]
	}
	return nil
}

// handlePromote executes the router's failover (or bootstrap) decision:
// at a strictly higher epoch, the named node takes the lease and everyone
// else follows it.
func (n *Node) handlePromote(m *wire.Promote) wire.Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m.Epoch <= n.epoch {
		return &wire.Error{Code: wire.CodeWrongShard, Aux: n.epoch,
			Msg: fmt.Sprintf("replica: promotion epoch %d is not above %d", m.Epoch, n.epoch)}
	}
	if m.Leader == n.opts.Self && n.installing {
		// A mid-install store is a partial image; leading from it would
		// serve garbage. The router retries against another member (or
		// this one, once a leader has finished resyncing it).
		return &wire.Error{Code: wire.CodeBusy, Msg: "replica: snapshot install in progress"}
	}
	if m.Leader == n.opts.Self && n.opts.Quorum && othersIn(m.Members, n.opts.Self) < 2 {
		// Same loud refusal as Lead: a quorum-mode leader over fewer than
		// 3 members would satisfy its own write quorum alone.
		return &wire.Error{Code: wire.CodeBadRequest,
			Msg: fmt.Sprintf("replica: quorum mode needs a group of at least 3 members; promotion names %d follower(s)",
				othersIn(m.Members, n.opts.Self))}
	}
	if m.Leader == n.opts.Self {
		n.becomeLeaderLocked(m.Epoch, m.Members)
	} else {
		n.becomeFollowerLocked(m.Epoch, m.Leader)
	}
	return &wire.ReplAck{Epoch: n.epoch, Watermark: n.watermarkLocked(), Mode: n.mode()}
}

// handleLeaseInfo reports the node's replication state for routers and
// operator tooling.
func (n *Node) handleLeaseInfo() wire.Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := &wire.LeaseInfoResp{
		Role:      n.role,
		Epoch:     n.epoch,
		Watermark: n.watermarkLocked(),
		LeaseMS:   n.opts.Lease.Milliseconds(),
		Leader:    n.leader,
		Mode:      n.mode(),
		Quorum:    uint32(n.quorumLocked()),
	}
	if n.opts.StoreSeq != nil {
		resp.StoreSeq = n.opts.StoreSeq()
	}
	if n.role == wire.ReplLeader {
		resp.Members = append(resp.Members, n.opts.Self)
		for addr := range n.followers {
			resp.Members = append(resp.Members, addr)
		}
	}
	return resp
}
