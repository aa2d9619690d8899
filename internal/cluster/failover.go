package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// A ReplicatedShard routes one ring position's traffic to the current
// leader of a replication group and fails over when that leader dies:
//
//  1. Detection: a transport failure against the leader (dial refused or
//     session broken, after the facade's own redial) starts a failover.
//  2. Grace: the group is probed with LeaseInfo; if any member already
//     answers as leader at a fresh epoch, it is adopted. Otherwise the
//     old leader's lease is waited out — its followers may still be
//     inside a lease granted to a leader that is alive but unreachable
//     from here.
//  3. Promotion: the most-advanced reachable member (highest epoch, then
//     highest replication watermark) is promoted with a strictly higher
//     epoch. Losing an election race (another router promoted first)
//     surfaces as CodeWrongShard carrying the winning epoch; the loser
//     adopts it.
//
// Reads are retried transparently against the new leader. Writes are
// not: a write in flight when the leader died has an unknown outcome
// (same contract as tcpShard), so it surfaces as an error and the caller
// decides whether re-executing is safe. Writes refused with
// CodeNotLeader were NOT applied and are always safe to replay against
// the referred leader.
type ReplicatedShard struct {
	name string
	opts client.SessionOptions
	logf func(string, ...any)
	// callTimeout bounds each attempt of one request (0 = only the
	// caller's context). With it, a leader that is alive but blackholed —
	// a partition, not a crash, so the connection never breaks — turns
	// into a per-attempt deadline while the caller's context is still
	// live, which routes into the failover path instead of hanging the
	// client until its own deadline.
	callTimeout time.Duration

	// failoverMu serializes probe/promote cycles so a burst of broken
	// calls elects one leader, not one per request.
	failoverMu sync.Mutex

	mu      sync.Mutex
	closed  bool
	members []string // replication group member addresses
	leader  string   // address conn currently points at
	epoch   uint64   // highest replication epoch observed
	lease   time.Duration
	conn    *client.TCP
	gen     uint64 // bumped on every leader change; stale-gen failovers no-op
	// quorum marks the group as quorum-acknowledged (configured, or
	// observed from any member's LeaseInfo mode). Promotion then requires
	// a reachable majority and fences the non-candidates first, so a
	// minority-side ex-leader can neither keep acknowledging nor be
	// re-adopted with a stale history.
	quorum bool
	// requiredWM is the lowest watermark a leader must prove before this
	// router adopts it in quorum mode: raised when a promotion's fence
	// acks reveal records the promoted candidate does not hold.
	requiredWM uint64
}

// defaultGroupLease mirrors the replica package's default lease, used
// until the group reports its configured one.
const defaultGroupLease = 3 * time.Second

// maxFailoverAttempts bounds one request's referral-following loop.
const maxFailoverAttempts = 4

// probeTimeout bounds one member's LeaseInfo round trip during failover.
const probeTimeout = 2 * time.Second

// GroupOptions parameterizes a replicated shard beyond the common case.
type GroupOptions struct {
	// InFlight bounds in-flight requests per connection as in NewTCPShard.
	InFlight int
	// Logf receives failover logs (nil discards them).
	Logf func(string, ...any)
	// NetDial overrides how group members are dialed (probes, promotions,
	// and the shard's leader connection alike); test harnesses inject
	// fault-injecting dialers (internal/netchaos) here. Nil means TCP.
	NetDial func(addr string) (net.Conn, error)
	// Quorum declares the group quorum-acknowledged up front. The router
	// also learns this from any member's LeaseInfo, so the flag only
	// matters before the first successful probe.
	Quorum bool
	// CallTimeout bounds each attempt of one request; see
	// ReplicatedShard.callTimeout. 0 disables the per-attempt bound.
	CallTimeout time.Duration
}

// NewReplicatedShardOptions dials a replication group and returns it as
// a routable shard bound to the group's current leader. members lists the
// group's addresses (leader position unknown — it is discovered).
func NewReplicatedShardOptions(name string, members []string, o GroupOptions) (Shard, error) {
	if len(members) == 0 {
		return Shard{}, fmt.Errorf("cluster: replicated shard %q has no members", name)
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rs := &ReplicatedShard{
		name:        name,
		opts:        client.SessionOptions{Window: o.InFlight, NetDial: o.NetDial},
		logf:        logf,
		callTimeout: o.CallTimeout,
		members:     append([]string(nil), members...),
		lease:       defaultGroupLease,
		quorum:      o.Quorum,
	}
	if err := rs.failover(context.Background(), 0); err != nil {
		return Shard{}, fmt.Errorf("cluster: replicated shard %q: %w", name, err)
	}
	return Shard{Name: name, Handler: rs}, nil
}

// memberView is one group member's answer to a LeaseInfo probe.
type memberView struct {
	addr      string
	role      uint8
	epoch     uint64
	watermark uint64
	leaseMS   int64
	leader    string
	members   []string
	mode      uint8
}

// probeMember asks one member for its lease view over a throwaway
// connection (the member may be mid-crash; the shard's main connection
// must not be disturbed).
func probeMember(ctx context.Context, addr string, opts client.SessionOptions) (memberView, error) {
	tr, err := client.DialTCPOptions(addr, opts)
	if err != nil {
		return memberView{}, err
	}
	defer tr.Close()
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	resp, err := tr.RoundTrip(pctx, &wire.LeaseInfo{})
	if err != nil {
		return memberView{}, err
	}
	li, ok := resp.(*wire.LeaseInfoResp)
	if !ok {
		return memberView{}, fmt.Errorf("unexpected lease response %T", resp)
	}
	return memberView{
		addr: addr, role: li.Role, epoch: li.Epoch, watermark: li.Watermark,
		leaseMS: li.LeaseMS, leader: li.Leader, members: li.Members, mode: li.Mode,
	}, nil
}

// probe surveys the group and returns every reachable member's view plus
// the address of a live leader at the highest epoch seen, "" when no
// member answers as leader. A lone standalone member counts as its own
// leader (an unreplicated shard wrapped for uniformity).
func (rs *ReplicatedShard) probe(ctx context.Context, members []string) (views []memberView, leaderAddr string, leaderEpoch uint64) {
	for _, addr := range members {
		v, err := probeMember(ctx, addr, rs.opts)
		if err != nil {
			continue
		}
		views = append(views, v)
		isLeader := v.role == wire.ReplLeader ||
			(v.role == wire.ReplStandalone && len(members) == 1)
		if isLeader && (leaderAddr == "" || v.epoch > leaderEpoch) {
			leaderAddr, leaderEpoch = v.addr, v.epoch
		}
	}
	return views, leaderAddr, leaderEpoch
}

// adopt switches the shard's connection to a new leader and absorbs what
// it reports about the group (lease length, membership).
func (rs *ReplicatedShard) adopt(addr string, epoch uint64, view *memberView) error {
	conn, err := client.DialTCPOptions(addr, rs.opts)
	if err != nil {
		return fmt.Errorf("dialing leader %s: %w", addr, err)
	}
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		conn.Close()
		return errors.New("transport closed")
	}
	old := rs.conn
	rs.conn = conn
	rs.leader = addr
	if epoch > rs.epoch {
		rs.epoch = epoch
	}
	if view != nil {
		if view.leaseMS > 0 {
			rs.lease = time.Duration(view.leaseMS) * time.Millisecond
		}
		if len(view.members) > 0 {
			rs.members = mergeMembers(rs.members, view.members)
		}
	}
	rs.gen++
	rs.mu.Unlock()
	if old != nil {
		old.Close()
	}
	rs.logf("cluster: shard %s: leader is %s (epoch %d)", rs.name, addr, epoch)
	return nil
}

// mergeMembers unions the known member set with a leader-reported one,
// keeping first-seen order (addresses are stable identifiers here).
func mergeMembers(known, reported []string) []string {
	seen := make(map[string]bool, len(known)+len(reported))
	out := make([]string, 0, len(known)+len(reported))
	for _, lists := range [][]string{known, reported} {
		for _, addr := range lists {
			if addr != "" && !seen[addr] {
				seen[addr] = true
				out = append(out, addr)
			}
		}
	}
	return out
}

// failover finds or elects a leader. gen names the leader generation the
// caller observed failing; if the shard has already moved past it, the
// failover is a no-op (another request repaired the group first).
func (rs *ReplicatedShard) failover(ctx context.Context, gen uint64) error {
	rs.failoverMu.Lock()
	defer rs.failoverMu.Unlock()
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return errors.New("transport closed")
	}
	if gen != rs.gen {
		rs.mu.Unlock()
		return nil
	}
	members := append([]string(nil), rs.members...)
	lease := rs.lease
	known := rs.epoch
	quorum := rs.quorum
	requiredWM := rs.requiredWM
	rs.mu.Unlock()

	// The old leader's lease must expire before anyone is promoted over
	// it: until then the group may just be partitioned from this router.
	graceOver := time.Now().Add(lease)
	for round := 0; ; round++ {
		views, leaderAddr, leaderEpoch := rs.probe(ctx, members)
		for _, v := range views {
			if v.mode == wire.ReplModeQuorum && !quorum {
				quorum = true
				rs.mu.Lock()
				rs.quorum = true
				rs.mu.Unlock()
			}
		}
		if leaderAddr != "" && leaderEpoch >= known {
			var lv *memberView
			for i := range views {
				if views[i].addr == leaderAddr {
					lv = &views[i]
				}
			}
			// Quorum adoption guard: a leader whose watermark is below
			// what a previous promotion's fence acks proved durable is a
			// stale survivor (a minority-side ex-leader, or a candidate
			// promoted before its missing tail surfaced). Re-elect over it
			// rather than adopt it.
			if !quorum || lv == nil || lv.watermark >= requiredWM {
				return rs.adopt(leaderAddr, leaderEpoch, lv)
			}
			rs.logf("cluster: shard %s: refusing leader %s at watermark %d (< required %d); re-electing",
				rs.name, leaderAddr, lv.watermark, requiredWM)
		}
		for _, v := range views {
			if v.epoch > known {
				known = v.epoch
			}
			members = mergeMembers(members, v.members)
		}
		if wait := time.Until(graceOver); wait > 0 {
			if wait > lease/4+time.Millisecond {
				wait = lease/4 + time.Millisecond
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		if len(views) == 0 {
			return fmt.Errorf("no member of replication group %v reachable", members)
		}
		majority := len(members)/2 + 1
		if quorum && len(views) < majority {
			// A minority cannot elect: any write quorum of the other side
			// would miss the new leader entirely, losing acked writes.
			return fmt.Errorf("only %d of %d members of quorum group %v reachable; promotion needs %d",
				len(views), len(members), members, majority)
		}
		// Lease expired and nobody claims leadership: promote the
		// most-advanced member — highest epoch first (it may hold acks
		// the others never saw), then highest watermark. In quorum mode a
		// candidate below the required watermark is never chosen.
		var best *memberView
		for i := range views {
			v := &views[i]
			if quorum && v.watermark < requiredWM {
				continue
			}
			if best == nil || v.epoch > best.epoch || (v.epoch == best.epoch && v.watermark > best.watermark) {
				best = v
			}
		}
		if best == nil {
			return fmt.Errorf("no reachable member of group %v holds the required watermark %d", members, requiredWM)
		}
		newEpoch := known + 1
		if quorum {
			// Fence-then-promote: move every other reachable member to
			// newEpoch as a follower FIRST. A fenced member refuses the old
			// leader's appends from that instant, and its fence ack reports
			// the watermark it was fenced at — so any write the old leader
			// acked via a quorum is visible in some fence ack (write quorum
			// and promotion majority always intersect), and a candidate
			// missing one of those records is caught before adoption.
			fenced := 1 // the candidate itself, fenced by its own Promote below
			var fenceMax uint64
			raced := false
			for i := range views {
				v := &views[i]
				if v.addr == best.addr {
					continue
				}
				resp, err := rs.sendPromote(ctx, v.addr, &wire.Promote{
					Epoch: newEpoch, Leader: best.addr, Members: members,
				})
				if err != nil {
					continue
				}
				switch r := resp.(type) {
				case *wire.ReplAck:
					fenced++
					if r.Watermark > fenceMax {
						fenceMax = r.Watermark
					}
				case *wire.Error:
					if r.Code == wire.CodeWrongShard && r.Aux > known {
						known = r.Aux
						raced = true
					}
				}
			}
			if raced {
				continue // another router is ahead; re-probe at its epoch
			}
			if fenced < majority {
				known = newEpoch // the fenced members moved; don't reuse the epoch
				if round >= maxFailoverAttempts {
					return fmt.Errorf("quorum promotion fenced only %d of %d needed members", fenced, majority)
				}
				continue
			}
			if fenceMax > requiredWM {
				requiredWM = fenceMax
				rs.mu.Lock()
				rs.requiredWM = fenceMax
				rs.mu.Unlock()
			}
		}
		rs.logf("cluster: shard %s: promoting %s to leader (epoch %d, watermark %d)", rs.name, best.addr, newEpoch, best.watermark)
		resp, err := rs.sendPromote(ctx, best.addr, &wire.Promote{
			Epoch: newEpoch, Leader: best.addr, Members: members,
		})
		if err == nil {
			switch r := resp.(type) {
			case *wire.ReplAck:
				if quorum && r.Watermark < requiredWM {
					// The fence acks proved a record this candidate does not
					// hold: a write quorum that excluded it acknowledged
					// something it never saw. Re-elect at a higher epoch; the
					// watermark guard above now steers the election to the
					// member that reported requiredWM.
					rs.logf("cluster: shard %s: promoted %s holds watermark %d < required %d; re-electing",
						rs.name, best.addr, r.Watermark, requiredWM)
					known = newEpoch
					if round >= maxFailoverAttempts {
						return fmt.Errorf("promoted %s lacks required watermark %d", best.addr, requiredWM)
					}
					continue
				}
				best.epoch = newEpoch
				return rs.adopt(best.addr, newEpoch, best)
			case *wire.Error:
				if r.Code == wire.CodeWrongShard && r.Aux > known {
					// Lost an election race: learn the winner's epoch and
					// re-probe — the winner answers as leader next round.
					known = r.Aux
				} else {
					return fmt.Errorf("promoting %s: %s", best.addr, r.Msg)
				}
			default:
				return fmt.Errorf("promoting %s: unexpected response %T", best.addr, resp)
			}
		}
		if round >= maxFailoverAttempts {
			return fmt.Errorf("failover of group %v did not converge", members)
		}
	}
}

// sendPromote delivers a promotion over a throwaway connection.
func (rs *ReplicatedShard) sendPromote(ctx context.Context, addr string, p *wire.Promote) (wire.Message, error) {
	tr, err := client.DialTCPOptions(addr, rs.opts)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	return tr.RoundTrip(pctx, p)
}

// current snapshots the live connection and its generation.
func (rs *ReplicatedShard) current() (*client.TCP, uint64, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.closed {
		return nil, 0, errors.New("transport closed")
	}
	if rs.conn == nil {
		return nil, 0, errors.New("no leader connection")
	}
	return rs.conn, rs.gen, nil
}

// refer follows a CodeNotLeader referral: the answering member refused
// the request without applying it and (usually) named its leader.
// Returns whether a retry is worthwhile.
func (rs *ReplicatedShard) refer(ctx context.Context, gen uint64, addr string, epoch uint64) bool {
	rs.mu.Lock()
	if epoch > rs.epoch {
		rs.epoch = epoch
	}
	stale := gen != rs.gen
	cur := rs.leader
	rs.mu.Unlock()
	if stale {
		return true // another request already moved the connection
	}
	if addr != "" && addr != cur {
		if err := rs.adopt(addr, epoch, nil); err == nil {
			return true
		}
	}
	// The referral names nobody (or the named leader is unreachable, or
	// is the very connection that just refused us): elect.
	return rs.failover(ctx, gen) == nil
}

// Handle implements server.Handler against the group's leader. Failed
// reads retry on the post-failover leader; failed writes surface (their
// outcome on the dead leader is unknown); CodeNotLeader refusals —
// which applied nothing — replay against the referred leader. CodeBusy
// refusals also applied nothing (that is the quorum gate's and the
// install fence's contract), so they retry after a short wait — checking
// first whether leadership moved while the busy leader blocks on a
// quorum it lost.
func (rs *ReplicatedShard) Handle(ctx context.Context, req wire.Message) wire.Message {
	var lastErr error
	for attempt := 0; attempt <= maxFailoverAttempts; attempt++ {
		conn, gen, err := rs.current()
		if err != nil {
			return &wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("cluster: shard %s: %v", rs.name, err)}
		}
		actx := ctx
		var cancel context.CancelFunc
		if rs.callTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, rs.callTimeout)
		}
		resp, rtErr := conn.RoundTrip(actx, req)
		if cancel != nil {
			cancel()
		}
		if rtErr == nil {
			if e, ok := resp.(*wire.Error); ok && attempt < maxFailoverAttempts {
				switch e.Code {
				case wire.CodeNotLeader:
					if rs.refer(ctx, gen, e.Msg, e.Aux) {
						continue
					}
				case wire.CodeBusy:
					if rs.busyWait(ctx, gen) {
						continue
					}
				}
			}
			return resp
		}
		if ctx.Err() != nil {
			return canceled(ctx.Err())
		}
		// The attempt failed while the caller's context is still live:
		// either the connection broke, or the per-attempt deadline caught
		// a leader that is alive but unreachable (a partition eats frames
		// without closing sockets). Both route into failover.
		lastErr = rtErr
		if fe := rs.failover(ctx, gen); fe != nil {
			return &wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("cluster: shard %s: %v (failover: %v)", rs.name, rtErr, fe)}
		}
		if wire.KindOf(req) != wire.KindRead {
			return &wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("cluster: shard %s: %v (failed over; write outcome unknown)", rs.name, rtErr)}
		}
	}
	return &wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("cluster: shard %s: %v", rs.name, lastErr)}
}

// busyWait handles a CodeBusy refusal, which by contract applied
// nothing: probe for a leader that moved (a quorum-blocked ex-leader's
// group may have elected a new one that is accepting writes), adopt it
// if so, otherwise wait a fraction of the lease for the group to heal.
// Returns whether retrying is worthwhile.
func (rs *ReplicatedShard) busyWait(ctx context.Context, gen uint64) bool {
	rs.mu.Lock()
	stale := gen != rs.gen
	members := append([]string(nil), rs.members...)
	cur := rs.leader
	known := rs.epoch
	lease := rs.lease
	quorum := rs.quorum
	requiredWM := rs.requiredWM
	rs.mu.Unlock()
	if stale {
		return true // another request already moved the connection
	}
	views, leaderAddr, leaderEpoch := rs.probe(ctx, members)
	if leaderAddr != "" && leaderAddr != cur && leaderEpoch >= known {
		var lv *memberView
		for i := range views {
			if views[i].addr == leaderAddr {
				lv = &views[i]
			}
		}
		if !quorum || lv == nil || lv.watermark >= requiredWM {
			if rs.adopt(leaderAddr, leaderEpoch, lv) == nil {
				return true
			}
		}
	}
	select {
	case <-time.After(lease/4 + time.Millisecond):
		return true
	case <-ctx.Done():
		return false
	}
}

// Leader reports the address the shard currently treats as the group's
// leader and the epoch it holds.
func (rs *ReplicatedShard) Leader() (string, uint64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.leader, rs.epoch
}

// Close implements io.Closer; in-flight calls fail and failovers stop.
func (rs *ReplicatedShard) Close() error {
	rs.mu.Lock()
	rs.closed = true
	conn := rs.conn
	rs.conn = nil
	rs.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}
