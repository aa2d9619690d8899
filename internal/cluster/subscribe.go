package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/sub"
	"repro/internal/wire"
)

// maxSubRebuilds bounds consecutive no-progress heal attempts: a
// subscription that cannot re-establish its fan-out within this many
// rebuilds surfaces the underlying error instead of retrying forever. The
// counter resets on every delivered window, so a long-lived subscription
// can heal across any number of non-overlapping reshards.
const maxSubRebuilds = 5

// subRebuildBackoff paces heal attempts while a reshard is still settling
// (the new owner may not have imported the stream yet when the old owner
// starts answering CodeWrongShard).
const subRebuildBackoff = 25 * time.Millisecond

var errSubClosed = errors.New("cluster: subscription closed")

// Subscribe opens a live cross-shard subscription: the stream set is split
// by owning shard exactly as AggRange splits a query plan, each shard
// maintains its own materialized view and pushes per-window partial
// aggregates, and the returned handle merges them lock-step by window
// sequence — element-wise ciphertext addition, the same combine AggRange
// performs once per query, here performed once per window forever.
//
// The handle heals across reshards: when any shard leg fails (the stream
// moved, the connection broke, the topology changed), the router refreshes
// its ring on CodeWrongShard, tears down every leg, and rebuilds the whole
// fan-out starting at the next undelivered window. Committed windows are
// immutable and re-readable, so the rebuilt legs resync any windows the
// teardown lost and the merged sequence stays gap-free and duplicate-free;
// legs replaying windows already delivered are skipped by sequence number.
func (r *Router) Subscribe(ctx context.Context, req *wire.Subscribe) (sub.Handle, error) {
	if req.WindowChunks == 0 {
		return nil, errors.New("cluster: subscription needs a window size")
	}
	if len(req.UUIDs) == 0 {
		return nil, errors.New("cluster: no streams given")
	}
	start := req.FromSeq
	if req.FromLatest {
		// The live frontier of a cross-shard plan is governed by its
		// slowest member; each shard only knows its own members, so the
		// router resolves the global minimum and pins every leg to it.
		s, err := r.latestSeq(ctx, req.UUIDs, req.WindowChunks)
		if err != nil {
			return nil, err
		}
		start = s
	}
	rs := &routerSub{
		r:     r,
		uuids: append([]string(nil), req.UUIDs...),
		elems: append([]uint32(nil), req.Elems...),
		wc:    req.WindowChunks,
		next:  start,
	}
	if err := rs.establish(ctx, start); err != nil {
		// A single stale-ring retry, mirroring Handle's wrong-shard
		// recovery: refresh and re-resolve ownership once.
		if !r.healWrongShard(ctx, err) {
			return nil, err
		}
		if err := rs.establish(ctx, start); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// latestSeq resolves the subscribe-time frontier of a cross-shard plan:
// the window index of the slowest member stream (min chunk count / window
// size), from the router's StreamInfo pass. Geometry is not checked here:
// the legs' handshakes check it.
func (r *Router) latestSeq(ctx context.Context, uuids []string, wc uint64) (uint64, error) {
	_, infos, e := r.memberInfos(ctx, r.rt.Load(), uuids)
	if e != nil {
		return 0, e
	}
	count := infos[0].Count
	for _, info := range infos[1:] {
		count = min(count, info.Count)
	}
	return count / wc, nil
}

// healWrongShard reports whether err is a wrong-shard answer and, when it
// is, refreshes the ring so the next ownership resolution sees the reshard
// that produced it. server.WireError maps both raw engine moved-errors
// (in-process shards) and decoded wire errors (remote shards) to the code.
func (r *Router) healWrongShard(ctx context.Context, err error) bool {
	we := server.WireError(err)
	if we.Code != wire.CodeWrongShard {
		return false
	}
	if r.dial != nil {
		r.refreshTopology(ctx, we.Aux)
	}
	return true
}

// unsalvageable reports errors no rebuild can fix: the plan itself is bad
// or a member stream is gone. Everything else (broken connections, moved
// streams, mid-reshard races) is worth re-establishing.
func unsalvageable(err error) bool {
	switch server.WireError(err).Code {
	case wire.CodeBadRequest, wire.CodeNotFound, wire.CodeExists:
		return true
	}
	return false
}

// routerSub is the router's sub.Handle: one leg per owning shard, merged
// lock-step. Recv is single-consumer (like every Handle); Close may race
// it from another goroutine.
type routerSub struct {
	r     *Router
	uuids []string
	elems []uint32
	wc    uint64
	resp  *wire.SubscribeResp

	mu      sync.Mutex
	closed  bool
	handles []sub.Handle // nil between teardown and the next establish

	next     uint64 // next window sequence to deliver (Recv-goroutine only)
	rebuilds int    // consecutive heal attempts without a delivery
}

func (rs *routerSub) Resp() *wire.SubscribeResp { return rs.resp }

// establish resolves current ownership and opens one subscription leg per
// shard group, every leg pinned to the explicit window sequence `from` —
// never FromLatest, which each shard would resolve against its own local
// frontier and desynchronize the merge.
func (rs *routerSub) establish(ctx context.Context, from uint64) error {
	rt := rs.r.rt.Load()
	// The legs outlive any gate hold; a handoff racing the handshake
	// surfaces CodeWrongShard and the merge rebuilds.
	order, groups, states, release := rs.r.shardGroups(rt, rs.uuids)
	release()
	handles := make([]sub.Handle, 0, len(order))
	fail := func(err error) error {
		for _, h := range handles {
			h.Close()
		}
		return err
	}
	var (
		epoch, interval int64
		total           uint32
	)
	for i, owner := range order {
		s := states[owner]
		sb, ok := s.handler.(server.Subscriber)
		if !ok {
			return fail(fmt.Errorf("cluster: shard %s cannot serve subscriptions", owner))
		}
		s.fanouts.Add(1)
		h, err := sb.Subscribe(ctx, &wire.Subscribe{
			UUIDs: groups[owner], WindowChunks: rs.wc, Elems: rs.elems, FromSeq: from,
		})
		if err != nil {
			s.errors.Add(1)
			return fail(err)
		}
		handles = append(handles, h)
		resp := h.Resp()
		if i == 0 {
			epoch, interval = resp.Epoch, resp.Interval
		} else if resp.Epoch != epoch || resp.Interval != interval {
			// Each shard validated geometry within its own group; the
			// cross-group check happens here, on the handshake echoes.
			return fail(&wire.Error{Code: wire.CodeBadRequest, Msg: "cluster: member stream geometries differ"})
		}
		total += resp.StreamCount
	}
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return fail(errSubClosed)
	}
	rs.handles = handles
	rs.mu.Unlock()
	if rs.resp == nil {
		rs.resp = &wire.SubscribeResp{
			FirstSeq: from, WindowChunks: rs.wc,
			Epoch: epoch, Interval: interval, StreamCount: total,
		}
	}
	return nil
}

// teardown closes every leg and leaves the handle leg-less until the next
// establish.
func (rs *routerSub) teardown() {
	rs.mu.Lock()
	handles := rs.handles
	rs.handles = nil
	rs.mu.Unlock()
	for _, h := range handles {
		h.Close()
	}
}

// Recv returns the next merged window, healing the fan-out when a leg
// fails. Progress resets the rebuild budget, so only consecutive fruitless
// rebuilds give up.
func (rs *routerSub) Recv(ctx context.Context) (*wire.SubEvent, error) {
	for {
		rs.mu.Lock()
		closed, handles := rs.closed, rs.handles
		rs.mu.Unlock()
		if closed {
			return nil, errSubClosed
		}
		var err error
		if handles == nil {
			err = rs.establish(ctx, rs.next)
			if err == nil {
				continue
			}
		} else {
			var ev *wire.SubEvent
			ev, err = rs.recvRound(ctx, handles)
			if err == nil {
				rs.rebuilds = 0
				return ev, nil
			}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		healable := rs.r.healWrongShard(ctx, err)
		if !healable && unsalvageable(err) {
			rs.teardown()
			return nil, err
		}
		if rs.rebuilds++; rs.rebuilds > maxSubRebuilds {
			rs.teardown()
			return nil, fmt.Errorf("cluster: subscription could not re-establish after %d attempts: %w", maxSubRebuilds, err)
		}
		rs.teardown()
		select {
		case <-time.After(subRebuildBackoff):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// recvRound merges one window across all legs. Every leg is gap-free and
// ascending on its own, so each contributes exactly one partial per
// sequence; partials below rs.next are replays from a rebuilt leg
// backfilling behind an already-delivered window and are dropped. The
// Resync flag ORs across legs: the merged window is a resync if any part
// of it was re-read rather than pushed live.
func (rs *routerSub) recvRound(ctx context.Context, handles []sub.Handle) (*wire.SubEvent, error) {
	var merged *wire.SubEvent
	for _, h := range handles {
		for {
			ev, err := h.Recv(ctx)
			if err != nil {
				return nil, err
			}
			if ev.Seq < rs.next {
				continue
			}
			if ev.Seq != rs.next {
				return nil, fmt.Errorf("cluster: shard leg skipped from window %d to %d", rs.next, ev.Seq)
			}
			if merged == nil {
				merged = &wire.SubEvent{
					Seq: ev.Seq, FromChunk: ev.FromChunk, ToChunk: ev.ToChunk,
					Resync: ev.Resync, Window: append([]uint64(nil), ev.Window...),
				}
			} else {
				if len(ev.Window) != len(merged.Window) {
					return nil, errors.New("cluster: shard window vectors disagree")
				}
				for x := range merged.Window {
					merged.Window[x] += ev.Window[x]
				}
				merged.Resync = merged.Resync || ev.Resync
			}
			break
		}
	}
	rs.next = merged.Seq + 1
	return merged, nil
}

// Close tears down every leg. Idempotent; a Recv blocked in a leg either
// unblocks with the leg's close error (remote legs) or on its context
// (in-process legs), matching the engine handle's contract.
func (rs *routerSub) Close() error {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return nil
	}
	rs.closed = true
	handles := rs.handles
	rs.handles = nil
	rs.mu.Unlock()
	for _, h := range handles {
		h.Close()
	}
	return nil
}

// Subscribe implements server.Subscriber for a remote shard: the
// subscription rides the multiplexed connection as a server-push stream
// (the only request answered that way), the handshake frame arrives before this returns,
// and every subsequent frame is one window event. The session's credit
// accounting paces the remote broker to this consumer's speed.
//
// Recv ignores its per-call context in favor of the stream's creation
// context — the two are the same in every caller (the subscription worker
// and the router pass one context through the handle's whole life) — and
// Close unblocks an in-flight Recv by abandoning the call.
func (t *tcpShard) Subscribe(ctx context.Context, req *wire.Subscribe) (sub.Handle, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("cluster: shard %s: closed", t.addr)
	}
	st, err := t.conn.Stream(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %s: %w", t.addr, err)
	}
	first, err := st.Recv()
	if err != nil {
		st.Close()
		if errors.Is(err, io.EOF) {
			err = fmt.Errorf("cluster: shard %s: subscription ended before handshake", t.addr)
		}
		return nil, err
	}
	resp, ok := first.(*wire.SubscribeResp)
	if !ok {
		st.Close()
		return nil, fmt.Errorf("cluster: shard %s: unexpected handshake frame %T", t.addr, first)
	}
	return &tcpSub{addr: t.addr, st: st, resp: resp}, nil
}

// tcpSub adapts one remote push stream to sub.Handle.
type tcpSub struct {
	addr string
	st   *client.Stream
	resp *wire.SubscribeResp

	closeMu sync.Mutex
	closed  bool
}

func (s *tcpSub) Resp() *wire.SubscribeResp { return s.resp }

func (s *tcpSub) Recv(ctx context.Context) (*wire.SubEvent, error) {
	msg, err := s.st.Recv()
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = fmt.Errorf("cluster: shard %s: subscription stream ended", s.addr)
		}
		return nil, err
	}
	ev, ok := msg.(*wire.SubEvent)
	if !ok {
		return nil, fmt.Errorf("cluster: shard %s: unexpected subscription frame %T", s.addr, msg)
	}
	return ev, nil
}

// Close abandons the call: the client session sends the zero-credit
// cancel, the server side observes the abandonment and releases the
// broker view. Idempotent.
func (s *tcpSub) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.st.Close()
}
