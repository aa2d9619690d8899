package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// This file is the coordinator half of live resharding: Rebalance diffs
// the current ring against a new membership into per-stream move tasks
// and migrates each stream while both sides keep serving.
//
// Per stream:
//
//  1. Live copy rounds: the sealed chunks (the bulk of a stream) are
//     exported from the source and imported into the destination while
//     reads and writes keep flowing to the source; each round copies only
//     the chunks appended since the previous one, until the delta is
//     small.
//  2. Freeze: the stream's move gate write-locks, briefly holding its
//     requests at the router (every other stream is untouched).
//  3. Drain: a final export round runs against the now-quiescent stream —
//     the remaining chunk delta plus meta, index nodes, staged records,
//     grants, and envelopes, a consistent copy by construction. This is
//     the catch-up phase: writes accepted during the live rounds are in
//     the delta, writes after the freeze are waiting at the gate.
//  4. Handoff: the destination commits (starts serving), the source
//     releases (deletes its copy, leaving a CodeWrongShard tombstone),
//     forwarding flips, and the gate reopens — held writes land on the
//     destination in order.
//
// After every stream moved, the new topology installs atomically
// (epoch+1), the move table clears, dropped members close, and the new
// membership is published to every member shard (TopologyUpdate) so
// routers holding the old ring can refresh from any shard.

// snapshotPageItems is the per-page item bound migration export uses.
const snapshotPageItems = 256

// liveCopyDeltaChunks: a live round that copied at most this many new
// chunks means the copy has caught up enough to freeze.
const liveCopyDeltaChunks = 4

// maxLiveCopyRounds bounds the live rounds per stream: under sustained
// ingest faster than the copy, the freeze happens anyway and the drain
// picks up the rest.
const maxLiveCopyRounds = 5

// MoveReport is one migrated stream's outcome.
type MoveReport struct {
	UUID       string
	From, To   string
	Chunks     uint64 // chunk count at handoff
	Items      int    // key/value pairs copied (all rounds)
	CopyRounds int    // live rounds before the freeze
}

// RebalanceReport summarizes a completed membership change.
type RebalanceReport struct {
	Topology Topology
	Moved    []MoveReport
}

// ErrReshardInProgress reports a membership change refused because
// another one is still running.
var ErrReshardInProgress = errors.New("cluster: reshard already in progress")

// ErrEpochConflict reports a conditional membership change refused
// because the topology epoch moved since the caller read it (another
// coordinator changed the membership in between). Refetch and retry.
var ErrEpochConflict = errors.New("cluster: topology epoch changed since it was read")

// Rebalance changes the ring membership to exactly newShards, migrating
// every stream whose ownership changed while the cluster keeps serving:
// reads and writes to migrating streams follow the authoritative copy
// throughout (a write is held only for its stream's brief final drain).
// Shards naming existing members may leave Handler nil to keep the
// current handler; new members need a Handler or Options.Dial. On an
// error before the topology installs, the membership does not change:
// completed moves keep forwarding through the move table (re-run
// Rebalance to finish), the failed move is rolled back to its source,
// and not-yet-started moves never begin. The one post-install error (the
// straggler sweep for streams created mid-reshard) keeps the new
// membership and says so in the error; re-run Rebalance to finish.
func (r *Router) Rebalance(ctx context.Context, newShards []Shard) (*RebalanceReport, error) {
	return r.rebalance(ctx, newShards, 0)
}

// rebalance implements Rebalance; expectEpoch != 0 makes the change
// conditional on the current topology epoch (the wire-level CAS that
// keeps two concurrent joiners from silently evicting each other).
func (r *Router) rebalance(ctx context.Context, newShards []Shard, expectEpoch uint64) (report *RebalanceReport, err error) {
	if !r.reshardMu.TryLock() {
		return nil, ErrReshardInProgress
	}
	defer r.reshardMu.Unlock()

	rt := r.rt.Load()
	if expectEpoch != 0 && rt.epoch != expectEpoch {
		return nil, fmt.Errorf("%w: expected %d, now %d", ErrEpochConflict, expectEpoch, rt.epoch)
	}
	newEpoch := rt.epoch + 1
	states := make(map[string]*shardState, len(newShards))
	order := make([]string, 0, len(newShards))
	// Members dialed for this change are closed again if it fails before
	// the topology installs — repeated failed attempts must not leak
	// connections. Once installed they are live members and stay open
	// even if the post-install sweep errors.
	var dialed []io.Closer
	installed := false
	defer func() {
		if err == nil || installed {
			return
		}
		// A retained forwarding entry (release failed after the
		// destination committed) may reference a handler dialed this
		// attempt; keep those alive.
		inUse := map[io.Closer]bool{}
		r.movesMu.RLock()
		for _, ms := range r.moves {
			if c, ok := ms.dst.handler.(io.Closer); ok {
				inUse[c] = true
			}
		}
		r.movesMu.RUnlock()
		for _, c := range dialed {
			if !inUse[c] {
				c.Close()
			}
		}
	}()
	for _, sh := range newShards {
		if _, dup := states[sh.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard %q", sh.Name)
		}
		switch cur, known := rt.shards[sh.Name]; {
		case known:
			// Keep the live state (handler and counters) of an existing
			// member; a provided handler is ignored.
			states[sh.Name] = cur
		case sh.Handler != nil:
			states[sh.Name] = &shardState{name: sh.Name, handler: sh.Handler}
		case r.dial != nil:
			remote, dialErr := r.dial(sh.Name)
			if dialErr != nil {
				return nil, fmt.Errorf("cluster: dialing new member %q: %w", sh.Name, dialErr)
			}
			if remote.Handler == nil {
				return nil, fmt.Errorf("cluster: dialer returned nil handler for %q", sh.Name)
			}
			if c, ok := remote.Handler.(io.Closer); ok {
				dialed = append(dialed, c)
			}
			states[sh.Name] = &shardState{name: sh.Name, handler: remote.Handler}
		default:
			return nil, fmt.Errorf("cluster: new member %q needs a handler (no dialer configured)", sh.Name)
		}
		order = append(order, sh.Name)
	}
	newRing, err := NewRing(order)
	if err != nil {
		return nil, err
	}

	// The union of old and new membership: where streams may currently
	// reside (a retried rebalance may find streams already on new
	// members, and stragglers may sit on members being dropped).
	union := make(map[string]*shardState, len(states)+len(rt.shards))
	for name, s := range rt.shards {
		union[name] = s
	}
	for name, s := range states {
		union[name] = s
	}

	// Migrate until residence converges on the new ring: the first pass
	// moves the bulk; further passes catch streams created while it ran
	// (they still routed by the old ring and may have landed on an
	// old owner).
	report = &RebalanceReport{Topology: Topology{Epoch: newEpoch, Members: append([]string(nil), order...)}}
	for pass := 0; pass < maxReshardPasses; pass++ {
		moved, passErr := r.migratePass(ctx, union, newRing, states, newEpoch)
		report.Moved = append(report.Moved, moved...)
		if passErr != nil {
			return nil, passErr
		}
		if len(moved) == 0 {
			break
		}
	}

	// Install the new topology: the ring flips atomically and the move
	// table's forwarding entries become redundant (the ring now names the
	// destinations).
	r.rt.Store(&routing{epoch: newEpoch, ring: newRing, shards: states, order: order})
	installed = true
	r.movesMu.Lock()
	r.moves = make(map[string]*moveState)
	r.movesActive.Store(0)
	r.movesMu.Unlock()

	// Post-install sweep: a create that raced the final pre-install pass
	// landed on an old owner; now that requests route by the new ring, no
	// NEW strays can appear, so one more pass settles them. A failure
	// here is surfaced but the membership stays installed (the error says
	// so) — re-run Rebalance to finish the stragglers.
	if moved, sweepErr := r.migratePass(ctx, union, newRing, states, newEpoch); sweepErr != nil {
		report.Moved = append(report.Moved, moved...)
		return report, fmt.Errorf("cluster: post-install straggler sweep failed (membership %d installed; re-run to finish): %w", newEpoch, sweepErr)
	} else {
		report.Moved = append(report.Moved, moved...)
	}

	// Publish the new membership to every shard of the union — including
	// members being dropped, whose tombstones would otherwise send stale
	// routers to shards that cannot name the new topology — then close
	// the dropped members. Best effort: a shard that misses the update
	// just cannot serve the refresh, the others can.
	update := &wire.TopologyUpdate{Epoch: newEpoch, Members: report.Topology.Members}
	for _, s := range union {
		s.handler.Handle(ctx, update)
	}
	for name, s := range rt.shards {
		if _, kept := states[name]; !kept {
			if c, ok := s.handler.(io.Closer); ok {
				_ = c.Close()
			}
		}
	}
	return report, nil
}

// maxReshardPasses bounds the pre-install convergence passes of a
// rebalance; a workload creating streams faster than a pass migrates
// them converges in the post-install sweep instead (new creates route by
// the new ring once it installs).
const maxReshardPasses = 3

// migratePass lists where every stream currently resides (across the
// union of old and new members), diffs that against the new ring, and
// migrates each mismatch. It returns the completed moves, stopping at
// the first failure.
func (r *Router) migratePass(ctx context.Context, union map[string]*shardState, newRing *Ring, states map[string]*shardState, newEpoch uint64) ([]MoveReport, error) {
	residence := make(map[string]string)
	for name, s := range union {
		resp := s.handler.Handle(ctx, &wire.ListStreams{})
		listing, ok := resp.(*wire.ListStreamsResp)
		if !ok {
			return nil, fmt.Errorf("cluster: listing streams of %q: %v", name, resp)
		}
		for _, uuid := range listing.UUIDs {
			if prev, dup := residence[uuid]; dup {
				return nil, fmt.Errorf("cluster: stream %q is served by both %q and %q; refusing to reshard", uuid, prev, name)
			}
			residence[uuid] = name
		}
	}

	type task struct {
		uuid     string
		src, dst *shardState
	}
	var tasks []task
	for uuid, srcName := range residence {
		dstName := newRing.Owner(uuid)
		if dstName != srcName {
			tasks = append(tasks, task{uuid: uuid, src: union[srcName], dst: states[dstName]})
		}
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].uuid < tasks[j].uuid })

	var moved []MoveReport
	for _, tk := range tasks {
		mr, moveErr := r.migrateStream(ctx, tk.uuid, tk.src, tk.dst, newEpoch)
		if moveErr != nil {
			return moved, fmt.Errorf("cluster: migrating stream %q from %s to %s: %w", tk.uuid, tk.src.name, tk.dst.name, moveErr)
		}
		moved = append(moved, mr)
	}
	return moved, nil
}

// migrateStream runs the per-stream migration protocol described at the
// top of this file. On error the destination's partial import is
// discarded and the stream keeps being served by the source.
func (r *Router) migrateStream(ctx context.Context, uuid string, src, dst *shardState, newEpoch uint64) (MoveReport, error) {
	ms := &moveState{src: src, dst: dst}
	r.movesMu.Lock()
	r.moves[uuid] = ms
	r.movesActive.Store(int64(len(r.moves)))
	r.movesMu.Unlock()
	// Dispatch barrier: requests that read the moves table before the
	// entry appeared may still be dispatching ungated; wait them out so
	// every request in flight from here on passes the move gate — the
	// freeze below relies on that to quiesce the source.
	r.routeMu.Lock()
	//lint:ignore SA2001 empty critical section is the barrier
	r.routeMu.Unlock()

	frozen := false
	fail := func(err error) (MoveReport, error) {
		if frozen {
			ms.gate.Unlock()
		}
		r.movesMu.Lock()
		delete(r.moves, uuid)
		r.movesActive.Store(int64(len(r.moves)))
		r.movesMu.Unlock()
		// Best effort: wipe the partial import so the destination's store
		// does not accumulate half-copied streams. The migration may have
		// failed BECAUSE ctx died, so the cleanup gets its own detached
		// deadline rather than inheriting the dead context.
		abortCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
		defer cancel()
		if frozen {
			// The stream keeps being served by the source: lift the drain
			// fence (epoch 0) so its writes flow again.
			src.handler.Handle(abortCtx, &wire.HandoffComplete{UUID: uuid, Epoch: 0, Action: wire.HandoffFence})
		}
		dst.handler.Handle(abortCtx, &wire.HandoffComplete{UUID: uuid, Action: wire.HandoffAbort})
		return MoveReport{}, err
	}

	report := MoveReport{UUID: uuid, From: src.name, To: dst.name}
	from := uint64(0)
	for round := 1; ; round++ {
		count, items, err := r.copyRound(ctx, uuid, src, dst, from, false)
		if err != nil {
			return fail(err)
		}
		report.CopyRounds, report.Items = round, report.Items+items
		delta := count - from
		from = count
		if r.testHookAfterCopyRound != nil {
			r.testHookAfterCopyRound(uuid, round)
		}
		if delta <= liveCopyDeltaChunks || round >= maxLiveCopyRounds {
			break
		}
	}

	// Freeze: hold this stream's requests; in-flight ones drain out of
	// the gate's read side first, so the source is quiescent below.
	ms.gate.Lock()
	frozen = true
	// Fence: the gate only holds THIS router's requests — a second router
	// holding the old ring would still route writes straight to the
	// source, where they would land after the drain read below and be
	// deleted by release. Arming the source's write fence at the new
	// epoch closes that gap: stale-epoch mutations answer CodeWrongShard
	// (the fencing engine barriers against in-flight ones before
	// acknowledging), and the rejected router refreshes and retries once
	// the new topology publishes.
	if resp := src.handler.Handle(ctx, &wire.HandoffComplete{UUID: uuid, Epoch: newEpoch, Action: wire.HandoffFence}); !isOK(resp) {
		return fail(fmt.Errorf("arming source write fence failed: %v", resp))
	}
	if r.testHookDuringFreeze != nil {
		r.testHookDuringFreeze(uuid)
	}
	count, items, err := r.copyRound(ctx, uuid, src, dst, from, true)
	if err != nil {
		return fail(err)
	}
	report.Items += items
	report.Chunks = count

	// Handoff: destination starts serving before the source lets go, and
	// forwarding flips before the gate reopens — at no point is the
	// stream served by zero or two sides.
	if resp := dst.handler.Handle(ctx, &wire.HandoffComplete{UUID: uuid, Epoch: newEpoch, Action: wire.HandoffCommit}); !isOK(resp) {
		return fail(fmt.Errorf("destination commit failed: %v", resp))
	}
	if resp := src.handler.Handle(ctx, &wire.HandoffComplete{UUID: uuid, Epoch: newEpoch, Action: wire.HandoffRelease}); !isOK(resp) {
		// The destination is committed and authoritative; the source
		// refused to let go (e.g. it crashed after the drain). The move
		// entry is RETAINED with forwarding on, so this router keeps
		// routing the stream to the destination and never back to the
		// stale source copy — but the reshard stops and surfaces the
		// failure: the source must be repaired (released or wiped)
		// before a future reshard can relist residence cleanly.
		ms.forwarded.Store(true)
		ms.gate.Unlock()
		frozen = false
		return MoveReport{}, fmt.Errorf("source release failed (destination committed; forwarding retained): %v", resp)
	}
	ms.forwarded.Store(true)
	ms.gate.Unlock()
	return report, nil
}

// copyRound exports chunks [fromChunk, count) — plus the stream's meta,
// index, staged records, grants, and envelopes when withMeta — from src
// and imports every page into dst. It returns the chunk count pinned at
// the start of the round.
func (r *Router) copyRound(ctx context.Context, uuid string, src, dst *shardState, fromChunk uint64, withMeta bool) (count uint64, items int, err error) {
	req := &wire.StreamSnapshot{UUID: uuid, FromChunk: fromChunk, WithMeta: withMeta, MaxItems: snapshotPageItems}
	for {
		resp := src.handler.Handle(ctx, req)
		page, ok := resp.(*wire.SnapshotChunk)
		if !ok {
			return count, items, fmt.Errorf("export failed: %v", resp)
		}
		if page.HasCfg {
			count = page.Count
		}
		if len(page.Items) > 0 {
			resp := dst.handler.Handle(ctx, &wire.IngestSnapshot{UUID: uuid, Items: page.Items})
			if !isOK(resp) {
				return count, items, fmt.Errorf("import refused: %v", resp)
			}
			items += len(page.Items)
		}
		if page.Done {
			return count, items, nil
		}
		req.Cursor = page.Cursor
	}
}

func isOK(resp wire.Message) bool {
	_, ok := resp.(*wire.OK)
	return ok
}

// handleReshard serves the wire-level membership change: each member name
// resolves to an existing shard or is dialed.
func (r *Router) handleReshard(ctx context.Context, m *wire.Reshard) wire.Message {
	if len(m.Members) == 0 {
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "cluster: reshard needs at least one member"}
	}
	shards := make([]Shard, len(m.Members))
	for i, name := range m.Members {
		shards[i] = Shard{Name: name}
	}
	report, err := r.rebalance(ctx, shards, m.ExpectEpoch)
	if err != nil {
		if errors.Is(err, ErrReshardInProgress) || errors.Is(err, ErrEpochConflict) {
			return &wire.Error{Code: wire.CodeBusy, Msg: err.Error()}
		}
		return server.WireError(err)
	}
	return &wire.TopologyInfoResp{Epoch: report.Topology.Epoch, Members: report.Topology.Members}
}

// refreshTopology recovers from a CodeWrongShard answer: some shard
// reported a membership change (at least minEpoch) this router has not
// seen. It asks the current shards for the published topology, and
// installs the newest one found — reusing known members' handlers and
// dialing the rest. Returns whether the router's ring now covers
// minEpoch.
func (r *Router) refreshTopology(ctx context.Context, minEpoch uint64) bool {
	r.refreshMu.Lock()
	defer r.refreshMu.Unlock()
	rt := r.rt.Load()
	if rt.epoch >= minEpoch {
		return true // another request already refreshed
	}
	var best *wire.TopologyInfoResp
	for _, name := range rt.order {
		resp := rt.shards[name].handler.Handle(ctx, &wire.TopologyInfo{})
		if ti, ok := resp.(*wire.TopologyInfoResp); ok && len(ti.Members) > 0 {
			if best == nil || ti.Epoch > best.Epoch {
				best = ti
			}
		}
	}
	if best == nil || best.Epoch <= rt.epoch {
		return false
	}
	if err := r.installMembers(best.Epoch, best.Members); err != nil {
		return false
	}
	return best.Epoch >= minEpoch
}

// installMembers swaps in a topology learned from the cluster (not
// coordinated by this router): known members keep their handlers, new
// ones are dialed, dropped ones close.
func (r *Router) installMembers(epoch uint64, members []string) (err error) {
	if !r.reshardMu.TryLock() {
		return ErrReshardInProgress
	}
	defer r.reshardMu.Unlock()
	rt := r.rt.Load()
	if epoch <= rt.epoch {
		return nil
	}
	states := make(map[string]*shardState, len(members))
	order := make([]string, 0, len(members))
	var newDials []io.Closer
	defer func() {
		if err == nil {
			return
		}
		for _, c := range newDials {
			c.Close()
		}
	}()
	for _, name := range members {
		if _, dup := states[name]; dup {
			return fmt.Errorf("cluster: duplicate member %q in published topology", name)
		}
		if cur, known := rt.shards[name]; known {
			states[name] = cur
		} else {
			if r.dial == nil {
				return fmt.Errorf("cluster: published topology names unknown member %q and no dialer is configured", name)
			}
			remote, dialErr := r.dial(name)
			if dialErr != nil || remote.Handler == nil {
				return fmt.Errorf("cluster: dialing member %q: %v", name, dialErr)
			}
			if c, ok := remote.Handler.(io.Closer); ok {
				newDials = append(newDials, c)
			}
			states[name] = &shardState{name: name, handler: remote.Handler}
		}
		order = append(order, name)
	}
	ring, err := NewRing(order)
	if err != nil {
		return err
	}
	r.rt.Store(&routing{epoch: epoch, ring: ring, shards: states, order: order})
	for name, s := range rt.shards {
		if _, kept := states[name]; !kept {
			if c, ok := s.handler.(io.Closer); ok {
				_ = c.Close()
			}
		}
	}
	return nil
}
