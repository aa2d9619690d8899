package cluster

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/server"
	"repro/internal/wire"
)

// Shard names one engine shard and its request handler: an in-process
// *server.Engine, a remote engine via NewTCPShard, or any other
// server.Handler. In Rebalance, a Shard naming an existing member may
// leave Handler nil (the member's current handler is kept).
type Shard struct {
	Name    string
	Handler server.Handler
}

// Options tunes router construction.
type Options struct {
	// Dial connects a member the router does not know yet, by name.
	// Required for wire-driven membership changes (wire.Reshard names
	// members as strings) and for recovering from CodeWrongShard after a
	// reshard coordinated by another router; without it the router serves
	// a fixed shard set. For remote deployments this is typically
	// NewTCPShard with the member name as the address.
	Dial func(member string) (Shard, error)
}

// Topology is a versioned ring membership: Epoch increments on every
// membership change, and Members lists the shard names (dialable
// addresses, for remote shards).
type Topology struct {
	Epoch   uint64
	Members []string
}

// routing is one immutable routing-table generation: the ring, the shard
// states, and the topology epoch that produced them. Swapped atomically
// on membership changes so the request hot path never takes a lock.
type routing struct {
	epoch  uint64
	ring   *Ring
	shards map[string]*shardState
	order  []string
}

// Router routes protocol requests to the engine shard owning each stream
// and fans out cross-shard operations. It implements server.Handler (serve
// it with server.NewServer) and the client Transport contract (drive it
// with an unmodified Owner/Consumer). Safe for concurrent use.
//
// The ring is versioned (Topology): Rebalance changes the membership
// while both old and new owners keep serving, migrating the streams whose
// ownership changed. A router holding a stale ring recovers from
// wire.CodeWrongShard answers by refreshing its topology from the shards
// (Options.Dial connects members it has not seen).
type Router struct {
	rt   atomic.Pointer[routing]
	dial func(member string) (Shard, error)

	// reshardMu serializes membership changes (Rebalance and stale-ring
	// topology installs); the request path never takes it.
	reshardMu sync.Mutex

	// routeMu is the dispatch barrier: every data-path request holds the
	// read side for its whole dispatch, and a migration registering its
	// move entry takes the write side once (empty critical section) — so
	// after the barrier, no request can still be in flight with a
	// pre-registration view of the moves table. Without it, a request
	// that read moveOf == nil just before the entry appeared could write
	// to the source during the frozen drain, and release would delete
	// the acknowledged write.
	routeMu sync.RWMutex

	// moves tracks streams currently migrating (and streams already
	// handed off, until the new topology installs): requests consult it
	// before the ring. movesActive mirrors len(moves) so the common case
	// (no migration) costs one atomic load.
	movesMu     sync.RWMutex
	moves       map[string]*moveState
	movesActive atomic.Int64

	// refreshMu serializes wrong-shard topology refreshes so a burst of
	// stale-ring errors triggers one refresh, not one per request.
	refreshMu sync.Mutex

	// testHookAfterCopyRound, when set, runs after each live copy round
	// of a migration (tests inject writes to exercise catch-up).
	testHookAfterCopyRound func(uuid string, round int)

	// testHookDuringFreeze, when set, runs while a migrating stream is
	// frozen for its final drain, after the source's write fence armed
	// (tests inject writes through a second router to prove the fence
	// rejects them).
	testHookDuringFreeze func(uuid string)
}

// moveState is one migrating stream's routing override. The gate admits
// requests during the copy phase (read-locked per request) and freezes
// them for the final drain (write-locked); forwarded flips once the
// destination holds the authoritative copy.
type moveState struct {
	src, dst  *shardState
	gate      sync.RWMutex
	forwarded atomic.Bool
}

type shardState struct {
	name     string
	handler  server.Handler
	requests atomic.Uint64 // directly routed requests
	fanouts  atomic.Uint64 // sub-requests from cross-shard fan-outs
	errors   atomic.Uint64 // *wire.Error responses observed
}

// ShardStats is one shard's observability snapshot.
type ShardStats struct {
	Name     string
	Requests uint64 // directly routed requests
	Fanouts  uint64 // sub-requests issued by cross-shard fan-outs
	Errors   uint64 // error responses returned by the shard
}

// NewRouter builds a router over the given shards at topology epoch 1.
func NewRouter(shards []Shard, opts Options) (*Router, error) {
	names := make([]string, 0, len(shards))
	states := make(map[string]*shardState, len(shards))
	for _, sh := range shards {
		if sh.Handler == nil {
			return nil, fmt.Errorf("cluster: shard %q has nil handler", sh.Name)
		}
		if _, dup := states[sh.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard %q", sh.Name)
		}
		names = append(names, sh.Name)
		states[sh.Name] = &shardState{name: sh.Name, handler: sh.Handler}
	}
	ring, err := NewRing(names)
	if err != nil {
		return nil, err
	}
	r := &Router{dial: opts.Dial, moves: make(map[string]*moveState)}
	r.rt.Store(&routing{epoch: 1, ring: ring, shards: states, order: names})
	return r, nil
}

// Owner returns the name of the shard owning a stream UUID under the
// current ring (ignoring in-flight migrations).
func (r *Router) Owner(uuid string) string {
	rt := r.rt.Load()
	return rt.ring.Owner(uuid)
}

// Shards returns the current shard names in membership order.
func (r *Router) Shards() []string {
	rt := r.rt.Load()
	return append([]string(nil), rt.order...)
}

// Topology returns the current versioned membership.
func (r *Router) Topology() Topology {
	rt := r.rt.Load()
	return Topology{Epoch: rt.epoch, Members: append([]string(nil), rt.order...)}
}

// Stats snapshots per-shard request counters.
func (r *Router) Stats() []ShardStats {
	rt := r.rt.Load()
	out := make([]ShardStats, 0, len(rt.order))
	for _, name := range rt.order {
		s := rt.shards[name]
		out = append(out, ShardStats{
			Name:     s.name,
			Requests: s.requests.Load(),
			Fanouts:  s.fanouts.Load(),
			Errors:   s.errors.Load(),
		})
	}
	return out
}

// RoundTrip implements the client Transport contract in-process.
func (r *Router) RoundTrip(ctx context.Context, req wire.Message) (wire.Message, error) {
	return r.Handle(ctx, req), nil
}

// Close implements the client Transport contract: it closes every shard
// handler that holds resources (remote shards).
func (r *Router) Close() error {
	rt := r.rt.Load()
	var first error
	for _, name := range rt.order {
		if c, ok := rt.shards[name].handler.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// moveOf returns the move override of a stream, or nil. One atomic load
// in the common no-migration case.
func (r *Router) moveOf(uuid string) *moveState {
	if r.movesActive.Load() == 0 {
		return nil
	}
	r.movesMu.RLock()
	ms := r.moves[uuid]
	r.movesMu.RUnlock()
	return ms
}

// Handle implements server.Handler: single-stream requests go to the
// owning shard; StatRange, AggRange, ListStreams, and Batch may fan out.
// A canceled context aborts in-flight fan-outs promptly. A
// wire.CodeWrongShard answer — a stream moved under a ring this router
// has not caught up with — triggers a topology refresh (when Options.Dial
// is set) and one retry, so reshards coordinated elsewhere heal
// transparently; Batch envelopes are never replayed (their writes may
// have executed), the refresh just repairs the ring for the next ones.
func (r *Router) Handle(ctx context.Context, req wire.Message) wire.Message {
	resp := r.handleOnce(ctx, req)
	switch m := resp.(type) {
	case *wire.Error:
		if m.Code == wire.CodeWrongShard {
			if r.dial != nil {
				r.refreshTopology(ctx, m.Aux)
			}
			if cs, isCreate := req.(*wire.CreateStream); isCreate {
				// Creating a UUID whose tombstone epoch our ring already
				// covers: the tombstone is stale (the stream moved away
				// AND was deleted, and ownership came back here) — clear
				// it so the UUID is creatable again.
				r.reclaimTombstone(ctx, cs.UUID, m.Aux)
			}
			// Retry once even without a dialer: the wrong-shard answer may
			// be a race with this router's own in-flight handoff, where
			// the moves table (not the ring) already knows the new owner.
			if _, isBatch := req.(*wire.Batch); !isBatch {
				resp = r.handleOnce(ctx, req)
			}
		}
	case *wire.BatchResp:
		if r.dial != nil {
			for _, sub := range m.Resps {
				if e, ok := sub.(*wire.Error); ok && e.Code == wire.CodeWrongShard {
					r.refreshTopology(ctx, e.Aux)
					break
				}
			}
		}
	}
	return resp
}

func (r *Router) handleOnce(ctx context.Context, req wire.Message) wire.Message {
	if err := ctx.Err(); err != nil {
		return canceled(err)
	}
	// Admin requests run outside the dispatch barrier: Reshard drives the
	// migrations that take its write side.
	switch m := req.(type) {
	case *wire.TopologyInfo:
		rt := r.rt.Load()
		return &wire.TopologyInfoResp{Epoch: rt.epoch, Members: append([]string(nil), rt.order...)}
	case *wire.Reshard:
		return r.handleReshard(ctx, m)
	case *wire.TopologyUpdate:
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "cluster: topology updates are published to engine shards, not routers"}
	}
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	rt := r.rt.Load()
	// Every data-path request carries this router's topology epoch in its
	// context (and, over TCP shards, in the request envelope): engine write
	// fences compare against it, so a router holding a stale ring cannot
	// land a write in a stream whose final drain has already been read.
	return r.dispatchLocked(wire.ContextWithEpoch(ctx, rt.epoch), rt, req)
}

// dispatchLocked serves one data-path request; the caller holds the
// routeMu read side (batch sub-dispatch reuses it without re-acquiring —
// the read lock must not be taken recursively or a pending barrier
// deadlocks).
func (r *Router) dispatchLocked(ctx context.Context, rt *routing, req wire.Message) wire.Message {
	switch m := req.(type) {
	case *wire.StatRange:
		// A StatRange is the plan that keeps full vectors (no Elems); across
		// shards it rides the AggRange wave, and its answer drops the
		// geometry echo.
		resp := r.aggRange(ctx, rt, m, wire.AggRange{UUIDs: m.UUIDs, Ts: m.Ts, Te: m.Te, WindowChunks: m.WindowChunks})
		if a, ok := resp.(*wire.AggRangeResp); ok {
			return &wire.StatRangeResp{FromChunk: a.FromChunk, ToChunk: a.ToChunk, Windows: a.Windows}
		}
		return resp
	case *wire.AggRange:
		return r.aggRange(ctx, rt, m, *m)
	case *wire.ListStreams:
		return r.listStreams(ctx, rt)
	case *wire.Batch:
		return r.batch(ctx, rt, m)
	default:
		uuid, ok := wire.RoutingUUID(req)
		if !ok {
			return &wire.Error{Code: wire.CodeBadRequest, Msg: "unsupported request type"}
		}
		return r.route(ctx, rt, uuid, req)
	}
}

func canceled(err error) *wire.Error {
	return &wire.Error{Code: wire.CodeCanceled, Msg: "cluster: " + err.Error()}
}

// awaitFanout waits for a fan-out wave to finish or the caller to give up,
// whichever comes first. It returns nil once all goroutines have completed,
// or the cancellation response to send while stragglers (which received the
// same ctx and will abort on their own) are abandoned.
func awaitFanout(ctx context.Context, wg *sync.WaitGroup) *wire.Error {
	if ctx.Done() == nil {
		// Not cancelable (the in-process hot path): skip the waiter
		// goroutine and channel.
		wg.Wait()
		return nil
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return canceled(ctx.Err())
	}
}

// route dispatches a single-stream request. A migrating stream's requests
// pass through its move gate: admitted (to the source) during the copy
// phase, held for the brief final drain, and forwarded to the destination
// once it holds the authoritative copy — so writes are never lost and
// reads never see a half-copied stream.
func (r *Router) route(ctx context.Context, rt *routing, uuid string, req wire.Message) wire.Message {
	if ms := r.moveOf(uuid); ms != nil {
		ms.gate.RLock()
		defer ms.gate.RUnlock()
		if ms.forwarded.Load() {
			return r.dispatch(ms.dst, ctx, req)
		}
		return r.dispatch(ms.src, ctx, req)
	}
	return r.dispatch(rt.shards[rt.ring.Owner(uuid)], ctx, req)
}

// dispatch hands a directly routed request to a shard, counting it.
func (r *Router) dispatch(s *shardState, ctx context.Context, req wire.Message) wire.Message {
	s.requests.Add(1)
	resp := s.handler.Handle(ctx, req)
	if _, isErr := resp.(*wire.Error); isErr {
		s.errors.Add(1)
	}
	return resp
}

// fanout sends one sub-request to a shard, counting it against the shard's
// fan-out and error totals.
func (r *Router) fanout(ctx context.Context, s *shardState, req wire.Message) wire.Message {
	s.fanouts.Add(1)
	resp := s.handler.Handle(ctx, req)
	if _, isErr := resp.(*wire.Error); isErr {
		s.errors.Add(1)
	}
	return resp
}

// reclaimTombstone asks the current ring owner of uuid to clear a stale
// migration tombstone (moveEpoch at or below our ring's epoch, so the
// ring's ownership claim is at least as fresh as the move that left the
// tombstone). No-op while the stream is mid-move here or while our ring
// lags the move.
func (r *Router) reclaimTombstone(ctx context.Context, uuid string, moveEpoch uint64) {
	rt := r.rt.Load()
	if moveEpoch > rt.epoch || r.moveOf(uuid) != nil {
		return
	}
	s := rt.shards[rt.ring.Owner(uuid)]
	r.fanout(ctx, s, &wire.HandoffComplete{UUID: uuid, Epoch: rt.epoch, Action: wire.HandoffReclaim})
}

// effectiveShard resolves where a stream's requests should go right now:
// the migration destination once forwarding started, the ring owner
// otherwise. It does not take the move gate: multi-stream queries hold
// their members' gates (shardGroups) around it; the subscription path
// does not, so a racing handoff there can surface CodeWrongShard — which
// the top-level retry absorbs.
func (r *Router) effectiveShard(rt *routing, uuid string) *shardState {
	if ms := r.moveOf(uuid); ms != nil {
		if ms.forwarded.Load() {
			return ms.dst
		}
		return ms.src
	}
	return rt.shards[rt.ring.Owner(uuid)]
}

// gather runs one fan-out wave: fn(0) … fn(n-1) concurrently, answers in
// index order. If the caller gives up first it returns the cancellation
// response instead; the stragglers received the same ctx and abort on
// their own, and their answers are dropped.
func gather(ctx context.Context, n int, fn func(i int) wire.Message) ([]wire.Message, *wire.Error) {
	resps := make([]wire.Message, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			resps[i] = fn(i)
		}()
	}
	if e := awaitFanout(ctx, &wg); e != nil {
		return nil, e
	}
	return resps, nil
}

// listStreams merges the stream listings of every shard.
func (r *Router) listStreams(ctx context.Context, rt *routing) wire.Message {
	resps, e := gather(ctx, len(rt.order), func(i int) wire.Message {
		return r.fanout(ctx, rt.shards[rt.order[i]], &wire.ListStreams{})
	})
	if e != nil {
		return e
	}
	var uuids []string
	for _, resp := range resps {
		switch m := resp.(type) {
		case *wire.ListStreamsResp:
			uuids = append(uuids, m.UUIDs...)
		case *wire.Error:
			return m
		default:
			return &wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("cluster: unexpected listing response %T", resp)}
		}
	}
	sort.Strings(uuids)
	return &wire.ListStreamsResp{UUIDs: uuids}
}

// movedBatchKey marks a batch partition group that must route through the
// per-request move gate: the prefix cannot collide with shard names
// (which are printable).
const movedBatchKey = "\x00mv:"

// batch splits a pipelined batch by owning shard, forwards one sub-batch
// per shard concurrently (per-stream request order is preserved inside each
// sub-batch), and reassembles the responses in request order. Sub-requests
// that themselves fan out (multi-stream StatRange, ListStreams) are
// dispatched individually, and sub-requests for a migrating stream route
// one by one through the stream's move gate (in batch order), so pipelined
// writes keep landing on whichever side is authoritative.
func (r *Router) batch(ctx context.Context, rt *routing, b *wire.Batch) wire.Message {
	resps := make([]wire.Message, len(b.Reqs))
	p := wire.PartitionBatch(b.Reqs, func(m wire.Message) (string, bool) {
		uuid, ok := wire.RoutingUUID(m)
		if !ok {
			return "", false
		}
		if r.moveOf(uuid) != nil {
			return movedBatchKey + uuid, true
		}
		return rt.ring.Owner(uuid), true
	})
	for _, i := range p.Nested {
		resps[i] = &wire.Error{Code: wire.CodeBadRequest, Msg: "nested batch envelope"}
	}
	var wg sync.WaitGroup
	for _, owner := range p.Order {
		idxs := p.Groups[owner]
		if uuid, moved := strings.CutPrefix(owner, movedBatchKey); moved {
			wg.Add(1)
			go func(uuid string, idxs []int) {
				defer wg.Done()
				for _, i := range idxs {
					resps[i] = r.route(ctx, rt, uuid, b.Reqs[i])
				}
			}(uuid, idxs)
			continue
		}
		s := rt.shards[owner]
		wg.Add(1)
		go func(s *shardState, idxs []int) {
			defer wg.Done()
			sub := &wire.Batch{Reqs: make([]wire.Message, len(idxs))}
			for k, i := range idxs {
				sub.Reqs[k] = b.Reqs[i]
			}
			s.requests.Add(uint64(len(idxs)))
			resp := s.handler.Handle(ctx, sub)
			switch m := resp.(type) {
			case *wire.BatchResp:
				if len(m.Resps) != len(idxs) {
					e := &wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf(
						"cluster: shard %s answered %d of %d batch elements", s.name, len(m.Resps), len(idxs))}
					for _, i := range idxs {
						resps[i] = e
					}
					s.errors.Add(1)
					return
				}
				for k, i := range idxs {
					resps[i] = m.Resps[k]
					if _, isErr := m.Resps[k].(*wire.Error); isErr {
						s.errors.Add(1)
					}
				}
			case *wire.Error:
				s.errors.Add(1)
				for _, i := range idxs {
					resps[i] = m
				}
			default:
				s.errors.Add(1)
				e := &wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("cluster: unexpected batch response %T", resp)}
				for _, i := range idxs {
					resps[i] = e
				}
			}
		}(s, idxs)
	}
	for _, i := range p.Singles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The caller (batch dispatch) holds the routeMu read side;
			// sub-dispatch must not re-acquire it (a recursive read lock
			// deadlocks against a pending barrier). A goroutine abandoned
			// by a canceled batch can outlive the lock, but its write was
			// never acknowledged, so the migration barrier's
			// acked-writes-survive guarantee is unaffected.
			resps[i] = r.dispatchLocked(ctx, rt, b.Reqs[i])
		}(i)
	}
	if e := awaitFanout(ctx, &wg); e != nil {
		return e
	}
	return &wire.BatchResp{Resps: resps}
}

// shardGroups partitions a query's stream set by the shard currently
// serving each stream (migration-aware), preserving first-seen order. Like
// route, it passes the move gate of every migrating member: the read sides
// stay held until release is called, so no handoff completes between
// grouping and the fan-out (which would send a sub-query to a source that
// already let go). Gates are taken in UUID order, one per distinct stream.
func (r *Router) shardGroups(rt *routing, uuids []string) (order []string, groups map[string][]string, states map[string]*shardState, release func()) {
	var held []*moveState
	if r.movesActive.Load() != 0 {
		distinct := append([]string(nil), uuids...)
		sort.Strings(distinct)
		for i, uuid := range distinct {
			if i > 0 && uuid == distinct[i-1] {
				continue
			}
			if ms := r.moveOf(uuid); ms != nil {
				ms.gate.RLock()
				held = append(held, ms)
			}
		}
	}
	release = func() {
		for _, ms := range held {
			ms.gate.RUnlock()
		}
	}
	groups = make(map[string][]string)
	states = make(map[string]*shardState)
	for _, uuid := range uuids {
		s := r.effectiveShard(rt, uuid)
		if _, seen := groups[s.name]; !seen {
			order = append(order, s.name)
			states[s.name] = s
		}
		groups[s.name] = append(groups[s.name], uuid)
	}
	return order, groups, states, release
}

// memberInfos is the router's one StreamInfo pass over a multi-stream
// query's members: it fetches the StreamInfo of every distinct member
// (a UUID may repeat) concurrently from the shard serving it, and returns
// the distinct members in first-seen order with their answers.
func (r *Router) memberInfos(ctx context.Context, rt *routing, uuids []string) ([]string, []*wire.StreamInfoResp, *wire.Error) {
	unique := make([]string, 0, len(uuids))
	seen := make(map[string]bool, len(uuids))
	for _, uuid := range uuids {
		if !seen[uuid] {
			seen[uuid] = true
			unique = append(unique, uuid)
		}
	}
	// Counted as fan-out traffic: these are internal sub-requests of the
	// cross-shard query, not directly routed client requests.
	resps, e := gather(ctx, len(unique), func(i int) wire.Message {
		return r.fanout(ctx, r.effectiveShard(rt, unique[i]), &wire.StreamInfo{UUID: unique[i]})
	})
	if e != nil {
		return nil, nil, e
	}
	infos := make([]*wire.StreamInfoResp, len(resps))
	for i, resp := range resps {
		switch m := resp.(type) {
		case *wire.StreamInfoResp:
			infos[i] = m
		case *wire.Error:
			return nil, nil, m
		default:
			return nil, nil, &wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("cluster: unexpected info response %T", resp)}
		}
	}
	return unique, infos, nil
}

// clampMulti pins a multi-stream query's range across shards: the engine
// clamps multi-stream queries to the shortest stream, and the router must
// preserve that, so every shard is handed the same clamped te. It returns
// the clamped te, or the error response.
func (r *Router) clampMulti(ctx context.Context, rt *routing, uuids []string, ts, te int64) (int64, *wire.Error) {
	unique, infos, e := r.memberInfos(ctx, rt, uuids)
	if e != nil {
		return 0, e
	}
	epoch, interval, minCount, e := server.FoldStreamInfos(unique, infos)
	if e != nil {
		return 0, e
	}
	if minCount == 0 {
		return 0, &wire.Error{Code: wire.CodeBadRequest, Msg: "server: no common ingested range across streams"}
	}
	reqTe := te
	if maxTe := epoch + int64(minCount)*interval; te > maxTe {
		te = maxTe
	}
	if te <= ts {
		// Report the range the caller actually asked for, not the
		// clamped (possibly inverted) one.
		return 0, &wire.Error{Code: wire.CodeBadRequest, Msg: fmt.Sprintf("server: no ingested chunks in range [%d,%d)", ts, reqTe)}
	}
	return te, nil
}

// sumWindows folds one shard's partial window vectors into the merged
// aggregate (element-wise modular addition); the shards computed over the
// same clamped range, so any shape disagreement is an internal error.
func sumWindows(merged, part [][]uint64) *wire.Error {
	for w := range merged {
		if len(part[w]) != len(merged[w]) {
			return &wire.Error{Code: wire.CodeInternal, Msg: "cluster: shard window vectors disagree"}
		}
		for x := range merged[w] {
			merged[w][x] += part[w][x]
		}
	}
	return nil
}

// aggRange routes a query plan q, which req carries on the wire (an
// AggRange, or a StatRange as the plan that keeps full vectors). The
// stream set is split by serving shard, each shard homomorphically sums
// (and projects) its own members' digests, and the router combines the
// partial ciphertext aggregates shard-side — the combine tree mirrors the
// cluster topology, so a 16-stream plan over 4 shards costs 4
// sub-aggregations plus 3 vector additions here, not 16 round trips at the
// client. A plan whose members all live on one shard is that shard's to
// answer: it gets req itself, under the members' move gates.
//
// The fan-out is optimistic: the first wave ships the caller's raw range
// and every shard clamps to its own streams; when all shards report the
// same chunk range — the common case, populations ingesting in step — the
// partials combine directly and the query cost one wave. Only on
// disagreement (or a shard-local clamp error) does the router fall back
// to the StreamInfo pass that computes the globally clamped range and
// re-fan out pinned to it.
func (r *Router) aggRange(ctx context.Context, rt *routing, req wire.Message, q wire.AggRange) wire.Message {
	if len(q.UUIDs) == 0 {
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "server: no streams given"}
	}
	order, groups, states, release := r.shardGroups(rt, q.UUIDs)
	defer release()
	if len(order) == 1 {
		return r.dispatch(states[order[0]], ctx, req)
	}
	if resp, ok := r.aggWave(ctx, order, groups, states, q, q.Te); ok {
		return resp
	}
	// Shards disagreed (uneven ingest) or one failed its local clamp:
	// compute the common range and retry with every shard pinned to it.
	te, e := r.clampMulti(ctx, rt, q.UUIDs, q.Ts, q.Te)
	if e != nil {
		return e
	}
	resp, _ := r.aggWave(ctx, order, groups, states, q, te)
	return resp
}

// aggWave runs one fan-out wave of plan q with the given end bound and
// merges the shard partials. ok = false reports a recoverable
// disagreement — the shards clamped to different ranges (or one failed
// its local clamp) and the caller should retry with a pinned common
// range. Cancellation and non-range errors return ok = true; retrying
// cannot help those.
func (r *Router) aggWave(ctx context.Context, order []string, groups map[string][]string, states map[string]*shardState, q wire.AggRange, te int64) (wire.Message, bool) {
	resps, e := gather(ctx, len(order), func(i int) wire.Message {
		return r.fanout(ctx, states[order[i]], &wire.AggRange{
			UUIDs: groups[order[i]], Ts: q.Ts, Te: te, WindowChunks: q.WindowChunks, Elems: q.Elems})
	})
	if e != nil {
		return e, true
	}

	var merged *wire.AggRangeResp
	for _, resp := range resps {
		part, ok := resp.(*wire.AggRangeResp)
		if !ok {
			if e, isErr := resp.(*wire.Error); isErr {
				// A bad-request from one shard may just be its local
				// clamp finding no data in the optimistic range; the
				// pinned retry resolves whether the query is really
				// empty.
				return e, e.Code != wire.CodeBadRequest
			}
			return &wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("cluster: unexpected aggregate response %T", resp)}, true
		}
		if merged == nil {
			merged = &wire.AggRangeResp{FromChunk: part.FromChunk, ToChunk: part.ToChunk,
				Epoch: part.Epoch, Interval: part.Interval,
				StreamCount: part.StreamCount, Windows: part.Windows}
			continue
		}
		if part.Epoch != merged.Epoch || part.Interval != merged.Interval {
			// Two shards clamped possibly-identical chunk ranges over
			// DIFFERENT time geometries: the member streams do not form a
			// combinable set. Never sum these; the StreamInfo pass
			// produces the canonical bad-request naming the offenders.
			return &wire.Error{Code: wire.CodeBadRequest,
				Msg: "cluster: member stream geometries differ"}, false
		}
		if part.FromChunk != merged.FromChunk || part.ToChunk != merged.ToChunk || len(part.Windows) != len(merged.Windows) {
			// Shards clamped differently: uneven ingest across the
			// population, recoverable by pinning the common range.
			return &wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf(
				"cluster: shard windows disagree ([%d,%d)x%d vs [%d,%d)x%d)",
				part.FromChunk, part.ToChunk, len(part.Windows),
				merged.FromChunk, merged.ToChunk, len(merged.Windows))}, false
		}
		merged.StreamCount += part.StreamCount
		if e := sumWindows(merged.Windows, part.Windows); e != nil {
			return e, true
		}
	}
	return merged, true
}
