package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/wire"
)

// Handler dispatches one protocol request to a response. It is the
// transport-independent server contract: *Engine implements it directly,
// and cluster routers implement it by delegating to the owning engine
// shard. Anything that implements Handler can be served by the TCP front
// end or driven in-process by a client transport.
//
// The context carries the caller's cancellation and deadline — over TCP the
// deadline arrives in the request envelope — and implementations abandon
// work once it fires, answering wire.CodeCanceled.
//
// Implementations must be safe for concurrent use and must respond to
// failures with *wire.Error rather than panicking.
type Handler interface {
	Handle(ctx context.Context, req wire.Message) wire.Message
}

// Handle dispatches one protocol request and returns its response. It is
// the transport-independent entry point used both by the TCP front end and
// by in-process clients (benchmarks exercise the full message codec either
// way).
func (e *Engine) Handle(ctx context.Context, req wire.Message) wire.Message {
	return e.Apply(ctx, req, nil)
}

// Apply is Handle that exposes the engine's per-stream order. A mutation
// that names a stream runs under the order lock of the UUID's table entry
// (a bare one if this shard serves no such stream, as for most migration
// messages), from its fence check through its store write, and if it
// succeeds (its response is not a *wire.Error) then runs before the lock
// is let go: what then records is ordered as the stream's mutations
// applied. A batch of one stream holds
// that lock across the batch and then; any other batch, like a mutation
// naming no stream, runs then after everything, under no stream's lock.
func (e *Engine) Apply(ctx context.Context, req wire.Message, then func()) wire.Message {
	if err := ctx.Err(); err != nil {
		return WireError(err)
	}
	if b, ok := req.(*wire.Batch); ok {
		return e.handleBatch(ctx, b, then)
	}
	var h held
	if uuid, ok := wire.RoutingUUID(req); ok && wire.KindOf(req) == wire.KindMutation {
		h = e.lockOrder(uuid)
		defer e.unlockOrder(&h)
	}
	resp := e.dispatch(ctx, &h, req)
	if _, failed := resp.(*wire.Error); !failed && then != nil {
		then()
	}
	return resp
}

// dispatch answers one non-batch request. A mutation naming a stream runs
// with h holding that stream's order lock.
func (e *Engine) dispatch(ctx context.Context, h *held, req wire.Message) wire.Message {
	if err := ctx.Err(); err != nil {
		return WireError(err)
	}
	if _, fenced := wire.FencedUUID(req); fenced {
		if errMsg := checkFence(ctx, h); errMsg != nil {
			return errMsg
		}
	}
	switch m := req.(type) {
	case *wire.CreateStream:
		return respond(e.createStream(h, m.Cfg))
	case *wire.DeleteStream:
		return respond(e.deleteStream(h))
	case *wire.InsertChunk:
		return respond(e.insertChunks(h, [][]byte{m.Chunk})[0])
	case *wire.GetRange:
		chunks, err := e.GetRange(ctx, m.UUID, m.Ts, m.Te)
		if err != nil {
			return WireError(err)
		}
		return &wire.GetRangeResp{Chunks: chunks}
	case *wire.StatRange:
		from, to, windows, err := e.StatRange(ctx, m.UUIDs, m.Ts, m.Te, m.WindowChunks)
		if err != nil {
			return WireError(err)
		}
		return &wire.StatRangeResp{FromChunk: from, ToChunk: to, Windows: windows}
	case *wire.AggRange:
		resp, err := e.AggRange(ctx, m.UUIDs, m.Ts, m.Te, m.WindowChunks, m.Elems)
		if err != nil {
			return WireError(err)
		}
		return resp
	case *wire.StreamCredit:
		// Credit is connection-level flow control, consumed by the TCP
		// front end's read loop; reaching a handler means a transport
		// without streams (e.g. in-process) was handed one.
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "server: stream credit outside a streaming connection"}
	case *wire.Subscribe, *wire.Unsubscribe:
		// Subscriptions are push streams; like credit they only make
		// sense on a streaming connection, where the read loop routes
		// them before reaching a handler.
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "server: subscription outside a streaming connection"}
	case *wire.DeleteRange:
		return respond(e.deleteRange(ctx, h, m.Ts, m.Te))
	case *wire.Rollup:
		return respond(e.rollup(ctx, h, m.Factor, m.Ts, m.Te))
	case *wire.PutGrant:
		return respond(e.putGrant(h, m.Principal, m.GrantID, m.Blob))
	case *wire.GetGrants:
		blobs, err := e.GetGrants(m.UUID, m.Principal)
		if err != nil {
			return WireError(err)
		}
		return &wire.GetGrantsResp{Blobs: blobs}
	case *wire.DeleteGrant:
		return respond(e.deleteGrant(h, m.Principal, m.GrantID))
	case *wire.PutEnvelopes:
		return respond(e.putEnvelopes(h, m.Factor, m.Envs))
	case *wire.GetEnvelopes:
		envs, err := e.GetEnvelopes(m.UUID, m.Factor, m.Lo, m.Hi)
		if err != nil {
			return WireError(err)
		}
		return &wire.GetEnvelopesResp{Envs: envs}
	case *wire.StageRecord:
		return respond(e.stageRecord(h, m.ChunkIndex, m.Seq, m.Box))
	case *wire.GetStaged:
		boxes, err := e.GetStaged(m.UUID, m.ChunkIndex)
		if err != nil {
			return WireError(err)
		}
		return &wire.GetStagedResp{Boxes: boxes}
	case *wire.StreamInfo:
		cfg, count, err := e.StreamInfo(m.UUID)
		if err != nil {
			return WireError(err)
		}
		return &wire.StreamInfoResp{Cfg: cfg, Count: count}
	case *wire.ListStreams:
		return &wire.ListStreamsResp{UUIDs: e.ListStreams()}
	case *wire.StreamSnapshot:
		page, err := e.SnapshotStream(ctx, m)
		if err != nil {
			return WireError(err)
		}
		return page
	case *wire.IngestSnapshot:
		return respond(e.ingestSnapshot(h, m.Items))
	case *wire.HandoffComplete:
		return respond(e.handoffComplete(h, m.Epoch, m.Action))
	case *wire.TopologyInfo:
		epoch, members := e.Topology()
		return &wire.TopologyInfoResp{Epoch: epoch, Members: members}
	case *wire.TopologyUpdate:
		return respond(e.SetTopology(m.Epoch, m.Members))
	case *wire.LeaseInfo:
		// A bare engine has no replication group; a replica.Node wrapping
		// it intercepts this request and reports its real role.
		return &wire.LeaseInfoResp{Role: wire.ReplStandalone}
	case *wire.ReplAppend, *wire.ReplSnapshot, *wire.Promote:
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "server: replication is not configured on this node"}
	case *wire.Reshard:
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "server: reshard is a routing-tier operation; send it to a cluster router"}
	default:
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "unsupported request type"}
	}
}

// handleBatch executes a batch's sub-requests: requests for the same stream
// run sequentially in batch order (chunk inserts must stay ordered), while
// different streams proceed concurrently. The response carries one element
// per sub-request, in order; then runs as Apply describes.
func (e *Engine) handleBatch(ctx context.Context, b *wire.Batch, then func()) wire.Message {
	resps := make([]wire.Message, len(b.Reqs))
	p := wire.PartitionBatch(b.Reqs, wire.RoutingUUID)
	for _, i := range p.Nested {
		resps[i] = &wire.Error{Code: wire.CodeBadRequest, Msg: "nested batch envelope"}
	}
	if len(p.Order) == 1 && len(p.Singles) == 0 {
		e.runGroup(ctx, p.Order[0], b.Reqs, p.Groups[p.Order[0]], resps, then)
		return &wire.BatchResp{Resps: resps}
	}
	var wg sync.WaitGroup
	run := func(uuid string, idxs []int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.runGroup(ctx, uuid, b.Reqs, idxs, resps, nil)
		}()
	}
	for _, uuid := range p.Order {
		run(uuid, p.Groups[uuid])
	}
	for _, i := range p.Singles {
		wg.Add(1)
		go func() { // keyless: no order lock, a goroutine each
			defer wg.Done()
			resps[i] = e.dispatch(ctx, &held{}, b.Reqs[i])
		}()
	}
	wg.Wait()
	if then != nil {
		then()
	}
	return &wire.BatchResp{Resps: resps}
}

// runGroup runs one stream's sub-requests (reqs[idxs]) in batch order,
// holding its order lock across them and then if any is a mutation. Runs
// of chunk inserts take the batched ingest path: one index root-path
// update for the whole run, with per-sub-request results preserved.
func (e *Engine) runGroup(ctx context.Context, uuid string, reqs []wire.Message, idxs []int, resps []wire.Message, then func()) {
	mutates := false
	for _, i := range idxs {
		mutates = mutates || wire.KindOf(reqs[i]) == wire.KindMutation
	}
	var h held
	if mutates {
		h = e.lockOrder(uuid)
		defer e.unlockOrder(&h)
	}
	for x := 0; x < len(idxs); {
		if _, ok := reqs[idxs[x]].(*wire.InsertChunk); !ok {
			resps[idxs[x]] = e.dispatch(ctx, &h, reqs[idxs[x]])
			x++
			continue
		}
		y := x
		var blobs [][]byte
		for ; y < len(idxs); y++ {
			ic, ok := reqs[idxs[y]].(*wire.InsertChunk)
			if !ok {
				break
			}
			blobs = append(blobs, ic.Chunk)
		}
		if errMsg := checkFence(ctx, &h); errMsg != nil {
			for k := range blobs {
				resps[idxs[x+k]] = errMsg
			}
		} else {
			for k, err := range e.insertChunks(&h, blobs) {
				resps[idxs[x+k]] = respond(err)
			}
		}
		x = y
	}
	if then != nil {
		then()
	}
}

func respond(err error) wire.Message {
	if err != nil {
		return WireError(err)
	}
	return &wire.OK{}
}

// WireError maps an engine error onto the protocol's error message. It is
// exported for Handler implementations outside this package (the cluster
// router) so routed and fanned-out failures carry the same codes a single
// engine would produce.
func WireError(err error) *wire.Error {
	if e, ok := err.(*wire.Error); ok {
		return e
	}
	var moved *movedError
	if errors.As(err, &moved) {
		return &wire.Error{Code: wire.CodeWrongShard, Aux: moved.epoch, Msg: moved.Error()}
	}
	code := wire.CodeInternal
	msg := err.Error()
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = wire.CodeCanceled
	case errors.Is(err, errStreamNotFound):
		code = wire.CodeNotFound
	case strings.Contains(msg, "already exists"):
		code = wire.CodeExists
	case strings.Contains(msg, "out of order"), strings.Contains(msg, "range"),
		strings.Contains(msg, "empty"), strings.Contains(msg, "must be"),
		strings.Contains(msg, "geometry differs"), strings.Contains(msg, "no data"):
		code = wire.CodeBadRequest
	}
	return &wire.Error{Code: code, Msg: msg}
}

// DefaultMaxConnInFlight is the default per-connection bound on
// concurrently executing requests. It matches the client session's default
// window, so a default client never trips the cap: a unary request's slot
// is free again before the first byte of its response is written (see
// respFrame.slot), so the request a client sends on receiving a response
// always finds the slot that response held.
const DefaultMaxConnInFlight = 64

// Server is the TCP front end: per connection, a read loop dispatches each
// decoded request frame to a bounded worker pool and a write pump
// serializes the response frames back, so many requests execute
// concurrently on one connection and responses return out of order, each
// tagged with its request's correlation ID. Requests sharing a routing key
// (stream UUID) preserve arrival order — chunk inserts must stay ordered —
// while everything else overlaps. Every request gets one response frame
// except wire.Subscribe, whose events are pushed under its correlation ID.
// It serves any Handler — a single engine or a cluster router.
type Server struct {
	handler Handler
	logf    func(format string, args ...any)

	// MaxConnInFlight bounds the requests concurrently in flight per
	// connection (executing or queued behind a same-stream predecessor),
	// so a hostile or buggy client cannot spawn unbounded handler
	// goroutines; overflow is answered with wire.CodeBusy. <= 0 means
	// DefaultMaxConnInFlight. Set before Serve.
	MaxConnInFlight int

	mu    sync.Mutex
	lis   net.Listener
	conns map[net.Conn]struct{}
	done  chan struct{}
}

// NewServer wraps a request handler (an *Engine or a cluster router). logf
// defaults to log.Printf; pass a no-op to silence connection errors in
// tests.
func NewServer(handler Handler, logf func(format string, args ...any)) *Server {
	if logf == nil {
		logf = log.Printf
	}
	return &Server{handler: handler, logf: logf, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
}

// Serve accepts connections until the listener closes or ctx is cancelled.
func (s *Server) Serve(ctx context.Context, lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	go func() {
		select {
		case <-ctx.Done():
			lis.Close()
		case <-s.done:
		}
	}()
	for {
		conn, err := lis.Accept()
		if err != nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-s.done:
				return nil
			default:
				return err
			}
		}
		s.track(conn, true)
		go s.serveConn(ctx, conn)
	}
}

func (s *Server) track(conn net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

// Close stops accepting and closes all connections.
func (s *Server) Close() error {
	close(s.done)
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.lis != nil {
		err = s.lis.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	return err
}

// respFrame is one outbound response envelope queued for the write pump.
type respFrame struct {
	id   uint64
	more bool
	msg  wire.Message
	// slot is set on a request's last frame (a unary response, or a
	// subscription's final frame): the scheduler whose in-flight slot the
	// request still holds while the frame waits in the queue. The write
	// pump frees it before writing the frame. Freeing it only when
	// the worker returns — after the queue send — lets the client see the
	// response, reuse its window slot and get the next request refused
	// CodeBusy before the worker has run on; freeing it before the queue
	// send would let a client that does not read its responses pile up
	// workers blocked on a full queue, which is what the cap exists to
	// prevent.
	slot *connSched
}

func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	defer func() {
		conn.Close()
		s.track(conn, false)
	}()
	// connCtx parents every request on this connection: when the read
	// loop exits (client gone), in-flight handlers abort rather than
	// grinding on for a peer that will never see the response.
	connCtx, connCancel := context.WithCancel(ctx)
	defer connCancel()

	limit := s.MaxConnInFlight
	if limit <= 0 {
		limit = DefaultMaxConnInFlight
	}
	sched := newConnSched(limit)
	flows := newConnFlows()
	out := make(chan respFrame, limit)
	writerDone := make(chan struct{})
	go s.writePump(conn, out, writerDone)

	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		// Pooled frame read (decode-then-release): request decoders copy
		// every field they retain, so the buffer is back in the pool
		// before the handler runs.
		var (
			id        uint64
			timeoutMS int64
			epoch     uint64
			req       wire.Message
		)
		fb, err := wire.ReadFrameBuf(br)
		if err == nil {
			id, timeoutMS, epoch, req, err = wire.DecodeRequest(fb.Bytes())
			fb.Release()
		}
		if err != nil {
			if errors.Is(err, wire.ErrProtoVersion) {
				// Version negotiation, the loud way: name the version we
				// speak in a parseable error frame before hanging up.
				out <- respFrame{id: 0, msg: &wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()}}
			} else if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) {
				s.logf("timecrypt: connection %s: %v", conn.RemoteAddr(), err)
			}
			break
		}
		if credit, ok := req.(*wire.StreamCredit); ok {
			// Flow control, not a request: it consumes no in-flight slot
			// and earns no response. Credit for a stream that already
			// finished (or never existed) is stale, not hostile — drop it.
			flows.grant(credit.ID, credit.Pages)
			continue
		}
		if unsub, ok := req.(*wire.Unsubscribe); ok {
			// Unsubscribe is the subscription flavor of a zero-page
			// credit grant: abandon the named push stream. Stale or
			// hostile IDs fall off the same unknown-ID path as credit.
			flows.grant(unsub.ID, 0)
			continue
		}
		if snap, ok := req.(*wire.StreamSnapshot); ok && snap.Push {
			// Pushed exports are retired. A one-page answer would read to
			// an older router as the whole export and silently truncate
			// the move, so refuse it without running anything.
			out <- respFrame{id: id, msg: &wire.Error{Code: wire.CodeBadRequest, Msg: "server: pushed stream export is not supported; page with StreamSnapshot.Cursor"}}
			continue
		}
		if !sched.tryAcquire() {
			// The connection already has MaxConnInFlight requests
			// executing or queued: refuse rather than let one client
			// grow an unbounded goroutine pile.
			out <- respFrame{id: id, msg: &wire.Error{Code: wire.CodeBusy, Msg: fmt.Sprintf(
				"server: connection has %d requests in flight", limit)}}
			continue
		}
		// The request envelope carries the caller's remaining time budget
		// (relative, so client/server clock skew cannot spuriously expire
		// it); reconstruct a deadline so engines and routers abort
		// abandoned work server-side.
		reqCtx := connCtx
		cancel := context.CancelFunc(func() {})
		if timeoutMS > 0 {
			reqCtx, cancel = context.WithTimeout(connCtx, time.Duration(timeoutMS)*time.Millisecond)
		}
		// The sender's epoch (v6 envelope) rides the request context down
		// to the engine's write-fence check.
		reqCtx = wire.ContextWithEpoch(reqCtx, epoch)
		if subReq, ok := req.(*wire.Subscribe); ok {
			// Live subscription: an open-ended push stream under this
			// correlation ID. Same-stream ordering holds through the
			// handshake (a single-stream Subscribe routes by its UUID),
			// then the chain link releases — an open-ended stream must
			// not park later writes.
			flow := flows.register(id)
			key, _ := wire.RoutingUUID(req)
			sched.runReleasing(key, func(release func()) {
				defer cancel()
				defer flows.unregister(id)
				s.streamSubscription(reqCtx, id, flow, subReq, out, sched, release)
			})
			continue
		}
		if qs, ok := req.(*wire.QueryStream); ok {
			// Retired push query, answered in one frame: a client's Stream
			// reads a final non-OK frame as the last page, then EOF. (An
			// AggRange's PageWindows needs no arm: handlers ignore it.)
			req = &wire.StatRange{UUIDs: []string{qs.UUID}, Ts: qs.Ts, Te: qs.Te, WindowChunks: qs.WindowChunks}
		}
		key, _ := wire.RoutingUUID(req)
		sched.runHolding(key, func() {
			defer cancel()
			out <- respFrame{id: id, msg: s.handler.Handle(reqCtx, req), slot: sched}
		})
	}
	// Unblock in-flight handlers, wait them out, then retire the write
	// pump (workers hold references to out until sched.wait returns).
	connCancel()
	sched.wait()
	close(out)
	<-writerDone
}

// writePump serializes response frames onto the socket, flushing whenever
// the queue runs dry. After a write error it keeps draining (discarding)
// so workers blocked on the queue always unwind.
func (s *Server) writePump(conn net.Conn, out chan respFrame, done chan struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(conn, 64<<10)
	broken := false
	for f := range out {
		if f.slot != nil {
			f.slot.free()
		}
		if broken {
			continue
		}
		if err := wire.WriteResponse(bw, f.id, f.more, f.msg); err != nil {
			s.logf("timecrypt: writing to %s: %v", conn.RemoteAddr(), err)
			broken = true
			conn.Close() // force the read loop to notice
			continue
		}
		if len(out) == 0 {
			if err := bw.Flush(); err != nil {
				broken = true
				conn.Close()
			}
		}
	}
}

// connSched is the per-connection scheduler: a bounded pool of worker
// goroutines with per-routing-key ordering. Requests sharing a key (stream
// UUID, including uniform ingest batches) run in arrival order by chaining
// each on its predecessor's completion; keyless requests (fan-outs) run
// unordered. The in-flight cap counts queued-behind-predecessor work too,
// so a slow stream cannot hide unbounded goroutines.
type connSched struct {
	sem chan struct{}
	wg  sync.WaitGroup

	mu    sync.Mutex
	tails map[string]chan struct{} // routing key -> completion of latest request
}

func newConnSched(limit int) *connSched {
	return &connSched{sem: make(chan struct{}, limit), tails: make(map[string]chan struct{})}
}

// tryAcquire claims an in-flight slot; false means the connection is at
// its cap and the request must be refused.
func (cs *connSched) tryAcquire() bool {
	select {
	case cs.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// free returns an in-flight slot claimed by tryAcquire.
func (cs *connSched) free() { <-cs.sem }

// runHolding executes fn on a worker goroutine, after the previous request
// with the same non-empty key completes. The caller must have acquired a
// slot, and the slot stays claimed when fn returns: fn hands it on with its
// response (respFrame.slot) for the write pump to free.
func (cs *connSched) runHolding(key string, fn func()) {
	cs.runReleasing(key, func(func()) { fn() })
}

// runReleasing is for workers that can retire their ordering-chain link
// early: fn receives a release func that unblocks the next same-key
// request before fn itself returns. Subscriptions use it — they must
// order after same-stream writes that arrived first, but once registered,
// later same-stream requests have nothing to wait for (a flow-controlled
// stream may otherwise park for as long as its consumer feels like).
// release is idempotent and also runs when fn returns. As under runHolding,
// fn hands the in-flight slot on with its final frame.
func (cs *connSched) runReleasing(key string, fn func(release func())) {
	var prev, done chan struct{}
	release := func() {}
	if key != "" {
		done = make(chan struct{})
		cs.mu.Lock()
		prev = cs.tails[key]
		cs.tails[key] = done
		cs.mu.Unlock()
		var once sync.Once
		release = func() {
			once.Do(func() {
				close(done)
				cs.mu.Lock()
				if cs.tails[key] == done {
					delete(cs.tails, key)
				}
				cs.mu.Unlock()
			})
		}
	}
	cs.wg.Add(1)
	go func() {
		defer cs.wg.Done()
		defer release()
		if prev != nil {
			<-prev
		}
		fn(release)
	}()
}

// wait blocks until every dispatched request has finished.
func (cs *connSched) wait() { cs.wg.Wait() }

// FoldStreamInfos folds a multi-stream query's member metadata (infos[i]
// answers uuids[i]): the members must share epoch, interval and digest
// length, and the common ingested bound is the smallest chunk count. The
// refusal names the first member that differs, in the engine's words.
func FoldStreamInfos(uuids []string, infos []*wire.StreamInfoResp) (epoch, interval int64, count uint64, err *wire.Error) {
	first := infos[0].Cfg
	count = infos[0].Count
	for i, info := range infos[1:] {
		if info.Cfg.Epoch != first.Epoch || info.Cfg.Interval != first.Interval || info.Cfg.VectorLen != first.VectorLen {
			return 0, 0, 0, &wire.Error{Code: wire.CodeBadRequest, Msg: fmt.Sprintf(
				"server: stream %q geometry differs from %q (inter-stream queries need matching epoch/interval/digest)", uuids[i+1], uuids[0])}
		}
		count = min(count, info.Count)
	}
	return first.Epoch, first.Interval, count, nil
}

// streamSubscription serves one live subscription: it opens a sub.Handle
// through the handler's Subscriber capability and pushes its events as
// SubEvent frames under the request's correlation ID — the opening
// SubscribeResp and every event each cost one page of credit, so a
// consumer that stops draining parks exactly this subscription (and,
// because missed windows are recoverable from the index, the broker's
// bounded queue can drop behind its back without loss). The stream ends
// with an Error frame when the consumer unsubscribes, the view dies
// (resubscribe — possibly on another shard after a migration), or the
// connection's context ends; subscriptions have no natural OK.
func (s *Server) streamSubscription(ctx context.Context, id uint64, flow *streamFlow, req *wire.Subscribe, out chan<- respFrame, slot *connSched, release func()) {
	final := func(m wire.Message) { out <- respFrame{id: id, msg: m, slot: slot} }
	sb, ok := s.handler.(Subscriber)
	if !ok {
		release()
		final(&wire.Error{Code: wire.CodeBadRequest, Msg: "server: this handler does not support subscriptions"})
		return
	}
	// Bridge consumer abandonment into the context: a worker parked in
	// Recv waiting for the next window must unwind on Unsubscribe, not
	// at the next event.
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-flow.abandoned():
			cancel()
		case <-subCtx.Done():
		}
	}()
	h, err := sb.Subscribe(subCtx, req)
	if err != nil {
		release()
		final(WireError(err))
		return
	}
	defer h.Close()
	// Handshake done under same-stream ordering (writes that arrived
	// first are in the registration snapshot); the open-ended push loop
	// must not hold the ordering chain.
	release()
	if err := flow.acquire(subCtx); err != nil {
		final(WireError(err))
		return
	}
	out <- respFrame{id: id, more: true, msg: h.Resp()}
	for {
		if err := flow.acquire(subCtx); err != nil {
			final(WireError(err))
			return
		}
		ev, err := h.Recv(subCtx)
		if err != nil {
			final(WireError(err))
			return
		}
		out <- respFrame{id: id, more: true, msg: ev}
	}
}

// streamFlow is the server half of one stream's credit-based flow control:
// the worker spends one credit per pushed page and parks when the counter
// hits zero; the read loop tops it up from the consumer's StreamCredit
// frames (a zero-page grant abandons the stream).
type streamFlow struct {
	mu       sync.Mutex
	credit   uint64
	canceled bool
	wake     chan struct{} // buffered(1): signaled on grant or cancel
	// abandon closes when the consumer cancels the stream (zero-page
	// credit or Unsubscribe). A worker notices cancellation at its next
	// acquire; one parked waiting for the next window needs this level
	// trigger to unwind promptly.
	abandon chan struct{}
}

// abandoned closes when the consumer cancels the stream.
func (f *streamFlow) abandoned() <-chan struct{} { return f.abandon }

// acquire blocks until one page of credit is available, the consumer
// abandons the stream, or ctx fires.
func (f *streamFlow) acquire(ctx context.Context) error {
	for {
		f.mu.Lock()
		if f.canceled {
			f.mu.Unlock()
			return context.Canceled
		}
		if f.credit > 0 {
			f.credit--
			f.mu.Unlock()
			return nil
		}
		f.mu.Unlock()
		select {
		case <-f.wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// connFlows tracks the live push streams (subscriptions) of one
// connection by correlation ID.
type connFlows struct {
	mu sync.Mutex
	m  map[uint64]*streamFlow
}

func newConnFlows() *connFlows { return &connFlows{m: make(map[uint64]*streamFlow)} }

// register creates the flow entry for a new push stream with the
// protocol's initial credit.
func (cf *connFlows) register(id uint64) *streamFlow {
	f := &streamFlow{credit: wire.StreamInitialCredit, wake: make(chan struct{}, 1), abandon: make(chan struct{})}
	cf.mu.Lock()
	cf.m[id] = f
	cf.mu.Unlock()
	return f
}

func (cf *connFlows) unregister(id uint64) {
	cf.mu.Lock()
	delete(cf.m, id)
	cf.mu.Unlock()
}

// grant credits a stream with pages (0 = abandon). Unknown IDs are stale
// frames for finished streams and are dropped.
func (cf *connFlows) grant(id uint64, pages uint32) {
	cf.mu.Lock()
	f := cf.m[id]
	cf.mu.Unlock()
	if f == nil {
		return
	}
	f.mu.Lock()
	if pages == 0 {
		if !f.canceled {
			f.canceled = true
			close(f.abandon)
		}
	} else {
		f.credit += uint64(pages)
		if f.credit > wire.MaxStreamCredit {
			f.credit = wire.MaxStreamCredit
		}
	}
	f.mu.Unlock()
	select {
	case f.wake <- struct{}{}:
	default:
	}
}
