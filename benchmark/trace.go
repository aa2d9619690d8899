package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/wire"
)

// A boundary is a place where the benchmark's own decorators sit between
// two layers of the program. Spans are named after the boundary they were
// recorded at; a boundary's parent is the one a request crosses just before
// it (fixed per deployment, see parentOf).
type boundary uint8

const (
	bClient   boundary = iota // client.Transport, the caller's side of the wire
	bFront                    // the server.Handler given to the front-end server.NewServer
	bShard                    // a server.Handler behind the router (engine or group leader)
	bFollower                 // a follower replica.Node's server.Handler
	bStore                    // a kv.Store handed to server.New / replica.New
	nBoundaries
)

var boundaryNames = [nBoundaries]string{"client.transport", "front.handler", "shard.handler", "follower.handler", "kv.store"}

// parentOf names the boundary whose span caused a span at b.
func parentOf(b boundary) string {
	switch b {
	case bFront:
		return boundaryNames[bClient]
	case bShard:
		return boundaryNames[bFront]
	case bFollower, bStore:
		return boundaryNames[bShard]
	}
	return ""
}

// span is one crossing of a boundary. Spans of one request share key (a
// hash of the request's type, routing key and range), which is how the
// client-side and server-side spans of a request are joined afterwards.
type span struct {
	b          boundary
	kind       wire.MsgType
	owner      uint8 // which instance of the boundary (connection, shard, member)
	n          uint32
	key        uint64
	start, end int64 // ns since the tracer's origin
}

// tracer collects spans in memory while on; shims cost one atomic load
// while it is off, so one deployment serves the untraced and the traced
// window of a traced run.
type tracer struct {
	on     atomic.Bool
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns and clears the spans collected so far.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// writeSpans dumps spans as JSON lines (name, parent, request, start, end).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		err = enc.Encode(map[string]any{
			"name": boundaryNames[s.b], "parent": parentOf(s.b), "instance": s.owner,
			"msg": uint8(s.kind), "request": s.key, "start_ns": s.start, "end_ns": s.end,
		})
		if err != nil {
			break
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// classify says what a request is for the span tables: its kind, a key that
// is the same on both sides of the wire (a hash of kind, routing key and
// range), and how many sub-requests it carries. A wire.Batch of chunk
// inserts is an ingest batch (kind TBatch, n chunks); any other Batch — the
// query plans' batched StreamInfo — is filed under its first sub-request.
func classify(m wire.Message) (kind wire.MsgType, key uint64, n uint32) {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	str := func(s string) {
		for i := 0; i < len(s); i++ {
			mix(uint64(s[i]))
		}
	}
	kind, n = m.Type(), 1
	switch r := m.(type) {
	case *wire.Batch:
		if len(r.Reqs) == 0 {
			return kind, h, 0
		}
		sub, k, _ := classify(r.Reqs[0])
		if sub != wire.TInsertChunk {
			kind = sub
		}
		n = uint32(len(r.Reqs))
		mix(k)
	case *wire.InsertChunk:
		str(r.UUID)
		idx, _ := binary.Uvarint(r.Chunk) // sealed chunks lead with their index
		mix(idx)
	case *wire.StatRange:
		for _, u := range r.UUIDs {
			str(u)
		}
		mix(uint64(r.Ts))
		mix(uint64(r.Te))
		mix(r.WindowChunks)
	case *wire.AggRange:
		for _, u := range r.UUIDs {
			str(u)
		}
		mix(uint64(r.Ts))
		mix(uint64(r.Te))
	case *wire.GetRange:
		str(r.UUID)
		mix(uint64(r.Ts))
		mix(uint64(r.Te))
	case *wire.ReplAppend:
		mix(r.FirstSeq)
		n = uint32(len(r.Records))
	default:
		if u, ok := wire.RoutingUUID(m); ok {
			str(u)
		}
	}
	mix(uint64(kind))
	return kind, h, n
}

// ackSample is one acknowledged ingest batch as the untraced run sees it.
type ackSample struct {
	at      time.Time // when the acknowledgement arrived
	latency time.Duration
	chunks  int
	failed  bool
}

// timedTransport decorates a client.Transport. Untraced it does one thing:
// time every wire.Batch from submission to acknowledgement (the ack timer
// behind ingest_ack_*). Traced it also records a span per request and the
// per-stream number of batches in flight. It forwards Doer and Streamer, so
// the Writer keeps pipelining and cursors keep streaming.
type timedTransport struct {
	inner *client.TCP
	tr    *tracer
	owner uint8

	mu       sync.Mutex
	acks     []ackSample
	inflight map[string]int // stream -> batches submitted and not yet acknowledged
	inflSum  uint64
	inflN    uint64
}

func newTimedTransport(inner *client.TCP, tr *tracer, owner int) *timedTransport {
	return &timedTransport{inner: inner, tr: tr, owner: uint8(owner), inflight: make(map[string]int)}
}

// takeAcks returns and clears the acknowledgements seen so far.
func (t *timedTransport) takeAcks() []ackSample {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.acks
	t.acks = nil
	return out
}

func batchFailed(resp wire.Message, err error) bool {
	if err != nil {
		return true
	}
	br, ok := resp.(*wire.BatchResp)
	if !ok {
		if e, isErr := resp.(*wire.Error); isErr {
			noteBusy(e)
		}
		return true
	}
	for _, sub := range br.Resps {
		if e, bad := sub.(*wire.Error); bad {
			noteBusy(e)
			return true
		}
	}
	return false
}

func (t *timedTransport) settle(req wire.Message, b *wire.Batch, start time.Time, resp wire.Message, err error) {
	end := time.Now()
	if b != nil {
		failed := batchFailed(resp, err)
		t.mu.Lock()
		t.acks = append(t.acks, ackSample{at: end, latency: end.Sub(start), chunks: len(b.Reqs), failed: failed})
		if t.tr != nil {
			if uuid, ok := wire.RoutingUUID(b); ok {
				t.inflight[uuid]--
			}
		}
		t.mu.Unlock()
	}
	if t.tr != nil && t.tr.on.Load() {
		kind, key, n := classify(req)
		t.tr.record(span{b: bClient, kind: kind, owner: t.owner, n: n, key: key,
			start: int64(start.Sub(t.tr.origin)), end: int64(end.Sub(t.tr.origin))})
	}
}

// submitted notes a batch entering the wire. Traced deployments count one
// stream's batches in flight at all times and add them up while tracing is
// on.
func (t *timedTransport) submitted(b *wire.Batch) {
	if b == nil || t.tr == nil {
		return
	}
	uuid, ok := wire.RoutingUUID(b)
	if !ok {
		return
	}
	t.mu.Lock()
	t.inflight[uuid]++
	if t.tr.on.Load() {
		t.inflSum += uint64(t.inflight[uuid])
		t.inflN++
	}
	t.mu.Unlock()
}

// inflightTotals gives the sum and the number of the per-stream in-flight
// counts seen at each submission (the new batch included); a mean of 1
// means no pipelining.
func (t *timedTransport) inflightTotals() (sum, n uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inflSum, t.inflN
}

// timed reports whether a request is an ingest batch (always timed) and
// whether it is timed at all (everything is, while tracing is on).
func (t *timedTransport) timed(req wire.Message) (*wire.Batch, bool) {
	b, _ := req.(*wire.Batch)
	if b != nil && (len(b.Reqs) == 0 || b.Reqs[0].Type() != wire.TInsertChunk) {
		b = nil
	}
	return b, b != nil || (t.tr != nil && t.tr.on.Load())
}

// RoundTrip implements client.Transport.
func (t *timedTransport) RoundTrip(ctx context.Context, req wire.Message) (wire.Message, error) {
	b, timed := t.timed(req)
	if !timed {
		return t.inner.RoundTrip(ctx, req)
	}
	start := time.Now()
	t.submitted(b)
	resp, err := t.inner.RoundTrip(ctx, req)
	t.settle(req, b, start, resp, err)
	return resp, err
}

// Do implements client.Doer: the call is timed until its Done channel
// closes, on a goroutine of its own so the caller keeps pipelining.
func (t *timedTransport) Do(ctx context.Context, req wire.Message) (*client.Call, error) {
	b, timed := t.timed(req)
	if !timed {
		return t.inner.Do(ctx, req)
	}
	start := time.Now()
	t.submitted(b)
	call, err := t.inner.Do(ctx, req)
	if err != nil {
		t.settle(req, b, start, nil, err)
		return nil, err
	}
	go func() {
		<-call.Done()
		resp, err := call.Result()
		t.settle(req, b, start, resp, err)
	}()
	return call, nil
}

// Stream implements client.Streamer (pages are pushed by the server; the
// cursor's wall time is timed by the caller).
func (t *timedTransport) Stream(ctx context.Context, req wire.Message) (*client.Stream, error) {
	return t.inner.Stream(ctx, req)
}

// Close implements client.Transport.
func (t *timedTransport) Close() error { return t.inner.Close() }

// timedHandler decorates a server.Handler with a span per request. It
// exists only in traced deployments. (It does not forward
// server.Subscriber: no workload subscribes.)
type timedHandler struct {
	inner server.Handler
	tr    *tracer
	b     boundary
	owner uint8
}

// Handle implements server.Handler.
func (h *timedHandler) Handle(ctx context.Context, req wire.Message) wire.Message {
	if !h.tr.on.Load() {
		return h.inner.Handle(ctx, req)
	}
	start := h.tr.now()
	resp := h.inner.Handle(ctx, req)
	end := h.tr.now()
	kind, key, n := classify(req)
	h.tr.record(span{b: h.b, kind: kind, owner: h.owner, n: n, key: key, start: start, end: end})
	return resp
}

// wrapHandler returns h itself when the deployment is untraced.
func wrapHandler(tr *tracer, b boundary, owner int, h server.Handler) server.Handler {
	if tr == nil {
		return h
	}
	return &timedHandler{inner: h, tr: tr, b: b, owner: uint8(owner)}
}

// timedStore decorates a kv.Store. Mutations (Put, Delete, Batch) are
// recorded as spans — they are what a durable store makes the caller wait
// for. Reads are not: a span per index-node Get would cost more than the
// Get. Gets of index nodes are counted (the store's own Stats count all
// gets). It exists only in traced deployments.
type timedStore struct {
	kv.Store
	tr    *tracer
	owner uint8

	indexGets atomic.Uint64
}

func wrapStore(tr *tracer, owner int, s kv.Store) kv.Store {
	if tr == nil {
		return s
	}
	return &timedStore{Store: s, tr: tr, owner: uint8(owner)}
}

// Get implements kv.Store.
func (s *timedStore) Get(key string) ([]byte, error) {
	if s.tr.on.Load() && strings.HasPrefix(key, "i/") {
		s.indexGets.Add(1)
	}
	return s.Store.Get(key)
}

func (s *timedStore) write(n int, fn func() error) error {
	if !s.tr.on.Load() {
		return fn()
	}
	start := s.tr.now()
	err := fn()
	s.tr.record(span{b: bStore, owner: s.owner, n: uint32(n), start: start, end: s.tr.now()})
	return err
}

// Put implements kv.Store.
func (s *timedStore) Put(key string, value []byte) error {
	return s.write(1, func() error { return s.Store.Put(key, value) })
}

// Delete implements kv.Store.
func (s *timedStore) Delete(key string) error {
	return s.write(1, func() error { return s.Store.Delete(key) })
}

// Batch implements kv.Store.
func (s *timedStore) Batch(ops []kv.Op) error {
	return s.write(len(ops), func() error { return s.Store.Batch(ops) })
}

// ScanShallow forwards the optional kv.ShallowScanner capability
// (replication snapshots use it); without it the decorator would change
// how a resync reads the store.
func (s *timedStore) ScanShallow(prefix string, fn func(key string, value []byte) bool) error {
	if ss, ok := s.Store.(kv.ShallowScanner); ok {
		return ss.ScanShallow(prefix, fn)
	}
	return s.Store.Scan(prefix, fn)
}
