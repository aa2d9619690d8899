package client

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/wire"
)

// defaultPageWindows is how many windows a cursor fetches per round trip.
const defaultPageWindows = 64

// Stat is a typed statistic selector for query plans (re-exported from
// chunk, which owns the digest layout the selectors map onto).
type Stat = chunk.Stat

// Typed statistic selectors for QueryBuilder.Stats.
const (
	Sum   = chunk.StatSum
	Count = chunk.StatCount
	Mean  = chunk.StatMean
	Var   = chunk.StatVar
	Stdev = chunk.StatStdev
	Hist  = chunk.StatHist
)

// member is one stream of a query plan: its view (geometry + transport)
// and the decrypter resolver for a given window size.
type member struct {
	v      *view
	decFor func(ctx context.Context, windowChunks uint64) (windowDecrypter, error)
}

// Queryable is a stream handle a query plan can aggregate over:
// *OwnerStream and *ConsumerStream implement it. A plan mixing owned and
// granted streams works — each member contributes its own key material.
type Queryable interface {
	queryMember() member
}

func (s *OwnerStream) queryMember() member {
	if s == nil {
		return member{} // typed-nil handle: surfaced as a builder error
	}
	return member{
		v:      &s.view,
		decFor: func(context.Context, uint64) (windowDecrypter, error) { return s.dec, nil },
	}
}

func (cs *ConsumerStream) queryMember() member {
	if cs == nil {
		return member{}
	}
	return member{
		v: &cs.view,
		decFor: func(ctx context.Context, windowChunks uint64) (windowDecrypter, error) {
			if windowChunks == 0 {
				if cs.keys == nil {
					return nil, fmt.Errorf("client: scalar query requires a full-resolution grant")
				}
				return cs.dec, nil
			}
			return cs.decrypterFor(ctx, windowChunks)
		},
	}
}

// QueryBuilder assembles a statistical query plan fluently and evaluates
// it lazily through a Cursor:
//
//	it := a.Query().Streams(b, c).Range(ts, te).Window(6).Stats(Sum, Mean).Iter(ctx)
//	for it.Next() {
//		agg := it.Agg()
//		...
//	}
//	if err := it.Err(); err != nil { ... }
//
// Range/Window behave as before: Window(0) (the default) asks for one
// aggregate over the whole range; Window(n) for one aggregate per n
// chunks, paged from the server PageSize windows at a time.
//
// Streams adds member streams: the server homomorphically sums the
// per-window digests across every member before responding, so a whole
// population aggregates in one round trip per page. Stats selects typed
// statistics; the plan then fetches (and decrypts) only the digest
// elements those statistics need. A plan that uses neither is a
// one-member plan with no projection: it carries every statistic the
// stream's digest supports.
type QueryBuilder struct {
	members []member
	stats   chunk.StatSet
	ts, te  int64
	window  uint64
	page    int
	err     error // deferred builder error, surfaced at iteration

	// Subscription start point (FromWindow); cursors ignore these.
	fromSeq    uint64
	fromWindow bool
}

// Query starts a query on an owned stream.
func (s *OwnerStream) Query() *QueryBuilder {
	return &QueryBuilder{members: []member{s.queryMember()}, page: defaultPageWindows}
}

// Query starts a query on a granted stream. Window sizes must be
// decryptable under the consumer's grants, exactly as for StatSeries.
func (cs *ConsumerStream) Query() *QueryBuilder {
	return &QueryBuilder{members: []member{cs.queryMember()}, page: defaultPageWindows}
}

// Streams adds member streams to the plan. Every member must share the
// anchor stream's geometry (epoch, interval, digest spec), and decryption
// requires key material — ownership or grants at a compatible resolution —
// for every member: the combined aggregate is encrypted under the sum of
// the members' keystreams, so missing any one keystream leaves only noise
// (§4.3: a principal can only decrypt an inter-stream result if granted
// access to all streams involved). The plan executes over the anchor
// stream's transport.
func (q *QueryBuilder) Streams(more ...Queryable) *QueryBuilder {
	for _, s := range more {
		if s == nil {
			q.err = fmt.Errorf("client: nil stream in query plan")
			return q
		}
		m := s.queryMember()
		if m.v == nil {
			// A typed-nil *OwnerStream/*ConsumerStream passes the
			// interface nil check above but carries no stream.
			q.err = fmt.Errorf("client: nil stream in query plan")
			return q
		}
		q.members = append(q.members, m)
	}
	return q
}

// Stats selects the typed statistics the plan answers; the server projects
// the encrypted aggregates down to the digest elements those statistics
// need, so nothing else is shipped or decrypted. With no arguments the
// plan carries every statistic the stream's digest supports. Selecting a
// statistic the digest cannot answer (e.g. Var on a sum-only stream)
// fails at iteration.
func (q *QueryBuilder) Stats(stats ...Stat) *QueryBuilder {
	q.stats |= chunk.NewStatSet(stats...)
	return q
}

// Range restricts the query to [ts, te) (Unix ms).
func (q *QueryBuilder) Range(ts, te int64) *QueryBuilder {
	q.ts, q.te = ts, te
	return q
}

// Window sets the aggregation granularity in chunks; 0 means one aggregate
// over the whole range.
func (q *QueryBuilder) Window(chunks uint64) *QueryBuilder {
	q.window = chunks
	return q
}

// PageSize overrides how many windows each cursor fetch requests.
func (q *QueryBuilder) PageSize(windows int) *QueryBuilder {
	if windows > 0 {
		q.page = windows
	}
	return q
}

// Iter returns a lazy cursor over the query's windows. No request is issued
// until the first Next call. Call Close when abandoning a cursor before
// exhausting it (a drained or failed cursor is already released).
func (q *QueryBuilder) Iter(ctx context.Context) *Cursor {
	return &Cursor{ctx: ctx, q: q}
}

// All drains a cursor into a slice, for callers that do want the full
// series materialized.
func (q *QueryBuilder) All(ctx context.Context) ([]StatResult, error) {
	it := q.Iter(ctx)
	defer it.Close()
	var out []StatResult
	for it.Next() {
		out = append(out, it.Result())
	}
	return out, it.Err()
}

// Aggs drains a cursor into typed window aggregates.
func (q *QueryBuilder) Aggs(ctx context.Context) ([]Agg, error) {
	it := q.Iter(ctx)
	defer it.Close()
	var out []Agg
	for it.Next() {
		out = append(out, it.Agg())
	}
	return out, it.Err()
}

// Agg is one decrypted window of a typed query plan: the combined
// statistics of every member stream over [Start, End). Accessors for
// statistics the plan did not select return zero values (NaN for the
// float moments); check Has first when the selection is dynamic.
type Agg struct {
	// Start/End bound the aggregated interval in Unix ms.
	Start, End int64
	// FromChunk/ToChunk are the aggregated chunk positions [From, To).
	FromChunk, ToChunk uint64
	// StreamCount is how many member streams the aggregate combines.
	StreamCount int

	res   chunk.Result
	avail chunk.StatSet
}

// Stats reports the statistics this aggregate carries.
func (a Agg) Stats() chunk.StatSet { return a.avail }

// Has reports whether the aggregate carries statistic s.
func (a Agg) Has(s Stat) bool { return a.avail.Has(s) }

// Sum returns the combined value sum.
func (a Agg) Sum() int64 { return a.res.Sum }

// Count returns the combined record count.
func (a Agg) Count() uint64 { return a.res.Count }

// Mean returns the combined mean (NaN without Sum+Count or on no data).
func (a Agg) Mean() float64 { return a.res.Mean }

// Var returns the combined population variance (NaN unless selected).
func (a Agg) Var() float64 { return a.res.Var }

// Stdev returns the combined standard deviation (NaN unless selected).
func (a Agg) Stdev() float64 { return a.res.Stdev }

// Hist returns the combined per-bin frequency counts (nil unless the
// histogram was selected).
func (a Agg) Hist() []uint64 { return a.res.Hist }

// Result exposes the underlying monolithic result for callers bridging
// from the untyped API; unselected statistics are zero-valued.
func (a Agg) Result() chunk.Result { return a.res }

// statResult converts back to the legacy StatResult shape.
func (a Agg) statResult() StatResult {
	return StatResult{
		Result: a.res, Start: a.Start, End: a.End,
		FromChunk: a.FromChunk, ToChunk: a.ToChunk,
	}
}

// Cursor pages the windows of a statistical query lazily, decrypting one
// page at a time and handing them out one window per Next. Every page is
// one wire.AggRange round trip, on every transport. The iteration bound is
// pinned to the streams' ingest progress at first use (one batched round
// trip for multi-stream plans), so a cursor sees a consistent prefix even
// while ingest continues.
type Cursor struct {
	ctx context.Context
	q   *QueryBuilder

	started bool
	done    bool
	err     error

	uuids []string // member streams, in plan order
	decs  []windowDecrypter
	elems []uint32 // projection; nil = full vectors
	avail chunk.StatSet

	page []Agg
	pos  int

	next uint64 // next chunk position to fetch
	end  uint64 // iteration bound (window-aligned)

	closed atomic.Bool
}

// Next advances to the next window, fetching a page from the server when
// the current one is exhausted. It returns false at the end of the range,
// after Close, or on error (check Err).
func (c *Cursor) Next() bool {
	if c.err != nil || c.closed.Load() {
		return false
	}
	if !c.started {
		c.start()
		if c.err != nil {
			return false
		}
	}
	c.pos++
	for c.pos >= len(c.page) {
		if c.done {
			return false
		}
		c.fetch()
		if c.err != nil {
			return false
		}
	}
	return true
}

// Result returns the window at the cursor in the legacy monolithic shape.
// Only valid after a true Next. On a typed plan, statistics outside the
// selection are zero-valued — use Agg for the typed accessors.
func (c *Cursor) Result() StatResult { return c.page[c.pos].statResult() }

// Agg returns the window at the cursor as a typed aggregate. Only valid
// after a true Next.
func (c *Cursor) Agg() Agg { return c.page[c.pos] }

// Err reports the first failure, if any; a cleanly exhausted cursor
// returns nil.
func (c *Cursor) Err() error { return c.err }

// start resolves the plan and pins the iteration bounds: a scalar query is
// one AggRange round trip; a windowed query reads the streams' ingest
// progress once and pages over the window grid.
func (c *Cursor) start() {
	c.started = true
	c.pos = -1
	q := c.q
	if q.err != nil {
		c.err = q.err
		return
	}
	c.uuids, c.elems, c.decs, c.err = q.resolve(c.ctx)
	if c.err != nil {
		return
	}
	anchor := q.members[0].v
	c.avail = anchor.spec.StatsForElems(c.elems)
	if q.window == 0 {
		resp, err := call[*wire.AggRangeResp](c.ctx, anchor.t, &wire.AggRange{
			UUIDs: c.uuids, Ts: q.ts, Te: q.te, Elems: c.elems,
		})
		if err != nil {
			c.err = err
			return
		}
		if len(resp.Windows) != 1 {
			c.err = fmt.Errorf("client: server returned %d windows for scalar plan", len(resp.Windows))
			return
		}
		c.page, c.err = c.decodeAggPage(resp, 0)
		c.done = true
		return
	}
	if q.te <= q.ts {
		c.err = fmt.Errorf("client: empty query range [%d,%d)", q.ts, q.te)
		return
	}
	// Pin the iteration bound to the shortest member's ingest progress —
	// one round trip even for a 16-stream plan, via a Batch of StreamInfo
	// sub-requests.
	count, err := c.minCount(anchor.t, c.uuids)
	if err != nil {
		c.err = err
		return
	}
	c.pinBounds(anchor, count)
}

// resolve validates a plan and resolves what executing it needs: the
// member UUIDs in plan order, the digest elements the stat selection maps
// onto (nil = full vectors, also when nothing was selected), and one
// decrypter per member at the plan's window size.
func (q *QueryBuilder) resolve(ctx context.Context) (uuids []string, elems []uint32, decs []windowDecrypter, err error) {
	anchor := q.members[0].v
	spec := anchor.spec
	specBytes, err := spec.MarshalBinary()
	if err != nil {
		return nil, nil, nil, err
	}
	uuids = make([]string, len(q.members))
	seen := make(map[string]bool, len(q.members))
	for i, m := range q.members {
		if seen[m.v.uuid] {
			return nil, nil, nil, fmt.Errorf("client: stream %q appears twice in the plan", m.v.uuid)
		}
		seen[m.v.uuid] = true
		uuids[i] = m.v.uuid
		if m.v.epoch != anchor.epoch || m.v.interval != anchor.interval {
			return nil, nil, nil, fmt.Errorf("client: stream %q geometry differs from %q (plans need matching epoch/interval)", m.v.uuid, anchor.uuid)
		}
		mb, err := m.v.spec.MarshalBinary()
		if err != nil {
			return nil, nil, nil, err
		}
		if !bytes.Equal(mb, specBytes) {
			return nil, nil, nil, fmt.Errorf("client: stream %q digest spec differs from %q (plans need one digest layout)", m.v.uuid, anchor.uuid)
		}
	}
	if q.stats != 0 {
		es, err := spec.ElemsFor(q.stats)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(es) < spec.VectorLen() {
			elems = es
		}
	}
	decs = make([]windowDecrypter, len(q.members))
	for i, m := range q.members {
		if decs[i], err = m.decFor(ctx, q.window); err != nil {
			return nil, nil, nil, fmt.Errorf("client: stream %q: %w", m.v.uuid, err)
		}
	}
	return uuids, elems, decs, nil
}

// minCount fetches every member's ingest progress in one round trip and
// returns the smallest.
func (c *Cursor) minCount(t Transport, uuids []string) (uint64, error) {
	if len(uuids) == 1 {
		info, err := call[*wire.StreamInfoResp](c.ctx, t, &wire.StreamInfo{UUID: uuids[0]})
		if err != nil {
			return 0, err
		}
		return info.Count, nil
	}
	b := &wire.Batch{Reqs: make([]wire.Message, len(uuids))}
	for i, uuid := range uuids {
		b.Reqs[i] = &wire.StreamInfo{UUID: uuid}
	}
	resp, err := call[*wire.BatchResp](c.ctx, t, b)
	if err != nil {
		return 0, err
	}
	if len(resp.Resps) != len(uuids) {
		return 0, fmt.Errorf("client: stream metadata batch came back short (%d of %d)", len(resp.Resps), len(uuids))
	}
	var count uint64
	for i, sub := range resp.Resps {
		info, ok := sub.(*wire.StreamInfoResp)
		if !ok {
			if e, isErr := sub.(*wire.Error); isErr {
				return 0, fmt.Errorf("client: stream %q: %w", uuids[i], e)
			}
			return 0, fmt.Errorf("client: unexpected metadata response %T", sub)
		}
		if i == 0 || info.Count < count {
			count = info.Count
		}
	}
	return count, nil
}

// pinBounds maps the query range onto the window grid, clamped to count
// ingested chunks. It sets done when no complete window lies in range.
func (c *Cursor) pinBounds(v *view, count uint64) {
	q := c.q
	ts := q.ts
	if ts < v.epoch {
		ts = v.epoch
	}
	a := uint64((ts - v.epoch) / v.interval)
	bInt := (q.te - v.epoch + v.interval - 1) / v.interval
	if bInt <= 0 {
		c.done = true // range precedes the epoch entirely
		return
	}
	b := uint64(bInt)
	if b > count {
		b = count
	}
	// Align to the absolute window grid, like the server does, so
	// resolution-restricted consumers can decrypt every page.
	a = (a / q.window) * q.window
	b = (b / q.window) * q.window
	if a >= b {
		c.done = true // no complete window in range
		return
	}
	c.next, c.end = a, b
}

// pageWindows clamps the configured page size to the protocol bound.
func (c *Cursor) pageWindows() int {
	if c.q.page > wire.MaxPageWindows {
		return wire.MaxPageWindows
	}
	return c.q.page
}

// fetch requests and decrypts the next page of windows.
func (c *Cursor) fetch() {
	q := c.q
	v := q.members[0].v
	hi := c.next + uint64(c.pageWindows())*q.window
	if hi > c.end {
		hi = c.end
	}
	resp, err := call[*wire.AggRangeResp](c.ctx, v.t, &wire.AggRange{
		UUIDs: c.uuids, Ts: v.chunkStart(c.next), Te: v.chunkStart(hi),
		WindowChunks: q.window, Elems: c.elems,
	})
	if err != nil {
		c.err = err
		return
	}
	if c.page, c.err = c.decodeAggPage(resp, q.window); c.err != nil {
		return
	}
	c.pos = 0
	c.next = hi
	if c.next >= c.end {
		c.done = true
	}
}

// decodeAggPage decrypts and interprets one AggRangeResp: each window's
// combined ciphertext has every member's keystream peeled off in turn
// (the keystream of a sum of streams is the sum of their keystreams), then
// the plaintext vector is interpreted under the plan's projection.
// windowChunks 0 means one window spanning [FromChunk, ToChunk).
func (c *Cursor) decodeAggPage(resp *wire.AggRangeResp, windowChunks uint64) ([]Agg, error) {
	if int(resp.StreamCount) != len(c.q.members) {
		return nil, fmt.Errorf("client: server combined %d of %d member streams", resp.StreamCount, len(c.q.members))
	}
	v := c.q.members[0].v
	spec := v.spec
	out := make([]Agg, 0, len(resp.Windows))
	for w, vec := range resp.Windows {
		i, j := resp.FromChunk, resp.ToChunk
		if windowChunks > 0 {
			i = resp.FromChunk + uint64(w)*windowChunks
			j = i + windowChunks
		}
		pt := vec // the response is ours: every member decrypts in place
		var err error
		for k, dec := range c.decs {
			if c.elems != nil {
				pt, err = dec.DecryptWindowElems(i, j, c.elems, pt)
			} else {
				pt, err = dec.DecryptWindow(i, j, pt)
			}
			if err != nil {
				return nil, fmt.Errorf("client: window %d, stream %q: %w", w, c.uuids[k], err)
			}
		}
		var r chunk.Result
		if c.elems != nil {
			r, err = spec.InterpretElems(c.elems, pt)
		} else {
			r, err = spec.Interpret(pt)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, Agg{
			Start: v.chunkStart(i), End: v.chunkStart(j),
			FromChunk: i, ToChunk: j,
			StreamCount: int(resp.StreamCount),
			res:         r, avail: c.avail,
		})
	}
	return out, nil
}

// Close ends a cursor abandoned before exhaustion: subsequent Next calls
// return false. Safe on drained, failed, and never-started cursors;
// idempotent; and safe concurrently with Next.
func (c *Cursor) Close() error {
	c.closed.Store(true)
	return nil
}
