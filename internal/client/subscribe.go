package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/chunk"
	"repro/internal/wire"
)

// FromWindow pins where a subscription starts: window sequence seq (the
// seq'th window of the plan's grid, so FromWindow(0) replays the full
// history before going live). Without it, Subscribe starts at the live
// frontier — the first delta is the first window completed after the
// subscription opened. Cursors ignore it; it only affects Subscribe.
func (q *QueryBuilder) FromWindow(seq uint64) *QueryBuilder {
	q.fromSeq, q.fromWindow = seq, true
	return q
}

// Subscribe turns the plan into a live subscription: the server maintains
// the encrypted window aggregate for the plan and pushes one delta per
// completed window, combined across every member stream, instead of the
// client polling with cursors. The deltas decrypt exactly like cursor
// pages — each member's keystream peeled off in turn — so a subscriber and
// a poller observe byte-identical windows.
//
// The plan must be windowed (Window(n > 0)); Range is ignored — a
// subscription is unbounded on the right by definition, and bounded
// history is what cursors are for. Stats projection applies as in Iter.
// The context governs the subscription's whole life: cancel it (or Close
// the handle) to unsubscribe.
//
// Consumer-side plans resolve grant decrypters at the subscribed window
// size exactly as cursors do, so a consumer holding a resolution-
// restricted grant can watch live aggregates it could query.
func (q *QueryBuilder) Subscribe(ctx context.Context) (*Subscription, error) {
	if q.err != nil {
		return nil, q.err
	}
	if q.window == 0 {
		return nil, errors.New("client: subscriptions need Window(n > 0)")
	}
	uuids, elems, decs, err := q.resolve(ctx)
	if err != nil {
		return nil, err
	}
	anchor := q.members[0].v
	streamer, ok := anchor.t.(Streamer)
	if !ok {
		return nil, errors.New("client: subscriptions need a multiplexed transport (Session or TCP)")
	}
	st, err := streamer.Stream(ctx, &wire.Subscribe{
		UUIDs:        uuids,
		WindowChunks: q.window,
		Elems:        elems,
		FromSeq:      q.fromSeq,
		FromLatest:   !q.fromWindow,
	})
	if err != nil {
		return nil, err
	}
	first, err := st.Recv()
	if err != nil {
		st.Close()
		if errors.Is(err, io.EOF) {
			err = errors.New("client: subscription ended before handshake")
		}
		return nil, err
	}
	resp, ok := first.(*wire.SubscribeResp)
	if !ok {
		st.Close()
		return nil, fmt.Errorf("client: unexpected subscription handshake %T", first)
	}
	return &Subscription{
		st: st, resp: resp,
		anchor: anchor, members: uuids,
		decs: decs, elems: elems,
		avail: anchor.spec.StatsForElems(elems),
		wc:    q.window,
		next:  resp.FirstSeq,
	}, nil
}

// Delta is one live update of a subscribed plan: the decrypted combined
// aggregate of window Seq. Resync marks windows the server re-read from
// its index rather than pushed as they committed — history replayed at
// subscribe time, or windows recovered after the subscriber fell behind;
// the values are byte-identical either way, the flag only explains the
// delivery path (and therefore latency).
type Delta struct {
	// Seq is the window's absolute position on the plan's window grid.
	Seq uint64
	// Resync marks re-read (vs. live-pushed) delivery.
	Resync bool
	// Agg is the decrypted combined window aggregate.
	Agg Agg
}

// Subscription iterates the live deltas of a subscribed plan:
//
//	sub, err := a.Query().Streams(b).Window(6).Stats(Sum).Subscribe(ctx)
//	defer sub.Close()
//	for sub.Next() {
//		d := sub.Delta()
//		...
//	}
//	if err := sub.Err(); err != nil { ... }
//
// Next blocks until the next window completes (or the subscription's
// context ends). Deltas arrive in strictly increasing window order with
// no gaps and no duplicates, across server-side drops (resynced) and
// cluster reshards (healed by the router).
type Subscription struct {
	st      *Stream
	resp    *wire.SubscribeResp
	anchor  *view
	members []string
	decs    []windowDecrypter
	elems   []uint32
	avail   chunk.StatSet
	wc      uint64

	next  uint64 // next window sequence to accept
	cur   Delta
	err   error
	done  bool
	first bool // cur is valid (Next returned true at least once)

	closeMu sync.Mutex
	closed  bool
}

// FirstSeq reports the window sequence the subscription started at (the
// resolved frontier for FromLatest plans).
func (s *Subscription) FirstSeq() uint64 { return s.resp.FirstSeq }

// Next blocks for the next delta. It returns false once the subscription
// ends: context cancellation, Close, or a terminal server error (check
// Err; a Close-initiated end reports nil).
func (s *Subscription) Next() bool {
	if s.done || s.err != nil || s.isClosed() {
		return false
	}
	for {
		msg, err := s.st.Recv()
		if err != nil {
			s.finish(err)
			return false
		}
		ev, ok := msg.(*wire.SubEvent)
		if !ok {
			s.finish(fmt.Errorf("client: unexpected subscription frame %T", msg))
			return false
		}
		// Deduplicate by window sequence: a replayed window (connection-
		// level retry, router heal rebuilding its fan-out) is dropped, a
		// gap is a protocol violation — the server contract is gap-free
		// ascending delivery.
		if ev.Seq < s.next {
			continue
		}
		if ev.Seq != s.next {
			s.finish(fmt.Errorf("client: subscription skipped from window %d to %d", s.next, ev.Seq))
			return false
		}
		agg, err := s.decodeEvent(ev)
		if err != nil {
			s.finish(err)
			return false
		}
		s.next = ev.Seq + 1
		s.cur = Delta{Seq: ev.Seq, Resync: ev.Resync, Agg: agg}
		s.first = true
		return true
	}
}

// Delta returns the delta at the iterator; only valid after a true Next.
func (s *Subscription) Delta() Delta { return s.cur }

// Err reports why the subscription ended; nil after a deliberate Close or
// context cancellation initiated by the subscriber.
func (s *Subscription) Err() error { return s.err }

// finish latches the terminal state. Ends the subscriber initiated —
// Close, or canceling the subscription's context — report nil.
func (s *Subscription) finish(err error) {
	s.done = true
	if s.isClosed() || errors.Is(err, context.Canceled) {
		return
	}
	s.err = err
}

// decodeEvent decrypts one pushed window exactly as decodeAggPage
// decrypts one cursor window: every member's keystream peeled off in
// turn, then the plaintext vector interpreted under the projection.
func (s *Subscription) decodeEvent(ev *wire.SubEvent) (Agg, error) {
	pt := append([]uint64(nil), ev.Window...)
	var err error
	for k, dec := range s.decs {
		if s.elems != nil {
			pt, err = dec.DecryptWindowElems(ev.FromChunk, ev.ToChunk, s.elems, pt)
		} else {
			pt, err = dec.DecryptWindow(ev.FromChunk, ev.ToChunk, pt)
		}
		if err != nil {
			return Agg{}, fmt.Errorf("client: window %d, stream %q: %w", ev.Seq, s.members[k], err)
		}
	}
	var r chunk.Result
	if s.elems != nil {
		r, err = s.anchor.spec.InterpretElems(s.elems, pt)
	} else {
		r, err = s.anchor.spec.Interpret(pt)
	}
	if err != nil {
		return Agg{}, err
	}
	return Agg{
		Start: s.anchor.chunkStart(ev.FromChunk), End: s.anchor.chunkStart(ev.ToChunk),
		FromChunk: ev.FromChunk, ToChunk: ev.ToChunk,
		StreamCount: int(s.resp.StreamCount),
		res:         r, avail: s.avail,
	}, nil
}

// isClosed reports whether Close ended the subscription.
func (s *Subscription) isClosed() bool {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	return s.closed
}

// Close unsubscribes: the explicit Unsubscribe control frame tells the
// server to tear the subscription down (releasing its broker reference),
// and abandoning the stream discards in-flight deltas. Idempotent, safe
// concurrently with a blocked Next (which unblocks and returns false),
// and safe on subscriptions that already ended.
func (s *Subscription) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil
	}
	s.closed = true
	s.closeMu.Unlock()
	s.st.unsubscribe()
	return s.st.Close()
}
