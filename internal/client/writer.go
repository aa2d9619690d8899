package client

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/wire"
)

// WriterOptions tunes a pipelined ingest writer.
type WriterOptions struct {
	// BatchChunks is how many sealed chunks ride in one wire.Batch round
	// trip; default 16, capped at wire.MaxBatch.
	BatchChunks int
	// MaxInFlight bounds the batches buffered ahead of server
	// acknowledgements; appends block (backpressure) once the bound is
	// reached. Default 4.
	MaxInFlight int
	// flushEvery is the background flush interval for a partially filled
	// batch, so a slow producer's records still reach the server without
	// an explicit Flush. Default 100ms; negative disables.
	flushEvery time.Duration
}

func (o *WriterOptions) applyDefaults() {
	if o.BatchChunks <= 0 {
		o.BatchChunks = 16
	}
	if o.BatchChunks > wire.MaxBatch {
		o.BatchChunks = wire.MaxBatch
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4
	}
	if o.flushEvery == 0 {
		o.flushEvery = 100 * time.Millisecond
	}
}

// maxWriterErrors caps collected errors; past it, later failures are
// counted but not retained.
const maxWriterErrors = 16

// Writer is an asynchronous pipelined ingest path for one stream: appends
// seal chunks immediately (the expensive client-side crypto) and hand them
// to a background sender that ships BatchChunks-sized wire.Batch envelopes,
// so sealing the next chunks overlaps the round trip of the previous ones.
// At most MaxInFlight batches are buffered; beyond that, appends block.
//
// Errors are collected rather than returned in-line: once a batch fails,
// subsequent appends fail fast and Close reports everything gathered
// (errors.Join). While a Writer is open, the stream's direct ingest methods
// (Append, AppendChunk, Flush, AppendRealTime) are disabled.
//
// A Writer is safe for concurrent use, but records must still arrive in
// timestamp order (one producer per stream, paper §4.6).
type Writer struct {
	s    *OwnerStream
	ctx  context.Context
	opts WriterOptions

	mu           sync.Mutex
	closed       bool
	pending      []wire.Message // sealed InsertChunk requests not yet enqueued
	pendingFirst uint64         // chunk index of pending[0]
	handedOff    bool           // an append filled a batch; see unlockAppend

	batches    chan ingestBatch
	senderDone chan struct{}
	tickerStop chan struct{}

	errMu     sync.Mutex
	errs      []error
	errCount  int
	closeOnce sync.Once
	closeErr  error
}

type ingestBatch struct {
	msgs  []wire.Message
	first uint64        // chunk index of msgs[0]
	ack   chan struct{} // non-nil: flush barrier, closed once processed
}

// Writer opens a pipelined ingest writer on the stream. The context governs
// every batch round trip the writer issues; canceling it fails the writer.
func (s *OwnerStream) Writer(ctx context.Context, opts WriterOptions) (*Writer, error) {
	opts.applyDefaults()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writer != nil {
		return nil, errors.New("client: stream already has an open Writer")
	}
	w := &Writer{
		s:          s,
		ctx:        ctx,
		opts:       opts,
		batches:    make(chan ingestBatch, opts.MaxInFlight),
		senderDone: make(chan struct{}),
	}
	s.writer = w
	go w.sender()
	if opts.flushEvery > 0 {
		w.tickerStop = make(chan struct{})
		go w.backgroundFlush(opts.flushEvery)
	}
	return w, nil
}

// record collects one failure.
func (w *Writer) record(err error) {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	w.errCount++
	if len(w.errs) < maxWriterErrors {
		w.errs = append(w.errs, err)
	}
}

// Err returns the first collected failure, or nil. Appends fail fast once
// it is non-nil.
func (w *Writer) Err() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	if len(w.errs) == 0 {
		return nil
	}
	return w.errs[0]
}

func (w *Writer) collectedErr() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	if w.errCount > len(w.errs) {
		return errors.Join(append(append([]error(nil), w.errs...),
			fmt.Errorf("client: %d further ingest errors dropped", w.errCount-len(w.errs)))...)
	}
	return errors.Join(w.errs...)
}

// Append adds one record; chunks completed by it are sealed now and shipped
// asynchronously.
func (w *Writer) Append(p chunk.Point) error {
	if err := w.Err(); err != nil {
		return fmt.Errorf("client: writer failed: %w", err)
	}
	w.mu.Lock()
	defer w.unlockAppend()
	if w.closed {
		return errors.New("client: writer closed")
	}
	s := w.s
	s.mu.Lock()
	done, err := s.builder.Add(p)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	for _, raw := range done {
		sealed, err := s.sealLocked(raw)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		w.stagePendingLocked(&wire.InsertChunk{UUID: s.uuid, Chunk: sealed}, raw.Index)
	}
	s.mu.Unlock()
	return w.maybeShipLocked()
}

// AppendChunk seals the given points as the next full chunk and ships it
// asynchronously (the bulk-load path; points must lie within the next chunk
// interval).
func (w *Writer) AppendChunk(pts []chunk.Point) error {
	if err := w.Err(); err != nil {
		return fmt.Errorf("client: writer failed: %w", err)
	}
	w.mu.Lock()
	defer w.unlockAppend()
	if w.closed {
		return errors.New("client: writer closed")
	}
	s := w.s
	s.mu.Lock()
	idx := s.builder.NextIndex()
	raw, err := s.nextChunkRaw(idx, pts)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if err := s.builder.SkipTo(idx + 1); err != nil {
		s.mu.Unlock()
		return err
	}
	sealed, err := s.sealLocked(raw)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	w.stagePendingLocked(&wire.InsertChunk{UUID: s.uuid, Chunk: sealed}, idx)
	s.mu.Unlock()
	return w.maybeShipLocked()
}

// stagePendingLocked appends one sealed chunk to the open batch. Caller
// holds w.mu (and may hold s.mu).
func (w *Writer) stagePendingLocked(msg wire.Message, idx uint64) {
	if len(w.pending) == 0 {
		w.pendingFirst = idx
	}
	w.pending = append(w.pending, msg)
}

// maybeShipLocked enqueues full batches. Caller holds w.mu and releases it
// with unlockAppend.
func (w *Writer) maybeShipLocked() error {
	for len(w.pending) >= w.opts.BatchChunks {
		if err := w.shipSliceLocked(w.opts.BatchChunks); err != nil {
			return err
		}
		w.handedOff = true
	}
	return nil
}

// unlockAppend releases w.mu at the end of an append and, if the append
// handed a full batch to the sender, yields the processor once. Appends
// seal on the caller's goroutine and enqueueing is only a channel send, so
// a producer that never blocks would otherwise keep its P until the queue
// pushes back (MaxInFlight batches) or the scheduler's preemption tick:
// batches would reach the transport in bursts, each waiting behind its
// burst. One yield per BatchChunks appends lets the sender put the batch
// on the wire while it is fresh.
func (w *Writer) unlockAppend() {
	handedOff := w.handedOff
	w.handedOff = false
	w.mu.Unlock()
	if handedOff {
		runtime.Gosched()
	}
}

// shipLocked enqueues everything pending in BatchChunks-sized envelopes —
// one Append can complete many chunks at once (gap chunks after a producer
// outage), and a single envelope must stay within wire.MaxBatch — then an
// optional flush barrier. Caller holds w.mu.
func (w *Writer) shipLocked(ack chan struct{}) error {
	for len(w.pending) > 0 {
		n := len(w.pending)
		if n > w.opts.BatchChunks {
			n = w.opts.BatchChunks
		}
		if err := w.shipSliceLocked(n); err != nil {
			return err
		}
	}
	if ack != nil {
		return w.enqueueLocked(ingestBatch{ack: ack})
	}
	return nil
}

// shipSliceLocked enqueues the first n pending requests as one batch.
func (w *Writer) shipSliceLocked(n int) error {
	b := ingestBatch{
		msgs:  w.pending[:n:n],
		first: w.pendingFirst,
	}
	w.pending = w.pending[n:]
	w.pendingFirst += uint64(n)
	if len(w.pending) == 0 {
		w.pending = nil // let the shipped backing array go once acked
	}
	return w.enqueueLocked(b)
}

// enqueueLocked blocks for an in-flight slot.
func (w *Writer) enqueueLocked(b ingestBatch) error {
	select {
	case w.batches <- b:
		return nil
	case <-w.ctx.Done():
		w.record(w.ctx.Err())
		return w.ctx.Err()
	}
}

// backgroundFlush ships a lingering partial batch when an in-flight slot is
// free, so trickling producers do not hold records back indefinitely.
func (w *Writer) backgroundFlush(every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-w.tickerStop:
			return
		case <-ticker.C:
			w.mu.Lock()
			if !w.closed && len(w.pending) > 0 {
				b := ingestBatch{msgs: w.pending, first: w.pendingFirst}
				select {
				case w.batches <- b:
					w.pendingFirst += uint64(len(w.pending))
					w.pending = nil
				default:
					// All in-flight slots busy: the pipeline is pushing
					// back, records are not lingering.
				}
			}
			w.mu.Unlock()
		}
	}
}

// Flush ships the open partial batch and blocks until every batch enqueued
// so far has been acknowledged (or failed).
func (w *Writer) Flush() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errors.New("client: writer closed")
	}
	ack := make(chan struct{})
	err := w.shipLocked(ack)
	w.mu.Unlock()
	if err != nil {
		return err
	}
	select {
	case <-ack:
	case <-w.ctx.Done():
		return w.ctx.Err()
	}
	return w.Err()
}

// Close ships any open batch, waits for all in-flight batches, detaches the
// writer from the stream, and returns every collected error (nil when all
// chunks were acknowledged). Points buffered for a not-yet-complete chunk
// interval remain in the stream's builder; seal them early with
// OwnerStream.Flush after Close if desired.
func (w *Writer) Close() error {
	w.closeOnce.Do(func() {
		w.mu.Lock()
		w.closed = true
		w.shipLocked(nil) // a canceled ctx is recorded; close proceeds
		close(w.batches)
		w.mu.Unlock()
		<-w.senderDone
		if w.tickerStop != nil {
			close(w.tickerStop)
		}
		w.s.mu.Lock()
		w.s.writer = nil
		w.s.mu.Unlock()
		w.closeErr = w.collectedErr()
	})
	return w.closeErr
}

// sender ships batches in order, preserving the stream's chunk ordering
// while appends keep sealing ahead. On a multiplexed transport (Doer), up
// to MaxInFlight batches genuinely overlap on one connection: each is
// issued without waiting for the previous acknowledgement — submission
// order fixes the wire order, and the server's per-stream scheduling keeps
// same-stream batches applied in that order — while a harvester collects
// acknowledgements behind it. Serialized transports (InProc, routers) fall
// back to one round trip at a time.
func (w *Writer) sender() {
	defer close(w.senderDone)
	doer, multiplexed := w.s.t.(Doer)
	if !multiplexed {
		for b := range w.batches {
			if len(b.msgs) > 0 && w.Err() == nil {
				resp, err := w.s.t.RoundTrip(w.ctx, &wire.Batch{Reqs: b.msgs})
				w.settleBatch(b, resp, err)
			}
			if b.ack != nil {
				close(b.ack)
			}
		}
		return
	}
	type inflight struct {
		b    ingestBatch
		call *Call // nil marks a flush barrier
	}
	// The harvest queue bounds unacknowledged batches on the wire; a
	// barrier entry closes its ack only after every earlier batch has
	// been harvested (FIFO), preserving Flush semantics.
	calls := make(chan inflight, w.opts.MaxInFlight)
	harvested := make(chan struct{})
	go func() {
		defer close(harvested)
		for f := range calls {
			if f.call == nil {
				close(f.b.ack)
				continue
			}
			resp, err := f.call.Wait(w.ctx)
			w.settleBatch(f.b, resp, err)
		}
	}()
	for b := range w.batches {
		if len(b.msgs) > 0 && w.Err() == nil {
			call, err := doer.Do(w.ctx, &wire.Batch{Reqs: b.msgs})
			if err != nil {
				w.record(fmt.Errorf("client: ingest batch at chunk %d: %w", b.first, err))
			} else {
				calls <- inflight{b: b, call: call}
			}
		}
		if b.ack != nil {
			calls <- inflight{b: ingestBatch{ack: b.ack}}
		}
	}
	close(calls)
	<-harvested
}

// settleBatch processes one batch acknowledgement (or failure).
func (w *Writer) settleBatch(b ingestBatch, resp wire.Message, err error) {
	if err != nil {
		w.record(fmt.Errorf("client: ingest batch at chunk %d: %w", b.first, err))
		return
	}
	acked := 0
	switch m := resp.(type) {
	case *wire.BatchResp:
		if len(m.Resps) != len(b.msgs) {
			w.record(fmt.Errorf("client: ingest batch at chunk %d: server answered %d of %d", b.first, len(m.Resps), len(b.msgs)))
			return
		}
		for i, sub := range m.Resps {
			if e, bad := sub.(*wire.Error); bad {
				w.record(fmt.Errorf("client: chunk %d: %w", b.first+uint64(i), e))
				break
			}
			acked++
		}
	case *wire.Error:
		w.record(fmt.Errorf("client: ingest batch at chunk %d: %w", b.first, m))
	default:
		w.record(fmt.Errorf("client: ingest batch at chunk %d: unexpected response %T", b.first, resp))
	}
	if acked == 0 {
		return
	}
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if next := b.first + uint64(acked); next > s.count {
		s.count = next
	}
	if err := s.extendEnvelopesLocked(w.ctx); err != nil {
		w.record(fmt.Errorf("client: extending resolution envelopes: %w", err))
	}
}
