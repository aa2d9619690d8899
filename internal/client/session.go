package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// ErrSessionBroken marks a call failed by connection breakage rather than
// by the call itself: the socket died (or the peer desynced the protocol)
// while the call was in flight, and every other in-flight call on the
// session failed with it at the same instant. It is redial-able — the
// request may or may not have executed, but a fresh session can be dialed
// and idempotent requests retried. Check with errors.Is.
var ErrSessionBroken = errors.New("client: session broken")

// errSessionClosed marks calls failed by a deliberate local Close.
var errSessionClosed = errors.New("client: session closed")

// DefaultWindow is the default bound on concurrently in-flight calls per
// session. It matches the server's default per-connection cap
// (server.DefaultMaxConnInFlight) so a default client never sees CodeBusy.
const DefaultWindow = 64

// SessionOptions tunes a multiplexed session.
type SessionOptions struct {
	// Window bounds the calls concurrently in flight on the connection;
	// Do blocks (backpressure) once the bound is reached. <= 0 means
	// DefaultWindow. Keep it at or below the server's per-connection cap
	// or overflow calls fail with wire.CodeBusy.
	Window int
	// NetDial overrides how the raw connection is established (nil means
	// net.Dial "tcp"). The session protocol above the connection is
	// unchanged; fault-injecting test harnesses (internal/netchaos) and
	// custom transports hook in here, and the override survives redials
	// because every reconnect goes back through DialSession.
	NetDial func(addr string) (net.Conn, error)
}

// Session is one multiplexed connection to a TimeCrypt server (wire
// protocol v3): a writer pump and a reader pump share the socket, every
// request carries a caller-assigned correlation ID, and responses are
// matched back to their calls through a pending-call table — so many
// requests overlap on one connection and responses may complete out of
// order. Safe for concurrent use.
//
// Do issues a call and returns immediately with an awaitable *Call;
// RoundTrip is the blocking facade (Session implements Transport). Stream
// opens a streamed response (a wire.Subscribe).
// Canceling a call's context removes it from the pending table without
// poisoning the connection — the late response is recognized and
// discarded. Connection breakage fails
// every in-flight call with ErrSessionBroken; the session is then dead and
// a new one must be dialed (the TCP transport facade does this
// automatically).
type Session struct {
	conn net.Conn

	sendq chan *Call
	slots chan struct{} // in-flight window semaphore
	die   chan struct{} // closed by fail(): unblocks Do/Wait/pumps

	mu      sync.Mutex
	pending map[uint64]*Call
	tombs   map[uint64]bool // canceled IDs whose response is still owed
	nextID  uint64
	dead    error // non-nil once broken or closed

	writerDone chan struct{}
	readerDone chan struct{}
}

// Call is one in-flight request on a Session. Wait blocks for the
// response; Done exposes the completion channel for callers multiplexing
// many calls themselves.
type Call struct {
	sess *Session
	id   uint64
	req  wire.Message

	timeoutMS int64
	epoch     uint64  // sender epoch for the v6 envelope (0 = none)
	stream    *Stream // non-nil for streamed calls
	ctrl      bool    // flow-control frame: correlation ID 0, no slot, no response

	// written/dropped guard the send/cancel race (both under sess.mu):
	// the writer pump marks a call written before putting it on the wire,
	// so a cancellation knows whether the server owes a response
	// (tombstone) or the request can be dropped from the send queue.
	written  bool
	dropped  bool
	finished bool // resolved (response, cancel, or session failure)

	done chan struct{}
	resp wire.Message
	err  error
}

// DialSession connects a multiplexed session to a server address.
func DialSession(addr string, opts SessionOptions) (*Session, error) {
	dial := opts.NetDial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	conn, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("client: dialing %s: %w", addr, err)
	}
	return NewSession(conn, opts), nil
}

// NewSession runs a session over an established connection (exported for
// tests and custom dialers; the connection is owned by the session).
func NewSession(conn net.Conn, opts SessionOptions) *Session {
	window := opts.Window
	if window <= 0 {
		window = DefaultWindow
	}
	s := &Session{
		conn:       conn,
		sendq:      make(chan *Call, window+16), // slack for slotless flow-control frames
		slots:      make(chan struct{}, window),
		die:        make(chan struct{}),
		pending:    make(map[uint64]*Call),
		tombs:      make(map[uint64]bool),
		writerDone: make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	go s.writePump()
	go s.readPump()
	return s
}

// InFlight reports the calls currently holding window slots: pending plus
// canceled-but-unanswered tombstones.
func (s *Session) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending) + len(s.tombs)
}

// pendingLen reports live pending-table entries (excludes tombstones).
func (s *Session) pendingLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Do issues one request, returning once it is queued for the wire (or once
// ctx gives up waiting for a free in-flight slot). The returned Call
// completes when the response arrives, the session breaks, or the call is
// canceled via Wait/Cancel.
func (s *Session) Do(ctx context.Context, req wire.Message) (*Call, error) {
	return s.issue(ctx, req, false)
}

// issue registers and enqueues a call; stream selects the streamed
// response mode.
func (s *Session) issue(ctx context.Context, req wire.Message, stream bool) (*Call, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Acquire an in-flight slot (backpressure once the window is full).
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.die:
		return nil, s.deadErr()
	}
	c := &Call{sess: s, req: req, done: make(chan struct{}), timeoutMS: budgetMS(ctx), epoch: wire.EpochFromContext(ctx)}
	if stream {
		c.stream = newStream(c, ctx)
	}
	s.mu.Lock()
	if s.dead != nil {
		err := s.dead
		s.mu.Unlock()
		<-s.slots
		return nil, err
	}
	s.nextID++
	c.id = s.nextID
	s.pending[c.id] = c
	s.mu.Unlock()
	// Cannot block: every queued call holds a slot (until the writer pump
	// dequeues it or its response lands), so the queue never holds more
	// than `window` entries.
	select {
	case s.sendq <- c:
	case <-s.die:
		// The pumps died between registration and enqueue; the fail path
		// already resolved c through the pending table.
	}
	return c, nil
}

func (s *Session) deadErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	return errSessionClosed
}

// RoundTrip implements Transport: Do plus Wait. Canceling ctx abandons the
// call (the connection survives; the late response is discarded).
func (s *Session) RoundTrip(ctx context.Context, req wire.Message) (wire.Message, error) {
	c, err := s.Do(ctx, req)
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx)
}

// Stream issues a streamed request (a wire.Subscribe): the server pushes successive frames tagged with the
// call's correlation ID. Read them with Recv; Close abandons the stream
// early without poisoning the connection.
func (s *Session) Stream(ctx context.Context, req wire.Message) (*Stream, error) {
	c, err := s.issue(ctx, req, true)
	if err != nil {
		return nil, err
	}
	return c.stream, nil
}

// sendCredit queues a flow-control frame granting a streamed call more
// pages (0 = stop paging). Credit frames ride correlation ID 0, hold no
// window slot, and earn no response; a dead session just drops them.
func (s *Session) sendCredit(id uint64, pages uint32) {
	c := &Call{req: &wire.StreamCredit{ID: id, Pages: pages}, ctrl: true}
	select {
	case s.sendq <- c:
	case <-s.die:
	}
}

// sendUnsubscribe queues the explicit subscription teardown frame. Like
// credit grants it rides correlation ID 0, holds no window slot, and earns
// no response; the server answers by ending the subscription stream.
func (s *Session) sendUnsubscribe(id uint64) {
	c := &Call{req: &wire.Unsubscribe{ID: id}, ctrl: true}
	select {
	case s.sendq <- c:
	case <-s.die:
	}
}

// unsubscribe sends the subscription teardown frame for this stream,
// unless the server already terminated it (no teardown owed then).
func (st *Stream) unsubscribe() {
	select {
	case <-st.term:
	default:
		st.call.sess.sendUnsubscribe(st.call.id)
	}
}

// Close fails all in-flight calls and closes the connection. Safe to call
// concurrently with in-flight calls — they unblock with an error rather
// than wedging shutdown.
func (s *Session) Close() error {
	s.fail(errSessionClosed, false)
	<-s.writerDone
	<-s.readerDone
	return nil
}

// budgetMS converts a context deadline to the wire's relative budget
// (clock-skew immune); floor at 1ms so a nearly-spent deadline still reads
// as "bounded" rather than "none".
func budgetMS(ctx context.Context) int64 {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := int64(time.Until(d) / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return ms
}

// writePump drains the send queue onto the socket, flushing whenever the
// queue runs dry (so back-to-back calls coalesce into one syscall).
func (s *Session) writePump() {
	defer close(s.writerDone)
	bw := bufio.NewWriterSize(s.conn, 64<<10)
	for {
		var c *Call
		select {
		case c = <-s.sendq:
		case <-s.die:
			return
		}
		if c.ctrl {
			// Flow-control frames ride correlation ID 0: they earn no
			// response and hold no window slot, so they cannot deadlock
			// against a full pending table.
			if err := wire.WriteRequest(bw, 0, 0, c.req); err != nil {
				s.fail(fmt.Errorf("writing credit: %w", err), true)
				return
			}
			if len(s.sendq) == 0 {
				if err := bw.Flush(); err != nil {
					s.fail(fmt.Errorf("flushing credit: %w", err), true)
					return
				}
			}
			continue
		}
		s.mu.Lock()
		dropped := c.dropped
		if !dropped {
			c.written = true
		}
		s.mu.Unlock()
		if dropped {
			<-s.slots // canceled before hitting the wire: slot freed here
		} else if err := wire.WriteRequestEpoch(bw, c.id, c.timeoutMS, c.epoch, c.req); err != nil {
			s.fail(fmt.Errorf("writing request: %w", err), true)
			return
		}
		// Flush whenever the queue runs dry — after dropped entries too,
		// or an earlier written-but-buffered request could sit here
		// forever with its caller waiting.
		if len(s.sendq) == 0 {
			if err := bw.Flush(); err != nil {
				s.fail(fmt.Errorf("flushing request: %w", err), true)
				return
			}
		}
	}
}

// readPump matches response frames to pending calls. Any read or protocol
// error is terminal: the framing may be desynced, so the whole session
// fails (ErrSessionBroken) and every in-flight call errors.
func (s *Session) readPump() {
	defer close(s.readerDone)
	br := bufio.NewReaderSize(s.conn, 64<<10)
	for {
		// Pooled frame read: decoders copy every retained field, so the
		// buffer goes back to the shared pool as soon as the envelope is
		// decoded.
		fb, err := wire.ReadFrameBuf(br)
		if err != nil {
			s.fail(readErr(err), true)
			return
		}
		id, more, msg, err := wire.DecodeResponse(fb.Bytes())
		fb.Release()
		if err != nil {
			s.fail(readErr(err), true)
			return
		}
		if err := s.dispatch(id, more, msg); err != nil {
			s.fail(err, true)
			return
		}
	}
}

// readErr normalizes socket shutdown errors.
func readErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return errors.New("connection closed")
	}
	return err
}

// dispatch routes one response frame. A non-nil error is a protocol
// violation that kills the session.
func (s *Session) dispatch(id uint64, more bool, msg wire.Message) error {
	s.mu.Lock()
	c, live := s.pending[id]
	if !live {
		if !s.tombs[id] {
			s.mu.Unlock()
			// An ID we never issued, or one the server already answered:
			// the peer is desynced or hostile. Surfacing a protocol error
			// beats silently mismatching future calls.
			return fmt.Errorf("response for unknown call %d (%T)", id, msg)
		}
		// A canceled call's late response: swallow it, reclaiming the
		// tombstone (and its window slot) on the final frame.
		if !more {
			delete(s.tombs, id)
			s.mu.Unlock()
			<-s.slots
			return nil
		}
		s.mu.Unlock()
		return nil
	}
	if c.stream == nil {
		if more {
			s.mu.Unlock()
			return fmt.Errorf("streamed frame for unary call %d", id)
		}
		delete(s.pending, id)
		c.finished = true
		s.mu.Unlock()
		<-s.slots
		c.resp = msg
		close(c.done)
		return nil
	}
	if !more {
		delete(s.pending, id)
		c.finished = true
		s.mu.Unlock()
		<-s.slots
		err := c.stream.finish(msg)
		close(c.done)
		return err
	}
	s.mu.Unlock()
	return c.stream.deliver(msg)
}

// cancel abandons a call: it leaves the pending table immediately and, if
// the request already hit the wire, a tombstone absorbs the server's
// eventual response so the connection stays in sync (the window slot stays
// held until then — the server is still working on it). A call canceled
// before the writer pump sent it is dropped from the queue entirely.
func (s *Session) cancel(c *Call, err error) {
	s.mu.Lock()
	if c.finished || s.dead != nil {
		s.mu.Unlock()
		return
	}
	if _, live := s.pending[c.id]; !live {
		s.mu.Unlock()
		return
	}
	delete(s.pending, c.id)
	if c.written {
		s.tombs[c.id] = true // dispatch frees the slot when the response lands
	} else {
		c.dropped = true // writer pump frees the slot when it dequeues
	}
	c.finished = true
	s.mu.Unlock()
	c.err = err
	close(c.done)
	if c.stream != nil {
		c.stream.terminate(err)
	}
}

// fail kills the session: marks it dead, closes the socket, and resolves
// every in-flight call. broken selects the redial-able ErrSessionBroken
// wrapping (connection breakage) over the deliberate-close error.
func (s *Session) fail(cause error, broken bool) {
	s.mu.Lock()
	if s.dead != nil {
		s.mu.Unlock()
		return
	}
	var err error
	if broken {
		err = fmt.Errorf("%w: %v", ErrSessionBroken, cause)
	} else {
		err = cause
	}
	s.dead = err
	calls := make([]*Call, 0, len(s.pending))
	for _, c := range s.pending {
		c.finished = true
		calls = append(calls, c)
	}
	s.pending = map[uint64]*Call{}
	s.tombs = map[uint64]bool{}
	s.mu.Unlock()
	close(s.die)
	s.conn.Close()
	for _, c := range calls {
		c.err = err
		close(c.done)
		if c.stream != nil {
			c.stream.terminate(err)
		}
	}
}

// Done returns a channel closed when the call completes (response, cancel,
// or session failure).
func (c *Call) Done() <-chan struct{} { return c.done }

// Result returns the response after Done is closed. Like
// Transport.RoundTrip, the response message may be *wire.Error — the
// error return covers transport-level failures (cancellation, breakage).
func (c *Call) Result() (wire.Message, error) {
	if c.err != nil {
		return nil, c.err
	}
	return c.resp, nil
}

// Wait blocks until the call completes or ctx gives up; giving up cancels
// the call (its pending-table entry is reclaimed and any late response
// discarded).
func (c *Call) Wait(ctx context.Context) (wire.Message, error) {
	select {
	case <-c.done:
		return c.Result()
	case <-ctx.Done():
		c.sess.cancel(c, ctx.Err())
		// cancel lost the race if the response arrived concurrently;
		// honor whichever resolved the call first.
		<-c.done
		return c.Result()
	}
}

// Cancel abandons the call with context.Canceled semantics.
func (c *Call) Cancel() { c.sess.cancel(c, context.Canceled) }

// replenishPages is how many consumed pages a stream acknowledges at once:
// half the initial window, so a steadily draining consumer keeps the
// server paging ahead without a credit frame per page.
const replenishPages = wire.StreamInitialCredit / 2

// Stream is a streamed response: successive frames pushed by the server
// for one correlation ID. Recv returns frames in order and io.EOF at a
// clean end; Close abandons the stream early. Not safe for concurrent
// Recv, but Close is idempotent and safe concurrently with Recv and with
// the final frame arriving.
//
// Flow control is credit-based: the server may have at most
// wire.StreamInitialCredit unconsumed pages outstanding (exactly this
// stream's buffer capacity), and Recv acknowledges drained pages in
// batches of replenishPages so the server keeps paging. A consumer that
// stops draining therefore pauses its own stream server-side — the
// session's reader pump never blocks on a full stream buffer, and every
// other call on the connection keeps completing.
type Stream struct {
	call *Call
	ctx  context.Context

	frames chan wire.Message

	goneOnce sync.Once
	gone     chan struct{} // closed when the consumer abandoned the stream

	termOnce sync.Once
	term     chan struct{} // closed once termErr is set
	termErr  error         // io.EOF on a clean end

	mu      sync.Mutex
	recvErr error  // consumer-side latch; later Recvs repeat it
	unacked uint32 // pages drained since the last credit grant
}

func newStream(c *Call, ctx context.Context) *Stream {
	return &Stream{
		call:   c,
		ctx:    ctx,
		frames: make(chan wire.Message, wire.StreamInitialCredit),
		gone:   make(chan struct{}),
		term:   make(chan struct{}),
	}
}

// deliver hands one intermediate frame to the consumer. Called only from
// the session's reader pump. It never blocks: credit accounting guarantees
// a conforming server cannot overflow the buffer, so a full buffer is a
// protocol violation that kills the session (a hostile flooder must not
// wedge the pump — per-stream isolation is the point of the credit).
func (st *Stream) deliver(msg wire.Message) error {
	select {
	case st.frames <- msg:
		return nil
	default:
	}
	select {
	case <-st.gone:
		return nil // abandoned: the frame would be discarded anyway
	default:
		return fmt.Errorf("stream %d overflowed its credit window", st.call.id)
	}
}

// finish terminates the stream from its final frame: an explicit Error
// fails it, OK is a clean end, and any other message is a last payload
// followed by EOF. Called only from the reader pump, after every
// intermediate frame has been delivered.
func (st *Stream) finish(msg wire.Message) error {
	switch m := msg.(type) {
	case *wire.Error:
		st.terminate(m)
	case *wire.OK:
		st.terminate(io.EOF)
	default:
		err := st.deliver(m)
		st.terminate(io.EOF)
		return err
	}
	return nil
}

// terminate latches the stream's terminal error (idempotent; io.EOF for a
// clean end). Delivered frames already buffered remain readable.
func (st *Stream) terminate(err error) {
	st.termOnce.Do(func() {
		st.termErr = err
		close(st.term)
	})
}

// Recv returns the next streamed frame, io.EOF at a clean end, or the
// error that terminated the stream. The context passed to Session.Stream
// governs it: cancellation abandons the stream.
func (st *Stream) Recv() (wire.Message, error) {
	st.mu.Lock()
	err := st.recvErr
	st.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// Buffered frames drain before the terminal state applies: the reader
	// pump delivered them all before it could mark termination.
	select {
	case msg := <-st.frames:
		st.ack()
		return msg, nil
	default:
	}
	select {
	case msg := <-st.frames:
		st.ack()
		return msg, nil
	case <-st.term:
		select {
		case msg := <-st.frames:
			st.ack()
			return msg, nil
		default:
		}
		st.mu.Lock()
		if st.recvErr == nil {
			st.recvErr = st.termErr
		}
		err := st.recvErr
		st.mu.Unlock()
		return nil, err
	case <-st.ctx.Done():
		err := st.ctx.Err()
		st.abandon(err)
		return nil, err
	}
}

// ack accounts one drained page and replenishes the server's credit in
// replenishPages batches. Skipped once the stream terminated (the final
// frame already arrived; further credit would be stale noise).
func (st *Stream) ack() {
	select {
	case <-st.term:
		return
	default:
	}
	st.mu.Lock()
	st.unacked++
	n := st.unacked
	if n < replenishPages {
		st.mu.Unlock()
		return
	}
	st.unacked = 0
	st.mu.Unlock()
	st.call.sess.sendCredit(st.call.id, n)
}

// Close abandons the stream: the server is told to stop paging, the call
// leaves the pending table, and any frames still arriving for it are
// discarded. Safe after EOF, idempotent, and safe concurrently with the
// final frame arriving.
func (st *Stream) Close() error {
	st.abandon(context.Canceled)
	return nil
}

// abandon cancels the underlying call and tells the server to stop paging
// (a zero-page credit grant); the tombstone left behind absorbs whatever
// frames were already in flight.
func (st *Stream) abandon(err error) {
	st.mu.Lock()
	if st.recvErr == nil {
		st.recvErr = err
	}
	st.mu.Unlock()
	st.goneOnce.Do(func() {
		close(st.gone)
		select {
		case <-st.term:
			// Already terminated: the server finished the stream on its
			// own; no cancel frame needed.
		default:
			st.call.sess.sendCredit(st.call.id, 0)
		}
	})
	st.call.sess.cancel(st.call, err)
}
