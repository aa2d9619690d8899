// Package client implements TimeCrypt's trusted client engine (paper §3.2):
// stream key management, chunk serialization and encryption for data
// producers, query decryption for data consumers, and grant issuance for
// data owners. All cryptography happens here; the server only ever sees
// ciphertexts and wrapped tokens.
package client

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/server"
	"repro/internal/wire"
)

// Transport carries protocol messages to a TimeCrypt server. The context
// governs the whole round trip: its deadline is propagated to the server in
// the request envelope, and cancellation abandons the exchange.
type Transport interface {
	// RoundTrip sends a request and returns the server's response
	// message (which may be *wire.Error).
	RoundTrip(ctx context.Context, req wire.Message) (wire.Message, error)
	// Close releases the transport.
	Close() error
}

// Doer is the asynchronous face of a multiplexed transport: Do returns an
// awaitable *Call without blocking for the response, so many requests
// overlap on one connection. Session and TCP implement it; callers (the
// pipelined Writer) type-assert and fall back to serial RoundTrips when
// the transport is not multiplexed.
type Doer interface {
	Do(ctx context.Context, req wire.Message) (*Call, error)
}

// Streamer is the streamed-response face of a multiplexed transport: the
// server pushes successive frames for one request. Only a wire.Subscribe
// is answered that way; subscriptions type-assert it and refuse
// transports without it.
type Streamer interface {
	Stream(ctx context.Context, req wire.Message) (*Stream, error)
}

// call performs a round trip and converts *wire.Error responses into Go
// errors, returning the typed response otherwise.
func call[T wire.Message](ctx context.Context, t Transport, req wire.Message) (T, error) {
	var zero T
	resp, err := t.RoundTrip(ctx, req)
	if err != nil {
		return zero, err
	}
	if e, ok := resp.(*wire.Error); ok {
		return zero, e
	}
	typed, ok := resp.(T)
	if !ok {
		return zero, fmt.Errorf("client: unexpected response type %T", resp)
	}
	return typed, nil
}

// InProc is a loopback transport that still exercises the full message
// codec (marshal → server dispatch → marshal), so in-process benchmarks
// measure serialization like the paper's single-machine runs do.
type InProc struct {
	// Engine is any request handler: a *server.Engine or a
	// cluster.Router over several of them.
	Engine server.Handler
}

// RoundTrip implements Transport.
func (p *InProc) RoundTrip(ctx context.Context, req wire.Message) (wire.Message, error) {
	reqBytes := wire.Marshal(req)
	decoded, err := wire.Unmarshal(reqBytes)
	if err != nil {
		return nil, err
	}
	resp := p.Engine.Handle(ctx, decoded)
	respBytes := wire.Marshal(resp)
	return wire.Unmarshal(respBytes)
}

// Close implements Transport.
func (p *InProc) Close() error { return nil }

// TCP is a client connection to a TimeCrypt server: a thin redialing
// facade over one multiplexed Session. Requests on one TCP transport
// genuinely overlap — concurrent RoundTrips share the socket, each tagged
// with its own correlation ID, and responses complete out of order — so a
// single connection serves many goroutines (open several transports only
// to spread load across sockets).
//
// Cancellation (context or deadline) abandons just the affected call; the
// connection stays healthy. Only connection breakage — I/O failure or a
// protocol violation — discards the session: every in-flight call then
// fails with ErrSessionBroken and the next use redials.
type TCP struct {
	addrs []string // candidate endpoints; addrs[0] is the preferred one
	opts  SessionOptions

	mu     sync.Mutex
	closed bool
	next   int // index of the endpoint the next (re)dial starts from
	sess   *Session
}

// DialTCP connects to a server address with default session options.
func DialTCP(addr string) (*TCP, error) {
	return DialTCPOptions(addr, SessionOptions{})
}

// DialTCPOptions connects with explicit session options (in-flight
// window).
func DialTCPOptions(addr string, opts SessionOptions) (*TCP, error) {
	return DialTCPFailover([]string{addr}, opts)
}

// DialTCPFailover connects to the first reachable endpoint of a
// replication group (or any set of equivalent front ends) and makes the
// transport failover-aware: when the session breaks, the redial walks the
// endpoint list from the one that failed, so a client pointed at
// "leader,follower" keeps working across a leader crash once the follower
// is promoted. Writes in flight at the moment of breakage still fail with
// ErrSessionBroken (their outcome is ambiguous — same contract as a
// single-endpoint transport); subsequent calls land on the survivor. A
// follower that is not yet promoted answers wire.CodeNotLeader, which is a
// response, not breakage — callers retry it like any server-side refusal.
func DialTCPFailover(addrs []string, opts SessionOptions) (*TCP, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: no addresses to dial")
	}
	t := &TCP{addrs: addrs, opts: opts}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := t.sessionLocked(); err != nil {
		return nil, err
	}
	return t, nil
}

// session returns the live session, redialing if the previous one broke.
func (t *TCP) session() (*Session, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sessionLocked()
}

func (t *TCP) sessionLocked() (*Session, error) {
	if t.closed {
		return nil, errors.New("client: transport closed")
	}
	if t.sess != nil {
		return t.sess, nil
	}
	var firstErr error
	for i := 0; i < len(t.addrs); i++ {
		addr := t.addrs[(t.next+i)%len(t.addrs)]
		sess, err := DialSession(addr, t.opts)
		if err == nil {
			t.next = (t.next + i) % len(t.addrs)
			t.sess = sess
			return sess, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// dropSession discards a broken session so the next use redials. Only the
// session that failed is dropped — a concurrent redial's fresh session
// survives.
func (t *TCP) dropSession(sess *Session) {
	t.mu.Lock()
	if t.sess == sess {
		t.sess = nil
	}
	t.mu.Unlock()
	sess.Close()
}

// checkBroken discards the session behind a broken-connection error.
func (t *TCP) checkBroken(sess *Session, err error) {
	if errors.Is(err, ErrSessionBroken) {
		t.dropSession(sess)
	}
}

// RoundTrip implements Transport: the context deadline is carried in the
// request envelope so the server abandons work the caller no longer
// wants, and cancellation abandons the call without poisoning the
// connection.
func (t *TCP) RoundTrip(ctx context.Context, req wire.Message) (wire.Message, error) {
	sess, err := t.session()
	if err != nil {
		return nil, err
	}
	resp, err := sess.RoundTrip(ctx, req)
	if err != nil {
		t.checkBroken(sess, err)
		return nil, err
	}
	return resp, nil
}

// Do implements Doer: issue a call without blocking for its response.
func (t *TCP) Do(ctx context.Context, req wire.Message) (*Call, error) {
	sess, err := t.session()
	if err != nil {
		return nil, err
	}
	c, err := sess.Do(ctx, req)
	if err != nil {
		t.checkBroken(sess, err)
		return nil, err
	}
	return c, nil
}

// Stream implements Streamer: open a streamed response.
func (t *TCP) Stream(ctx context.Context, req wire.Message) (*Stream, error) {
	sess, err := t.session()
	if err != nil {
		return nil, err
	}
	st, err := sess.Stream(ctx, req)
	if err != nil {
		t.checkBroken(sess, err)
		return nil, err
	}
	return st, nil
}

// Close implements Transport. In-flight calls fail immediately — Close
// never queues behind a stuck exchange.
func (t *TCP) Close() error {
	t.mu.Lock()
	t.closed = true
	sess := t.sess
	t.sess = nil
	t.mu.Unlock()
	if sess != nil {
		return sess.Close()
	}
	return nil
}
