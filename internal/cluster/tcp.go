package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/wire"
)

// tcpShard forwards requests to a remote TimeCrypt engine over the wire
// protocol. One multiplexed connection (client.TCP over a v3 Session)
// carries all of the router's traffic to the peer: concurrent fan-out
// sub-requests overlap on the socket with their own correlation IDs
// instead of queueing on a pool of serialized exchanges. If the peer
// restarts, every in-flight call observes the broken-connection error at
// once; each is retried exactly once on the transparently redialed
// session, so a restart heals without restarting the router.
type tcpShard struct {
	addr   string
	closed atomic.Bool
	conn   *client.TCP
}

// NewTCPShard dials a remote engine at addr and returns it as a routable
// shard. inflight bounds the shard's concurrently in-flight requests on
// the multiplexed connection (<= 0 means the session default; it replaces
// the connection-pool size of the pre-v3 serialized transport). The
// connection is closed by Router.Close.
func NewTCPShard(name, addr string, inflight int) (Shard, error) {
	conn, err := client.DialTCPOptions(addr, client.SessionOptions{Window: inflight})
	if err != nil {
		return Shard{}, fmt.Errorf("cluster: shard %q: %w", name, err)
	}
	return Shard{Name: name, Handler: &tcpShard{addr: addr, conn: conn}}, nil
}

// Handle implements server.Handler by forwarding over TCP: the caller's
// deadline rides the request envelope to the remote engine, and a canceled
// context abandons the call (the connection survives). A broken connection
// fails every in-flight call at once; read-only calls are retried exactly
// once against the redialed session — concurrent in-flight reads to a
// restarted peer all heal independently — while writes (ambiguous outcome)
// surface as internal protocol errors like any other shard failure.
func (t *tcpShard) Handle(ctx context.Context, req wire.Message) wire.Message {
	if t.closed.Load() {
		return &wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("cluster: shard %s: closed", t.addr)}
	}
	resp, err := t.conn.RoundTrip(ctx, req)
	if err != nil && errors.Is(err, client.ErrSessionBroken) && wire.KindOf(req) == wire.KindRead && ctx.Err() == nil && !t.closed.Load() {
		resp, err = t.conn.RoundTrip(ctx, req)
	}
	if err != nil {
		if ctx.Err() != nil {
			return canceled(ctx.Err())
		}
		return &wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("cluster: shard %s: %v", t.addr, err)}
	}
	return resp
}

// Close closes the shard's connection; in-flight calls fail and the shard
// stops redialing.
func (t *tcpShard) Close() error {
	t.closed.Store(true)
	return t.conn.Close()
}
