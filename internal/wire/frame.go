package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrameSize bounds a single protocol frame (64 MiB), protecting both
// sides against memory exhaustion from corrupt or hostile peers.
const MaxFrameSize = 64 << 20

// ProtoVersion is the version of the request envelope. Version 2 added the
// per-request header (deadline propagation) and the Batch envelope.
// Version 3 made the transport multiplexed: every request carries a
// caller-assigned correlation ID, responses travel in their own envelope
// echoing that ID (and may arrive out of order), and a response may be one
// frame of a stream (FlagMore). Version 4 added live resharding — the
// topology, stream-snapshot, and handoff messages — and gave Error a
// structured Aux field (CodeWrongShard carries the topology epoch in it),
// which changed the Error encoding. Version 5 added live subscriptions —
// Subscribe/SubscribeResp/SubEvent push server-maintained encrypted window
// aggregates over the v3 streamed-response path, and Unsubscribe joins
// StreamCredit as connection-level flow control on correlation ID 0.
// Version 6 added per-shard replication and the write fence: the request
// envelope gained the sender's epoch (a router's topology epoch, or a
// replication group's lease epoch — 0 for plain clients), engines reject
// stale-epoch writes to fenced streams, and the
// ReplAppend/ReplAck/ReplSnapshot/Promote/LeaseInfo messages ship a
// leader's mutation log to followers and drive failover.
// Servers reject other versions with an Error frame on correlation ID 0
// before closing the connection, so mixed deployments fail loudly rather
// than desyncing frames. The full spec lives in docs/PROTOCOL.md.
const ProtoVersion = 6

// ErrProtoVersion reports a request framed for a different protocol
// version. The server front end matches on it to answer a parseable error
// before hanging up (its negotiation story: one version per build, loud
// rejection of everything else).
var ErrProtoVersion = errors.New("wire: protocol version mismatch")

// MaxTimeoutMS caps the request time budget (one year): anything larger is
// effectively unbounded, and unchecked values would overflow
// time.Duration multiplication.
const MaxTimeoutMS = 365 * 24 * 3600 * 1000

// Response envelope flags.
const (
	// FlagMore marks an intermediate frame of a streamed response:
	// further frames tagged with the same correlation ID follow. The
	// final frame of a stream (and the only frame of a unary response)
	// clears it.
	FlagMore uint8 = 1 << 0

	// flagsKnown masks the flag bits this build understands; anything
	// else is a protocol error, not silently-ignored extension space.
	flagsKnown = FlagMore
)

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: short frame: %w", err)
	}
	return payload, nil
}

// WriteRequest frames one request with its envelope header: protocol
// version, the caller-assigned correlation ID, and the caller's remaining
// time budget in milliseconds (0 = none). The correlation ID lets many
// requests ride one connection concurrently — the server echoes it on the
// response envelope, so responses may complete out of order. The budget
// rides in every request frame so the server can abort work — including
// fan-outs behind a cluster router — once the caller has given up. A
// relative duration (not an absolute timestamp) survives client/server
// clock skew; in-flight transit only makes the server's reconstructed
// deadline slightly generous, never spuriously expired. The message
// encodes in place after the header (no intermediate buffer — this is the
// ingest hot path).
//
// Version 6 added the sender's epoch to the envelope; WriteRequest sends
// epoch 0 (a plain client with no epoch to assert) — senders acting on an
// epoch'd view (cluster routers, replication leaders) use
// WriteRequestEpoch.
func WriteRequest(w io.Writer, id uint64, timeoutMS int64, m Message) error {
	return WriteRequestEpoch(w, id, timeoutMS, 0, m)
}

// WriteRequestEpoch is WriteRequest with an explicit sender epoch: the
// topology epoch of the routing table (or lease epoch of the replication
// role) the sender believes it is acting under. Engines compare it against
// per-stream write fences and reject stale-epoch mutations
// (CodeWrongShard), which is what makes reshard drains and leader failover
// lose nothing.
func WriteRequestEpoch(w io.Writer, id uint64, timeoutMS int64, epoch uint64, m Message) error {
	e := getEncoder()
	e.U8(ProtoVersion)
	e.U64(id)
	e.I64(timeoutMS)
	e.U64(epoch)
	e.U8(uint8(m.Type()))
	m.codec(Codec{e: e})
	err := writeFramed(w, e)
	putEncoder(e)
	return err
}

// DecodeRequest splits a request frame payload into the correlation ID,
// the envelope time budget (ms, 0 = none), the sender's epoch (0 = none
// asserted), and the message.
func DecodeRequest(payload []byte) (uint64, int64, uint64, Message, error) {
	d := NewDecoder(payload)
	version := d.U8()
	id := d.U64()
	timeoutMS := d.I64()
	epoch := d.U64()
	if err := d.Err(); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("wire: request header: %w", err)
	}
	if version != ProtoVersion {
		return 0, 0, 0, nil, fmt.Errorf("%w: peer speaks %d, this build speaks %d", ErrProtoVersion, version, ProtoVersion)
	}
	if timeoutMS < 0 {
		return 0, 0, 0, nil, fmt.Errorf("wire: negative request timeout %d", timeoutMS)
	}
	if timeoutMS > MaxTimeoutMS {
		// Clamp rather than reject: a hostile (or future) peer claiming an
		// absurd budget must not overflow duration arithmetic server-side
		// into an instantly-expired context.
		timeoutMS = MaxTimeoutMS
	}
	m, err := Unmarshal(d.Rest())
	if err != nil {
		return 0, 0, 0, nil, err
	}
	return id, timeoutMS, epoch, m, nil
}

// WriteResponse frames one response envelope: the correlation ID of the
// request it answers, a flag byte (FlagMore for intermediate stream
// frames), and the message encoded in place.
func WriteResponse(w io.Writer, id uint64, more bool, m Message) error {
	e := getEncoder()
	e.U64(id)
	if more {
		e.U8(FlagMore)
	} else {
		e.U8(0)
	}
	e.U8(uint8(m.Type()))
	m.codec(Codec{e: e})
	err := writeFramed(w, e)
	putEncoder(e)
	return err
}

// DecodeResponse splits a response frame payload into correlation ID, the
// more-frames-follow flag, and the message.
func DecodeResponse(payload []byte) (uint64, bool, Message, error) {
	d := NewDecoder(payload)
	id := d.U64()
	flags := d.U8()
	if err := d.Err(); err != nil {
		return 0, false, nil, fmt.Errorf("wire: response header: %w", err)
	}
	if flags&^flagsKnown != 0 {
		return 0, false, nil, fmt.Errorf("wire: unknown response flags %#x", flags)
	}
	m, err := Unmarshal(d.Rest())
	if err != nil {
		return 0, false, nil, err
	}
	return id, flags&FlagMore != 0, m, nil
}
