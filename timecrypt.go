// Package timecrypt is the public API of this TimeCrypt reproduction: an
// encrypted time series data store with additively homomorphic encryption
// (HEAC) and cryptographic access control (NSDI 2020).
//
// The package re-exports the client and server engines behind stable
// names. The API is context-first: every operation that reaches the server
// takes a context.Context, whose deadline rides the wire to the server so
// abandoned work is aborted engine-side. A minimal end-to-end flow:
//
//	ctx := context.Background()
//	store := timecrypt.NewMemStore()
//	engine, _ := timecrypt.NewEngine(store, timecrypt.EngineConfig{})
//	owner := timecrypt.NewOwner(timecrypt.NewInProcTransport(engine))
//	s, _ := owner.CreateStream(ctx, timecrypt.StreamOptions{
//		UUID: "heart-rate", Epoch: epochMS, Interval: 10_000,
//	})
//	_ = s.Append(ctx, timecrypt.Point{TS: epochMS, Val: 72})
//	res, _ := s.StatRange(ctx, epochMS, epochMS+3_600_000)
//
// High-throughput producers ingest through the pipelined writer, which
// seals chunks ahead of server acknowledgements and ships them in batch
// envelopes (one round trip per WriterOptions.BatchChunks chunks):
//
//	w, _ := s.Writer(ctx, timecrypt.WriterOptions{})
//	for _, p := range points {
//		_ = w.Append(p)
//	}
//	err := w.Close() // collected ingest errors surface here
//
// Series reads page lazily through a query cursor instead of materializing
// the whole window slice:
//
//	it := s.Query().Range(ts, te).Window(6).Iter(ctx)
//	for it.Next() {
//		use(it.Result())
//	}
//	err = it.Err()
//
// Query plans aggregate across streams server-side — ciphertexts are
// additively combinable, so "average over all patients" is one round trip
// per page, not one per stream — and typed statistic selectors project the
// response down to exactly the digest elements the selection needs:
//
//	it := a.Query().Streams(b, c).Range(ts, te).Window(6).Stats(timecrypt.Sum, timecrypt.Mean).Iter(ctx)
//	for it.Next() {
//		agg := it.Agg()
//		use(agg.Mean())
//	}
//
// Decryption requires key material for every member stream (ownership or
// grants at a compatible resolution): the combined result is encrypted
// under the sum of the members' keystreams.
//
// Sharing: generate a consumer key pair, then s.Grant(pub, from, to,
// factor) — factor 0 grants full resolution, factor f >= 2 restricts the
// principal to f-chunk aggregates, enforced by encryption rather than
// server policy (see the package docs of internal/core for the scheme).
package timecrypt

import (
	"context"
	"net"

	"repro/internal/chunk"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/crypto/hybrid"
	"repro/internal/kv"
	"repro/internal/server"
)

// Re-exported data types.
type (
	// Point is one time series record (Unix-ms timestamp, integer value).
	Point = chunk.Point
	// DigestSpec selects the per-chunk statistics a stream supports.
	DigestSpec = chunk.DigestSpec
	// Compression selects the chunk payload codec.
	Compression = chunk.Compression
	// Result is a decrypted statistical answer.
	Result = chunk.Result
	// FitResult is a privately fitted linear model (LinFit digests).
	FitResult = chunk.FitResult
	// FixedPoint scales float readings onto HEAC's integer domain.
	FixedPoint = chunk.FixedPoint
	// StatResult is a Result with its time extent.
	StatResult = client.StatResult
	// StreamOptions configures stream creation.
	StreamOptions = client.StreamOptions
	// Owner is the data-owner/producer client.
	Owner = client.Owner
	// OwnerStream is an owned stream handle (ingest, grants, queries).
	OwnerStream = client.OwnerStream
	// Consumer is a data-consumer client (principal).
	Consumer = client.Consumer
	// ConsumerStream is a principal's view of a granted stream.
	ConsumerStream = client.ConsumerStream
	// KeyPair is a principal identity key.
	KeyPair = hybrid.KeyPair
	// Transport carries protocol messages to a server.
	Transport = client.Transport
	// Writer is the asynchronous pipelined ingest path of a stream.
	Writer = client.Writer
	// WriterOptions tunes a pipelined ingest writer.
	WriterOptions = client.WriterOptions
	// QueryBuilder assembles a statistical query plan fluently.
	QueryBuilder = client.QueryBuilder
	// Cursor pages a windowed statistical query lazily (one round trip
	// per page).
	Cursor = client.Cursor
	// Stat is a typed statistic selector for query plans.
	Stat = client.Stat
	// StatSet is a bitmask of selected statistics.
	StatSet = chunk.StatSet
	// Agg is one decrypted window of a typed query plan (combined across
	// member streams, carrying only the selected statistics).
	Agg = client.Agg
	// Queryable is any stream handle a query plan can aggregate over
	// (OwnerStream, ConsumerStream).
	Queryable = client.Queryable
	// Subscription iterates the live deltas of a subscribed query plan:
	// the server maintains the encrypted window aggregate and pushes one
	// delta per completed window (Query().Window(n).Subscribe(ctx)).
	Subscription = client.Subscription
	// Delta is one live update of a subscribed plan: the decrypted
	// combined aggregate of one completed window.
	Delta = client.Delta
	// Session is one multiplexed connection: concurrent in-flight calls
	// with correlation IDs, out-of-order completion, streamed responses.
	Session = client.Session
	// SessionOptions tunes a session (in-flight window).
	SessionOptions = client.SessionOptions
	// Call is an awaitable in-flight request on a Session.
	Call = client.Call
	// Engine is the untrusted server engine. Its entry point is Handle,
	// which answers one wire request: the protocol is its API.
	Engine = server.Engine
	// EngineConfig parameterizes the server engine.
	EngineConfig = server.Config
	// Handler is the transport-independent server contract (an Engine or
	// a Router).
	Handler = server.Handler
	// Server is the TCP front end.
	Server = server.Server
	// Router shards one logical service across several engines.
	Router = cluster.Router
	// Shard names one engine shard behind a Router.
	Shard = cluster.Shard
	// RouterOptions tunes Router construction.
	RouterOptions = cluster.Options
	// Topology is the Router's versioned ring membership; Router.Rebalance
	// changes it online, migrating the affected streams while serving.
	Topology = cluster.Topology
	// RebalanceReport summarizes a completed membership change.
	RebalanceReport = cluster.RebalanceReport
	// Store is the key-value storage contract.
	Store = kv.Store
	// PRGKind selects the key-tree PRG construction.
	PRGKind = core.PRGKind
)

// Compression codecs. Zlib, the default, is applied to the chunks it
// shrinks; None to none.
const (
	CompressionZlib = chunk.CompressionZlib
	CompressionNone = chunk.CompressionNone
)

// Typed statistic selectors for Query().Stats(...): the plan fetches (and
// decrypts) only the digest elements the selection needs.
const (
	Sum   = client.Sum
	Count = client.Count
	Mean  = client.Mean
	Var   = client.Var
	Stdev = client.Stdev
	Hist  = client.Hist
)

// Key-tree PRG constructions (see Fig. 6 of the paper for the trade-off).
const (
	PRGAES    = core.PRGAES
	PRGSHA256 = core.PRGSHA256
	PRGHMAC   = core.PRGHMAC
)

// NewMemStore returns the in-memory KV store (the Cassandra substitute).
func NewMemStore() *kv.MemStore { return kv.NewMemStore() }

// NewEngine creates a server engine over a store.
func NewEngine(store Store, cfg EngineConfig) (*Engine, error) { return server.New(store, cfg) }

// NewTCPServer wraps a handler (an engine or a router) in the TCP front
// end; logf may be nil.
func NewTCPServer(h Handler, logf func(string, ...any)) *Server {
	return server.NewServer(h, logf)
}

// NewRouter shards one logical service across the given engine shards by
// consistent hashing on stream UUIDs.
func NewRouter(shards []Shard, opts RouterOptions) (*Router, error) {
	return cluster.NewRouter(shards, opts)
}

// NewTCPShard dials a remote engine as a routable shard over one
// multiplexed connection; inflight bounds its concurrent requests (<= 0 =
// default).
func NewTCPShard(name, addr string, inflight int) (Shard, error) {
	return cluster.NewTCPShard(name, addr, inflight)
}

// NewPrefixStore partitions a store under a key prefix, so several engine
// shards can share one backing store.
func NewPrefixStore(base Store, prefix string) Store { return kv.NewPrefixStore(base, prefix) }

// ServeTCP runs a server on the listener until ctx is cancelled.
func ServeTCP(ctx context.Context, srv *Server, lis net.Listener) error {
	return srv.Serve(ctx, lis)
}

// NewInProcTransport connects a client directly to a handler (an engine or
// a router) in the same process (still exercising the wire codec).
func NewInProcTransport(h Handler) Transport { return &client.InProc{Engine: h} }

// DialTCP connects a client transport to a remote server: one multiplexed
// connection carrying concurrent requests (redialed transparently if it
// breaks).
func DialTCP(addr string) (Transport, error) { return client.DialTCP(addr) }

// DialSession connects a raw multiplexed session for callers that want
// the asynchronous Do/Stream API rather than blocking round trips.
func DialSession(addr string, opts SessionOptions) (*Session, error) {
	return client.DialSession(addr, opts)
}

// NewOwner creates a data-owner client over a transport.
func NewOwner(t Transport) *Owner { return client.NewOwner(t) }

// NewConsumer creates a data-consumer client with its identity key pair.
func NewConsumer(t Transport, kp *KeyPair) *Consumer { return client.NewConsumer(t, kp) }

// GenerateKeyPair creates a principal identity key pair.
func GenerateKeyPair() (*KeyPair, error) { return hybrid.GenerateKeyPair() }

// KeyPairFromBytes restores a key pair saved with KeyPair.PrivateBytes.
func KeyPairFromBytes(priv []byte) (*KeyPair, error) { return hybrid.KeyPairFromBytes(priv) }

// DefaultSpec returns the digest configuration supporting the paper's
// default query set (sum, count, mean, var, freq, min/max).
func DefaultSpec() DigestSpec { return chunk.DefaultSpec() }

// SumOnlySpec returns the single-statistic digest used in microbenchmarks.
func SumOnlySpec() DigestSpec { return chunk.SumOnlySpec() }

// PrincipalID derives the server-side identity string for a public key.
func PrincipalID(pub []byte) string { return client.PrincipalID(pub) }
