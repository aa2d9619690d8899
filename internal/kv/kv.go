// Package kv provides the storage substrate TimeCrypt persists chunks and
// index nodes into. The paper's prototype used Cassandra purely as a
// key-value store; this package states that contract (Store) and supplies a
// sharded in-memory engine for it, so the rest of the system is
// storage-agnostic (paper §4.6, "TimeCrypt can be plugged-in with any
// scalable key-value store"). Durability is kv/durable's, which compacts
// into this package's snapshot format.
package kv

import (
	"errors"
	"fmt"
)

// ErrNotFound is returned by Get when no value exists for a key.
var ErrNotFound = errors.New("kv: key not found")

// OpKind discriminates batch operations.
type OpKind int

const (
	// OpPut stores Value under Key.
	OpPut OpKind = iota
	// OpDelete removes Key.
	OpDelete
)

// Op is one mutation in a Batch.
type Op struct {
	Kind  OpKind
	Key   string
	Value []byte
}

// Store is the minimal key-value contract the server engine needs. All
// implementations must be safe for concurrent use.
type Store interface {
	// Get returns the value for key, or ErrNotFound.
	Get(key string) ([]byte, error)
	// Put stores value under key, replacing any existing value.
	Put(key string, value []byte) error
	// Delete removes key; deleting a missing key is not an error.
	Delete(key string) error
	// Batch applies ops as one unit in three senses: a batch the store
	// refuses (an oversized value) applies none of them, a crash image
	// holds all of them or none, and once Batch returns nil a later Get or
	// Scan sees all of them. A reader running during Batch may see some
	// ops without the rest: MemStore applies them one shard lock at a
	// time, and durable.Store applies them to its in-memory mirror the
	// same way. The engine needs no more. It writes each mutation (a chunk
	// batch with its index ancestors and meta key) as one Batch, an index
	// tree publishes its new count only after that Batch returns, and
	// queries read only below the published count. The crash guarantee is
	// what keeps digests from being folded twice after a crash;
	// TestInsertCrashPoints in internal/server depends on it.
	Batch(ops []Op) error
	// Scan visits every key with the given prefix in unspecified order
	// until fn returns false.
	Scan(prefix string, fn func(key string, value []byte) bool) error
	// Len reports the number of stored keys.
	Len() int
	// SizeBytes reports the approximate resident size of keys + values.
	SizeBytes() int64
	// Close releases resources.
	Close() error
}

// ShallowScanner is an optional Store capability: ScanShallow visits every
// key with the given prefix like Scan, but hands fn slices of the store's
// own memory instead of copies. Implementations guarantee those bytes are
// never written again — MemStore's pages are append-only, a later Put
// appends the new value elsewhere, and reclaiming space copies live
// entries out of old pages without touching them — so callers may retain
// the slices read-only. Bulk readers (replication snapshots) use this to
// capture a consistent image of a quiesced store in O(keys) header copies
// instead of duplicating every value byte.
type ShallowScanner interface {
	ScanShallow(prefix string, fn func(key string, value []byte) bool) error
}

// ShallowGetter is an optional Store capability: GetShallow is Get without
// the copy, under ShallowScanner's contract. The returned slice is the
// store's own memory and is never written again, so the caller may read it
// for as long as it likes but must not write it. The store does not keep
// key past the call, so a caller may build it in a scratch buffer. The
// index reads its nodes this way: a query decodes each node straight from
// the store instead of from a private copy.
type ShallowGetter interface {
	GetShallow(key string) ([]byte, error)
}

// Stats aggregates operation counters for observability.
type Stats struct {
	Gets      uint64
	GetMisses uint64
	Puts      uint64
	Deletes   uint64
	Scans     uint64
}

// String renders stats for logs.
func (s Stats) String() string {
	return fmt.Sprintf("gets=%d misses=%d puts=%d deletes=%d scans=%d",
		s.Gets, s.GetMisses, s.Puts, s.Deletes, s.Scans)
}
