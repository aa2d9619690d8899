package replica

import (
	"bytes"
	"sync"
	"sync/atomic"

	"repro/internal/kv"
)

// frameStore is the store a node's engine runs on: a view of the node's
// real store that buffers writes while a follower replays a ReplAppend
// frame, so the frame's records — each an engine mutation that commits one
// batch of its own — reach the real store as ONE batch: on a durable store
// one WAL record and one fsync wait per frame instead of one per record.
//
// While no frame is open every call passes straight through, so the leader
// path, a standalone node and snapshot installs behave exactly as on the
// bare store. While one is open, writes are appended to the pending batch
// and mirrored in an overlay that Get consults first: the engine replaying
// record i+1 — and a client reading from this follower — sees record i's
// writes although the real store does not hold them yet. Scan, Len and
// SizeBytes flush what is pending first (they are rare inside a mutation),
// which costs that frame a second batch and nothing else.
//
// Safe for concurrent use: one frame's records may fan out over goroutines
// (a Batch envelope applies its streams concurrently) and clients read
// while it replays.
type frameStore struct {
	kv.Store // the node's real store

	// buffering is true while a frame is open. It changes under mu; the
	// pass-through paths read it without.
	buffering atomic.Bool

	mu      sync.RWMutex
	ops     []kv.Op           // the frame's writes so far, in apply order
	overlay map[string][]byte // key -> its pending value; nil = pending delete
	err     error             // the first flush failure of the open frame
}

// begin opens a frame: writes buffer until end.
func (s *frameStore) begin() {
	s.mu.Lock()
	s.overlay = make(map[string][]byte)
	s.buffering.Store(true)
	s.mu.Unlock()
}

// end commits the frame's pending writes to the real store as one batch and
// returns to pass-through. A non-nil error means some of the frame's writes
// are in neither the store nor the overlay any more: whatever applied them
// is now ahead of the store.
func (s *frameStore) end() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	err := s.err
	s.overlay, s.err = nil, nil
	s.buffering.Store(false)
	return err
}

// flushLocked moves the pending writes into the real store. The overlay is
// emptied only afterwards, so a reader never finds a key in neither.
func (s *frameStore) flushLocked() {
	if len(s.ops) == 0 {
		return
	}
	if err := s.Store.Batch(s.ops); err != nil && s.err == nil {
		s.err = err
	}
	s.ops = nil
	clear(s.overlay)
}

// buffer takes ops into the open frame; it reports false when no frame is
// open and the caller must write through.
func (s *frameStore) buffer(ops []kv.Op) bool {
	if !s.buffering.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.buffering.Load() {
		return false // the frame ended while we waited for the lock
	}
	// The caller's values are only valid for the call (the index stages
	// them in pooled memory): copy them into one block of the frame's own.
	size := 0
	for _, op := range ops {
		if op.Kind == kv.OpPut {
			size += len(op.Value)
		}
	}
	block := make([]byte, 0, size)
	for _, op := range ops {
		if op.Kind == kv.OpPut {
			off := len(block)
			block = append(block, op.Value...)
			op.Value = block[off:len(block):len(block)]
		} else {
			op.Value = nil
		}
		s.ops = append(s.ops, op)
		s.overlay[op.Key] = op.Value
	}
	return true
}

// Get implements kv.Store: a copy of GetShallow's value.
func (s *frameStore) Get(key string) ([]byte, error) {
	v, err := s.GetShallow(key)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(v), nil
}

// GetShallow implements kv.ShallowGetter: the open frame's pending write of
// key, if any, else the real store's (its GetShallow if it has one, else
// its Get). A pending value lies in its frame's own block, which is never
// written again. Without this method the engine's index would find no
// ShallowGetter behind a node's store, because the embedded kv.Store does
// not carry the real store's other methods.
func (s *frameStore) GetShallow(key string) ([]byte, error) {
	if s.buffering.Load() {
		s.mu.RLock()
		v, pending := s.overlay[key]
		s.mu.RUnlock()
		if pending {
			if v == nil {
				return nil, kv.ErrNotFound
			}
			return v, nil
		}
	}
	if sg, ok := s.Store.(kv.ShallowGetter); ok {
		return sg.GetShallow(key)
	}
	return s.Store.Get(key)
}

// Put implements kv.Store.
func (s *frameStore) Put(key string, value []byte) error {
	if s.buffer([]kv.Op{{Kind: kv.OpPut, Key: key, Value: value}}) {
		return nil
	}
	return s.Store.Put(key, value)
}

// Delete implements kv.Store.
func (s *frameStore) Delete(key string) error {
	if s.buffer([]kv.Op{{Kind: kv.OpDelete, Key: key}}) {
		return nil
	}
	return s.Store.Delete(key)
}

// Batch implements kv.Store.
func (s *frameStore) Batch(ops []kv.Op) error {
	if s.buffer(ops) {
		return nil
	}
	return s.Store.Batch(ops)
}

// flushOpen moves an open frame's pending writes into the real store, for
// the calls that read the real store as a whole.
func (s *frameStore) flushOpen() error {
	if !s.buffering.Load() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	return s.err
}

// Scan implements kv.Store, flushing an open frame's pending writes first
// so the real store's scan sees them.
func (s *frameStore) Scan(prefix string, fn func(key string, value []byte) bool) error {
	if err := s.flushOpen(); err != nil {
		return err
	}
	return s.Store.Scan(prefix, fn)
}

// Len and SizeBytes implement kv.Store, counting an open frame's pending
// writes. A flush failure stays with the frame for end to report.
func (s *frameStore) Len() int         { s.flushOpen(); return s.Store.Len() }
func (s *frameStore) SizeBytes() int64 { s.flushOpen(); return s.Store.SizeBytes() }
