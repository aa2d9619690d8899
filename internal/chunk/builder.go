package chunk

import (
	"fmt"
)

// Builder batches in-order points into fixed-interval chunks (the paper's
// client-side chunking at intervals of size Δ, §4.3). Chunk i covers
// [t0 + i·Δ, t0 + (i+1)·Δ). Because HEAC's key canceling requires a digest
// ciphertext at every chunk position, the builder emits empty chunks for
// intervals that received no points.
type Builder struct {
	t0       int64 // stream epoch (start of chunk 0), Unix ms
	interval int64 // Δ in ms
	next     uint64
	cur      []Point
	started  bool
}

// NewBuilder creates a builder for a stream starting at epoch t0 with chunk
// interval Δ (both in milliseconds).
func NewBuilder(t0, interval int64) (*Builder, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("chunk: interval must be positive, got %d", interval)
	}
	return &Builder{t0: t0, interval: interval}, nil
}

// NextIndex returns the index of the chunk currently being filled.
func (b *Builder) NextIndex() uint64 { return b.next }

// Raw is one completed plaintext chunk emitted by the builder.
type Raw struct {
	Index      uint64
	Start, End int64
	Points     []Point
}

// IndexFor maps a timestamp to its chunk index.
func (b *Builder) IndexFor(ts int64) (uint64, error) {
	if ts < b.t0 {
		return 0, fmt.Errorf("chunk: timestamp %d before stream epoch %d", ts, b.t0)
	}
	return uint64((ts - b.t0) / b.interval), nil
}

// SkipTo advances the builder so the next emitted chunk is idx, for
// callers that persisted chunks out-of-band (bulk loading). It refuses to
// go backwards or to discard buffered points.
func (b *Builder) SkipTo(idx uint64) error {
	if idx < b.next {
		return fmt.Errorf("chunk: cannot skip backwards to %d (at %d)", idx, b.next)
	}
	if len(b.cur) > 0 {
		return fmt.Errorf("chunk: cannot skip with %d buffered points", len(b.cur))
	}
	b.next = idx
	return nil
}

// Add appends a point and returns the chunks completed by it (zero or more:
// a point that skips intervals completes the current chunk plus empty gap
// chunks). Points must arrive in non-decreasing timestamp order.
func (b *Builder) Add(p Point) ([]Raw, error) {
	idx, err := b.IndexFor(p.TS)
	if err != nil {
		return nil, err
	}
	if idx < b.next {
		return nil, fmt.Errorf("chunk: point at %d belongs to already-emitted chunk %d (current %d)", p.TS, idx, b.next)
	}
	if n := len(b.cur); n > 0 && p.TS < b.cur[n-1].TS {
		return nil, fmt.Errorf("chunk: out-of-order point %d after %d", p.TS, b.cur[n-1].TS)
	}
	var done []Raw
	for b.next < idx {
		done = append(done, b.take())
	}
	b.cur = append(b.cur, p)
	b.started = true
	return done, nil
}

// take emits the current chunk (possibly empty) and advances.
func (b *Builder) take() Raw {
	start := b.t0 + int64(b.next)*b.interval
	r := Raw{Index: b.next, Start: start, End: start + b.interval, Points: b.cur}
	b.cur = nil
	b.next++
	return r
}

// Flush completes and returns the in-progress chunk, or nil if no points
// are pending. Use at stream shutdown.
func (b *Builder) Flush() *Raw {
	if len(b.cur) == 0 {
		return nil
	}
	r := b.take()
	return &r
}
