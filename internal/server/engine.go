// Package server implements TimeCrypt's untrusted server engine (paper
// §3.2): it ingests encrypted chunks, maintains the encrypted statistical
// index, answers range and statistical queries over ciphertexts, and hosts
// the key store of wrapped access grants and resolution key envelopes. The
// engine never holds key material and never sees plaintext.
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/index"
	"repro/internal/kv"
	"repro/internal/sub"
	"repro/internal/wire"
)

// stripeCount is the stream-table stripe count, a power of two. 64 stripes
// keep stripe-lock contention negligible under the paper's 100-thread load
// generator while costing a few KB of empty maps.
const stripeCount = 64

// Config parameterizes an engine instance.
type Config struct {
	// CacheBytes is the per-stream index node cache budget; <= 0 means no
	// cache: leaves are read in place from the store and complete inner
	// nodes kept in per-level arrays (index.Config). The paper's Fig. 7 "S"
	// experiments set this to 1 MB.
	CacheBytes int64
}

// Engine is a stateless (all state in the KV store) TimeCrypt server. It is
// safe for concurrent use; TimeCrypt instances are horizontally scalable by
// pointing several engines at one store (§3.2), or by routing streams
// across engines with a cluster.Router.
//
// The in-memory stream table is lock-striped: stream UUIDs hash (FNV-1a)
// onto a fixed power-of-two number of stripes, each with its own RWMutex,
// so concurrent ingest and queries on different streams never contend on a
// global lock. A UUID's table entry is all the per-stream state the engine
// holds in memory: its order lock, its live stream, its write fence and its
// migration tombstone. Every mutation naming a stream takes the entry's
// order lock, migration messages for a UUID this shard does not serve
// included: they get a bare entry, which goes again once it guards nothing.
type Engine struct {
	store kv.Store
	cfg   Config

	stripes []streamStripe

	// topo is the last cluster topology a reshard coordinator published
	// to this shard (TopologyUpdate); stale routers recover it through
	// TopologyInfo. Persisted under the "topo" key.
	topoMu sync.Mutex
	topo   wire.TopologyInfoResp

	// subs is the live-subscription broker: materialized window
	// aggregates updated on every ingest and fanned out to watchers.
	// Publish calls cost one atomic load while nothing is subscribed.
	subs *sub.Broker
}

type streamStripe struct {
	mu      sync.RWMutex      // 24 bytes
	entries map[string]*entry // 8 bytes
	_       [32]byte          // pad to one 64-byte cache line per stripe
}

// stripeHash is the FNV-1a hash that maps a stream UUID onto its
// stream-table stripe. Inline, because hash/fnv's interface value and the
// []byte conversion would allocate on every routed request.
func stripeHash(uuid string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(uuid); i++ {
		h ^= uint32(uuid[i])
		h *= 16777619
	}
	return h
}

func (e *Engine) stripeFor(uuid string) *streamStripe {
	return &e.stripes[stripeHash(uuid)%stripeCount]
}

// entry is a UUID's one slot in the stream table.
type entry struct {
	// mu is the order lock: every mutation naming the UUID holds it from
	// its fence check through its store write (see Apply).
	mu sync.Mutex
	// live is the stream served under the UUID; nil while the entry is
	// bare. It is published whole and read without mu, because reads take
	// no order lock: a delete or handoff release clears it before its
	// retiring store write, so a read from then on answers as a miss.
	live atomic.Pointer[stream]
	// fence is the armed write fence's epoch, 0 when none (see fence.go).
	// Guarded by mu; in memory only by design.
	fence uint64
	// moved is the topology epoch at which the stream migrated away, 0 when
	// it did not. Requests for a moved stream answer wire.CodeWrongShard
	// with it so a caller holding a stale ring refreshes its topology
	// instead of treating the stream as gone. Persisted under "mv/" keys;
	// read without mu on a lookup miss.
	moved atomic.Uint64
	// gone marks an entry taken out of the table; a request that waited
	// for mu on it looks the UUID up again. Guarded by mu.
	gone bool
}

// stream is one incarnation of a live stream.
type stream struct {
	mu   *sync.Mutex // its entry's order lock, which guards the staged-record index
	cfg  wire.StreamConfig
	tree *index.Tree

	// Staged-record index: chunk index -> staged sequence numbers. It
	// names the exact store keys a sealed chunk must garbage-collect,
	// replacing the O(store-size) prefix scan the engine used to run on
	// every InsertChunk. Rebuilt lazily from the store on first touch so
	// restarts recover records staged by a previous instance.
	staged       map[uint64]map[uint64]struct{}
	stagedLoaded bool
}

// held is one request's hold on a UUID's order lock.
type held struct {
	uuid string
	en   *entry
}

// lockOrder takes uuid's order lock, entering a bare entry for it if the
// table has none.
func (e *Engine) lockOrder(uuid string) held {
	st := e.stripeFor(uuid)
	for {
		st.mu.RLock()
		en := st.entries[uuid]
		st.mu.RUnlock()
		if en == nil {
			st.mu.Lock()
			if en = st.entries[uuid]; en == nil {
				en = new(entry)
				st.entries[uuid] = en
			}
			st.mu.Unlock()
		}
		en.mu.Lock()
		if !en.gone {
			return held{uuid: uuid, en: en}
		}
		en.mu.Unlock() // taken out while this request waited
	}
}

// unlockOrder releases h, first taking its entry out of the table if it
// guards nothing: no live stream, no fence, no tombstone.
func (e *Engine) unlockOrder(h *held) {
	en := h.en
	if en.live.Load() == nil && en.fence == 0 && en.moved.Load() == 0 {
		st := e.stripeFor(h.uuid)
		st.mu.Lock()
		delete(st.entries, h.uuid)
		st.mu.Unlock()
		en.gone = true
	}
	en.mu.Unlock()
}

// live returns the stream served under h's UUID, or the error for a UUID
// with none: not found, or CodeWrongShard with the topology epoch of the
// move if it migrated away, so a caller holding a stale ring refreshes it.
// h.en is nil for a UUID with no table entry.
func (h held) live() (*stream, error) {
	if h.en != nil {
		if s := h.en.live.Load(); s != nil {
			return s, nil
		}
		if epoch := h.en.moved.Load(); epoch != 0 {
			return nil, &movedError{uuid: h.uuid, epoch: epoch}
		}
	}
	return nil, fmt.Errorf("server: stream %q: %w", h.uuid, errStreamNotFound)
}

// New creates an engine over the given store.
func New(store kv.Store, cfg Config) (*Engine, error) {
	if store == nil {
		return nil, errors.New("server: nil store")
	}
	e := &Engine{store: store, cfg: cfg, stripes: make([]streamStripe, stripeCount), subs: sub.NewBroker()}
	for i := range e.stripes {
		e.stripes[i].entries = make(map[string]*entry)
	}
	// Recover migration tombstones and the published topology persisted
	// by a previous instance.
	if err := e.loadMoved(); err != nil {
		return nil, err
	}
	if err := e.loadTopology(); err != nil {
		return nil, err
	}
	// Recover stream metadata persisted by a previous instance.
	var loadErr error
	err := store.Scan("m/", func(key string, value []byte) bool {
		h := e.lockOrder(key[len("m/"):])
		defer e.unlockOrder(&h)
		if _, err := e.openStream(&h, value); err != nil {
			loadErr = fmt.Errorf("server: recovering stream %q: %w", h.uuid, err)
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if loadErr != nil {
		return nil, loadErr
	}
	return e, nil
}

func metaKey(uuid string) string { return "m/" + uuid }

func chunkKey(uuid string, idx uint64) string {
	b := make([]byte, 0, len(uuid)+20)
	b = append(b, 'c', '/')
	b = append(b, uuid...)
	b = append(b, '/')
	b = strconv.AppendUint(b, idx, 16)
	return string(b)
}

func grantKey(uuid, principal, grantID string) string {
	return "g/" + uuid + "/" + principal + "/" + grantID
}

func stagedPrefix(uuid string, idx uint64) string {
	b := make([]byte, 0, len(uuid)+20)
	b = append(b, 'r', '/')
	b = append(b, uuid...)
	b = append(b, '/')
	b = strconv.AppendUint(b, idx, 16)
	b = append(b, '/')
	return string(b)
}

func stagedKey(uuid string, idx, seq uint64) string {
	b := make([]byte, 0, len(uuid)+40)
	b = append(b, stagedPrefix(uuid, idx)...)
	// Fixed-width so lexicographic scan order equals sequence order.
	b = append(b, fmt.Sprintf("%016x", seq)...)
	return string(b)
}

func envKey(uuid string, factor, idx uint64) string {
	b := make([]byte, 0, len(uuid)+32)
	b = append(b, 'e', '/')
	b = append(b, uuid...)
	b = append(b, '/')
	b = strconv.AppendUint(b, factor, 16)
	b = append(b, '/')
	b = strconv.AppendUint(b, idx, 16)
	return string(b)
}

func encodeStreamConfig(cfg *wire.StreamConfig) []byte {
	var enc wire.Encoder
	cfg.Encode(&enc)
	return enc.Bytes()
}

func decodeStreamConfig(data []byte) (wire.StreamConfig, error) {
	var cfg wire.StreamConfig
	d := wire.NewDecoder(data)
	cfg.Decode(d)
	if err := d.Done(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// openStream builds the in-memory handle for a stream whose meta is known
// and publishes it on h's entry, failing if the entry already serves one.
func (e *Engine) openStream(h *held, meta []byte) (*stream, error) {
	if h.en.live.Load() != nil {
		return nil, fmt.Errorf("server: stream %q already exists", h.uuid)
	}
	cfg, err := decodeStreamConfig(meta)
	if err != nil {
		return nil, err
	}
	tree, err := index.Open(e.store, h.uuid, index.Config{
		Fanout:     int(cfg.Fanout),
		VectorLen:  int(cfg.VectorLen),
		CacheBytes: e.cfg.CacheBytes,
	})
	if err != nil {
		return nil, err
	}
	s := &stream{mu: &h.en.mu, cfg: cfg, tree: tree}
	h.en.live.Store(s)
	return s, nil
}

func (e *Engine) lookup(uuid string) (*stream, error) {
	st := e.stripeFor(uuid)
	st.mu.RLock()
	en := st.entries[uuid]
	st.mu.RUnlock()
	return held{uuid: uuid, en: en}.live()
}

var errStreamNotFound = errors.New("stream not found")

// movedError reports a request for a stream that migrated to another
// shard; WireError maps it to CodeWrongShard carrying the topology epoch
// of the move so stale rings can refresh.
type movedError struct {
	uuid  string
	epoch uint64
}

func (e *movedError) Error() string {
	return fmt.Sprintf("server: stream %q moved to another shard in topology epoch %d", e.uuid, e.epoch)
}

// CreateStream registers a stream; it fails if the UUID exists.
func (e *Engine) CreateStream(uuid string, cfg wire.StreamConfig) error {
	h := e.lockOrder(uuid)
	defer e.unlockOrder(&h)
	return e.createStream(&h, cfg)
}

func (e *Engine) createStream(h *held, cfg wire.StreamConfig) error {
	uuid := h.uuid
	if uuid == "" {
		return errors.New("server: empty stream UUID")
	}
	if epoch := h.en.moved.Load(); epoch != 0 {
		// The UUID migrated away: re-creating it here would shadow the
		// live copy on its current owner.
		return &movedError{uuid: uuid, epoch: epoch}
	}
	if cfg.Interval <= 0 {
		return fmt.Errorf("server: stream %q: interval must be positive", uuid)
	}
	if cfg.VectorLen == 0 {
		return fmt.Errorf("server: stream %q: zero digest vector length", uuid)
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = index.DefaultFanout
	}
	// Publish first (duplicate creates meet on the entry's order lock, so
	// exactly one wins), then let only the winner persist the stream meta —
	// a loser must never clobber the winner's persisted config. The order
	// lock is held throughout, so no mutation runs before the meta is in.
	s, err := e.openStream(h, encodeStreamConfig(&cfg))
	if err != nil {
		return err
	}
	// A freshly created stream cannot have persisted staged records, so
	// its staged index starts empty instead of paying the first-touch
	// store scan (which exists for streams recovered from an old store).
	s.staged = make(map[uint64]map[uint64]struct{})
	s.stagedLoaded = true
	if err := e.store.Put(metaKey(uuid), encodeStreamConfig(&cfg)); err != nil {
		h.en.live.Store(nil)
		return err
	}
	return nil
}

// ListStreams returns the UUIDs of all registered streams, sorted.
func (e *Engine) ListStreams() []string {
	var uuids []string
	for i := range e.stripes {
		st := &e.stripes[i]
		st.mu.RLock()
		for uuid, en := range st.entries {
			if en.live.Load() != nil {
				uuids = append(uuids, uuid)
			}
		}
		st.mu.RUnlock()
	}
	sort.Strings(uuids)
	return uuids
}

// deleteStream deletes the stream's keys while it still holds the order
// lock every other mutation of the stream takes, so none of them lands
// after the delete. The keys are collected while the stream still
// serves, so a failed scan changes nothing; then the stream is retired,
// so a read that starts while the keys go answers not found rather than
// from a half-deleted stream; it comes back if the delete fails.
func (e *Engine) deleteStream(h *held) error {
	s, err := h.live()
	if err != nil {
		return err
	}
	ops, err := e.deleteStreamOps(h.uuid)
	if err != nil {
		return err
	}
	h.en.live.Store(nil)
	if err := e.store.Batch(ops); err != nil {
		h.en.live.Store(s)
		return err
	}
	e.subs.DropStream(h.uuid, fmt.Errorf("server: stream %q deleted: %w", h.uuid, errStreamNotFound))
	return nil
}

// StreamInfo returns stream metadata and ingest progress.
func (e *Engine) StreamInfo(uuid string) (wire.StreamConfig, uint64, error) {
	s, err := e.lookup(uuid)
	if err != nil {
		return wire.StreamConfig{}, 0, err
	}
	return s.cfg, s.tree.Count(), nil
}

// InsertChunkBatch ingests several sealed chunks for one stream under a
// single stream lock, returning one result per chunk (aligned with
// sealedBlobs). The valid in-order chunks become ONE store batch: their
// ciphertexts, the index leaves, each touched ancestor once (log_k(n)
// ancestor writes for the whole run instead of per chunk), the index meta
// key and the deletes of the staged records the chunks supersede. On a
// durable store that is one WAL record and one fsync wait, recovered all or
// nothing; the index, the live views and the staged-record index advance
// only after it is in, so a failed or torn insert leaves the store and the
// engine exactly as before it and the client's retry starts clean.
//
// A chunk that fails validation gets its own error and does not advance
// the expected position, so the chunks after it are judged exactly as a
// loop of single inserts would judge them.
//
// It writes as topology epoch 0, so a stream fenced for migration refuses
// every chunk with the fence's CodeWrongShard error, as Handle would.
func (e *Engine) InsertChunkBatch(uuid string, sealedBlobs [][]byte) []error {
	h := e.lockOrder(uuid)
	defer e.unlockOrder(&h)
	if werr := checkFence(context.TODO(), &h); werr != nil {
		errs := make([]error, len(sealedBlobs))
		for i := range errs {
			errs[i] = werr
		}
		return errs
	}
	return e.insertChunks(&h, sealedBlobs)
}

func (e *Engine) insertChunks(h *held, sealedBlobs [][]byte) []error {
	uuid := h.uuid
	errs := make([]error, len(sealedBlobs))
	s, err := h.live()
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	parsed := make([]*chunk.Sealed, len(sealedBlobs))
	for i, blob := range sealedBlobs {
		sealed, err := chunk.UnmarshalSealed(blob)
		if err != nil {
			errs[i] = fmt.Errorf("server: stream %q: %w", uuid, err)
			continue
		}
		if len(sealed.Digest) != int(s.cfg.VectorLen) {
			errs[i] = fmt.Errorf("server: stream %q: digest has %d elements, stream uses %d",
				uuid, len(sealed.Digest), s.cfg.VectorLen)
			continue
		}
		wantStart := s.cfg.Epoch + int64(sealed.Index)*s.cfg.Interval
		if sealed.Start != wantStart || sealed.End != wantStart+s.cfg.Interval {
			errs[i] = fmt.Errorf("server: stream %q: chunk %d interval [%d,%d) does not match stream geometry",
				uuid, sealed.Index, sealed.Start, sealed.End)
			continue
		}
		parsed[i] = sealed
	}
	start := s.tree.Count()
	want := start
	var (
		run     = make([]int, 0, len(parsed)) // indices into sealedBlobs of the accepted chunks
		ops     = make([]kv.Op, 0, len(parsed))
		digests = make([][]uint64, 0, len(parsed))
	)
	for i, sealed := range parsed {
		if sealed == nil {
			continue
		}
		if sealed.Index != want {
			errs[i] = fmt.Errorf("server: stream %q: chunk %d out of order (expected %d)", uuid, sealed.Index, want)
			continue
		}
		run = append(run, i)
		ops = append(ops, kv.Op{Kind: kv.OpPut, Key: chunkKey(uuid, sealed.Index), Value: sealedBlobs[i]})
		digests = append(digests, sealed.Digest)
		want++
	}
	if len(run) == 0 {
		return errs
	}
	fail := func(err error) []error {
		for _, i := range run {
			errs[i] = err
		}
		return errs
	}
	// The sealed chunks supersede their staged real-time records (§4.6). The
	// staged index names their exact keys, so no store scan is needed.
	ops, err = e.stagedDeletes(uuid, s, start, want, ops)
	if err != nil {
		return fail(err)
	}
	if err := s.tree.AppendBatchWith(start, digests, ops); err != nil {
		return fail(err)
	}
	// Publish the whole accepted run under the order lock: live views see
	// exactly the append order; they coalesce per window, so a batch
	// spanning a window boundary still emits one delta per completed
	// window, not per chunk.
	for x, digest := range digests {
		e.subs.Publish(uuid, start+uint64(x), digest)
	}
	s.forgetStaged(start, want)
	return errs
}

// loadStagedLocked rebuilds the staged-record index from the store on the
// stream's first staged-record touch. Caller holds s.mu.
func (e *Engine) loadStagedLocked(uuid string, s *stream) error {
	if s.stagedLoaded {
		return nil
	}
	prefix := "r/" + uuid + "/"
	idx := make(map[uint64]map[uint64]struct{})
	err := e.store.Scan(prefix, func(key string, _ []byte) bool {
		chunkHex, seqHex, ok := strings.Cut(key[len(prefix):], "/")
		if !ok {
			return true
		}
		ci, err1 := strconv.ParseUint(chunkHex, 16, 64)
		sq, err2 := strconv.ParseUint(seqHex, 16, 64)
		if err1 != nil || err2 != nil {
			return true
		}
		set := idx[ci]
		if set == nil {
			set = make(map[uint64]struct{})
			idx[ci] = set
		}
		set[sq] = struct{}{}
		return true
	})
	if err != nil {
		return err
	}
	s.staged = idx
	s.stagedLoaded = true
	return nil
}

// stagedDeletes appends to ops the deletes of every record staged for
// chunks [lo, hi), in chunk and sequence order. The staged index keeps the
// entries until forgetStaged: the deletes may yet fail.
func (e *Engine) stagedDeletes(uuid string, s *stream, lo, hi uint64, ops []kv.Op) ([]kv.Op, error) {
	if err := e.loadStagedLocked(uuid, s); err != nil {
		return nil, err
	}
	if len(s.staged) == 0 {
		return ops, nil
	}
	for idx := lo; idx < hi; idx++ {
		set := s.staged[idx]
		if len(set) == 0 {
			continue
		}
		seqs := make([]uint64, 0, len(set))
		for seq := range set {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			ops = append(ops, kv.Op{Kind: kv.OpDelete, Key: stagedKey(uuid, idx, seq)})
		}
	}
	return ops, nil
}

// forgetStaged drops the staged index entries of chunks [lo, hi) once the
// store no longer holds their records.
func (s *stream) forgetStaged(lo, hi uint64) {
	for idx := lo; idx < hi && len(s.staged) > 0; idx++ {
		delete(s.staged, idx)
	}
}

func (e *Engine) stageRecord(h *held, chunkIndex, seq uint64, box []byte) error {
	uuid := h.uuid
	s, err := h.live()
	if err != nil {
		return err
	}
	if chunkIndex < s.tree.Count() {
		return fmt.Errorf("server: stream %q: chunk %d already sealed", uuid, chunkIndex)
	}
	if err := e.loadStagedLocked(uuid, s); err != nil {
		return err
	}
	if err := e.store.Put(stagedKey(uuid, chunkIndex, seq), box); err != nil {
		return err
	}
	set := s.staged[chunkIndex]
	if set == nil {
		set = make(map[uint64]struct{})
		s.staged[chunkIndex] = set
	}
	set[seq] = struct{}{}
	return nil
}

// GetStaged returns a chunk's staged record boxes in sequence order. It
// reads through one prefix scan — a single operation even on remote-backed
// stores, and no lock shared with the ingest path; the staged index exists
// for the per-InsertChunk garbage collection, which is the hot path.
func (e *Engine) GetStaged(uuid string, chunkIndex uint64) ([][]byte, error) {
	if _, err := e.lookup(uuid); err != nil {
		return nil, err
	}
	type rec struct {
		key string
		box []byte
	}
	var recs []rec
	err := e.store.Scan(stagedPrefix(uuid, chunkIndex), func(key string, value []byte) bool {
		recs = append(recs, rec{key, value})
		return true
	})
	if err != nil {
		return nil, err
	}
	// Fixed-width seq encoding makes lexicographic order sequence order.
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })
	boxes := make([][]byte, len(recs))
	for i, r := range recs {
		boxes[i] = r.box
	}
	return boxes, nil
}

// chunkRange maps a half-open time range onto chunk positions, clamped to
// ingested data: the first chunk overlapping ts through the last chunk
// overlapping te-1.
func (s *stream) chunkRange(ts, te int64) (a, b uint64, err error) {
	if te <= ts {
		return 0, 0, fmt.Errorf("server: empty time range [%d,%d)", ts, te)
	}
	count := s.tree.Count()
	if count == 0 {
		return 0, 0, errors.New("server: stream has no data")
	}
	if ts < s.cfg.Epoch {
		ts = s.cfg.Epoch
	}
	a = uint64((ts - s.cfg.Epoch) / s.cfg.Interval)
	bInt := (te - s.cfg.Epoch + s.cfg.Interval - 1) / s.cfg.Interval
	if bInt <= 0 {
		return 0, 0, errors.New("server: range precedes stream epoch")
	}
	b = uint64(bInt)
	if b > count {
		b = count
	}
	if a >= b {
		return 0, 0, fmt.Errorf("server: no ingested chunks in range [%d,%d)", ts, te)
	}
	return a, b, nil
}

// GetRange returns the sealed chunks overlapping [ts, te). The context
// bounds the chunk walk: a caller that gave up stops costing store reads.
func (e *Engine) GetRange(ctx context.Context, uuid string, ts, te int64) ([][]byte, error) {
	s, err := e.lookup(uuid)
	if err != nil {
		return nil, err
	}
	a, b, err := s.chunkRange(ts, te)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, b-a)
	for i := a; i < b; i++ {
		if (i-a)%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		data, err := e.store.Get(chunkKey(uuid, i))
		if errors.Is(err, kv.ErrNotFound) {
			continue // rolled up / deleted
		}
		if err != nil {
			return nil, err
		}
		out = append(out, data)
	}
	return out, nil
}

// StatRange computes encrypted aggregates over [ts, te). With
// windowChunks == 0 it returns a single aggregate; otherwise one aggregate
// per window of windowChunks chunks (the window grid is aligned to absolute
// chunk positions so resolution-restricted principals can decrypt, §4.4.1).
// With several UUIDs, the per-stream aggregates are homomorphically summed
// (inter-stream queries); all streams must share geometry. The context
// aborts the per-stream aggregation loop once the caller gives up.
func (e *Engine) StatRange(ctx context.Context, uuids []string, ts, te int64, windowChunks uint64) (from, to uint64, windows [][]uint64, err error) {
	return e.aggregate(ctx, uuids, ts, te, windowChunks)
}

// AggRange executes a typed query plan: the multi-stream aggregation of
// StatRange plus a projection of each window vector down to the digest
// elements the plan's statistic selectors need, so the response carries
// (and the client decrypts) only what the caller asked for. Element
// indices refer to the streams' shared digest layout; an empty elems
// keeps the full vectors. The response echoes the stream set's shared
// geometry so cross-shard combiners can verify their partials agree.
func (e *Engine) AggRange(ctx context.Context, uuids []string, ts, te int64, windowChunks uint64, elems []uint32) (*wire.AggRangeResp, error) {
	from, to, windows, err := e.aggregate(ctx, uuids, ts, te, windowChunks)
	if err != nil {
		return nil, err
	}
	if len(elems) > 0 {
		vlen := uint32(0)
		if len(windows) > 0 {
			vlen = uint32(len(windows[0]))
		}
		for _, x := range elems {
			if x >= vlen {
				return nil, fmt.Errorf("server: digest element %d beyond vector length %d", x, vlen)
			}
		}
		for w, vec := range windows {
			proj := make([]uint64, len(elems))
			for x, idx := range elems {
				proj[x] = vec[idx]
			}
			windows[w] = proj
		}
	}
	s0, err := e.lookup(uuids[0])
	if err != nil {
		return nil, err
	}
	return &wire.AggRangeResp{
		FromChunk: from, ToChunk: to,
		Epoch: s0.cfg.Epoch, Interval: s0.cfg.Interval,
		StreamCount: uint32(len(uuids)), Windows: windows,
	}, nil
}

// aggregate is the shared multi-stream aggregation core behind StatRange
// and AggRange.
func (e *Engine) aggregate(ctx context.Context, uuids []string, ts, te int64, windowChunks uint64) (from, to uint64, windows [][]uint64, err error) {
	if len(uuids) == 0 {
		return 0, 0, nil, errors.New("server: no streams given")
	}
	streams := make([]*stream, len(uuids))
	for i, uuid := range uuids {
		s, err := e.lookup(uuid)
		if err != nil {
			return 0, 0, nil, err
		}
		streams[i] = s
		if s.cfg.Epoch != streams[0].cfg.Epoch || s.cfg.Interval != streams[0].cfg.Interval ||
			s.cfg.VectorLen != streams[0].cfg.VectorLen {
			return 0, 0, nil, fmt.Errorf("server: stream %q geometry differs from %q (inter-stream queries need matching epoch/interval/digest)", uuid, uuids[0])
		}
	}
	s0 := streams[0]
	a, b, err := s0.chunkRange(ts, te)
	if err != nil {
		return 0, 0, nil, err
	}
	// Clamp to the shortest stream so every aggregate is complete.
	for _, s := range streams[1:] {
		if c := s.tree.Count(); c < b {
			b = c
		}
	}
	if a >= b {
		return 0, 0, nil, errors.New("server: no common ingested range across streams")
	}
	if windowChunks > 0 {
		// Align the window grid to absolute chunk positions.
		a = (a / windowChunks) * windowChunks
		b = (b / windowChunks) * windowChunks
		if a >= b {
			return 0, 0, nil, fmt.Errorf("server: range too short for %d-chunk windows", windowChunks)
		}
	}
	query := func(s *stream) ([][]uint64, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if windowChunks == 0 {
			vec, err := s.tree.Query(a, b)
			if err != nil {
				return nil, err
			}
			return [][]uint64{vec}, nil
		}
		return s.tree.QueryWindows(a, b, windowChunks)
	}
	windows, err = query(s0)
	if err != nil {
		return 0, 0, nil, err
	}
	for _, s := range streams[1:] {
		more, err := query(s)
		if err != nil {
			return 0, 0, nil, err
		}
		for w := range windows {
			for x := range windows[w] {
				windows[w][x] += more[w][x]
			}
		}
	}
	return a, b, windows, nil
}

func (e *Engine) deleteRange(ctx context.Context, h *held, ts, te int64) error {
	s, err := h.live()
	if err != nil {
		return err
	}
	a, b, err := s.chunkRange(ts, te)
	if err != nil {
		return err
	}
	var ops []kv.Op
	for i := a; i < b; i++ {
		if (i-a)%256 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		key := chunkKey(h.uuid, i)
		data, err := e.store.Get(key)
		if errors.Is(err, kv.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		sealed, err := chunk.UnmarshalSealed(data)
		if err != nil {
			return err
		}
		if len(sealed.Payload) == 0 {
			continue
		}
		sealed.Payload = nil
		ops = append(ops, kv.Op{Kind: kv.OpPut, Key: key, Value: chunk.MarshalSealed(sealed)})
	}
	return e.store.Batch(ops)
}

func (e *Engine) rollup(ctx context.Context, h *held, factor uint64, ts, te int64) error {
	if factor < 1 {
		return errors.New("server: rollup factor must be >= 1")
	}
	if factor > index.MaxChunks {
		return fmt.Errorf("server: rollup factor %d exceeds the %d chunks a stream can hold", factor, uint64(index.MaxChunks))
	}
	s, err := h.live()
	if err != nil {
		return err
	}
	a, b, err := s.chunkRange(ts, te)
	if err != nil {
		return err
	}
	ops := make([]kv.Op, 0, b-a)
	for i := a; i < b; i++ {
		if (i-a)%256 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ops = append(ops, kv.Op{Kind: kv.OpDelete, Key: chunkKey(h.uuid, i)})
	}
	// Prune index levels whose span is finer than the rollup factor.
	level := 0
	for s.tree.LevelSpan(level+1) <= factor {
		level++
	}
	if level == 0 && factor > 1 {
		level = 1 // factor between 1 and fanout: leaf digests must go
	}
	if level > 0 {
		return s.tree.PruneWith(level, a, b, ops)
	}
	return e.store.Batch(ops)
}

func (e *Engine) putGrant(h *held, principal, grantID string, blob []byte) error {
	if _, err := h.live(); err != nil {
		return err
	}
	if principal == "" || grantID == "" {
		return errors.New("server: empty principal or grant id")
	}
	return e.store.Put(grantKey(h.uuid, principal, grantID), blob)
}

// GetGrants fetches all grant blobs for a principal on a stream.
func (e *Engine) GetGrants(uuid, principal string) ([][]byte, error) {
	if _, err := e.lookup(uuid); err != nil {
		return nil, err
	}
	var blobs [][]byte
	err := e.store.Scan("g/"+uuid+"/"+principal+"/", func(_ string, value []byte) bool {
		blobs = append(blobs, value)
		return true
	})
	return blobs, err
}

func (e *Engine) deleteGrant(h *held, principal, grantID string) error {
	if _, err := h.live(); err != nil {
		return err
	}
	if grantID != "" {
		return e.store.Delete(grantKey(h.uuid, principal, grantID))
	}
	ops, err := appendDeletes(nil, e.store, "g/"+h.uuid+"/"+principal+"/")
	if err != nil {
		return err
	}
	return e.store.Batch(ops)
}

func (e *Engine) putEnvelopes(h *held, factor uint64, envs []wire.WireEnvelope) error {
	if _, err := h.live(); err != nil {
		return err
	}
	if factor < 1 {
		return errors.New("server: envelope factor must be >= 1")
	}
	ops := make([]kv.Op, 0, len(envs))
	for _, env := range envs {
		ops = append(ops, kv.Op{Kind: kv.OpPut, Key: envKey(h.uuid, factor, env.Index), Value: env.Box})
	}
	return e.store.Batch(ops)
}

// GetEnvelopes fetches the stored envelopes lo..hi (inclusive) for one
// resolution, in index order. It scans the resolution's keys rather than
// probing every index, so its cost follows what is stored, not hi-lo.
func (e *Engine) GetEnvelopes(uuid string, factor, lo, hi uint64) ([]wire.WireEnvelope, error) {
	if _, err := e.lookup(uuid); err != nil {
		return nil, err
	}
	if hi < lo {
		return nil, fmt.Errorf("server: invalid envelope range [%d,%d]", lo, hi)
	}
	prefix := envKey(uuid, factor, 0)
	prefix = prefix[:len(prefix)-1] // the resolution's keys, without index 0
	var envs []wire.WireEnvelope
	err := e.store.Scan(prefix, func(key string, box []byte) bool {
		// The prefix also matches keys of a UUID that extends this one
		// with a slash; their rest holds a slash and does not parse.
		j, err := strconv.ParseUint(key[len(prefix):], 16, 64)
		if err == nil && j >= lo && j <= hi {
			envs = append(envs, wire.WireEnvelope{Index: j, Box: box})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(envs, func(a, b int) bool { return envs[a].Index < envs[b].Index })
	return envs, nil
}
