package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/kv"
	"repro/internal/wire"
)

// This file is the engine half of live stream migration (online
// resharding): a per-stream export/import path over raw store key/value
// pairs, the handoff that atomically flips which side serves the stream,
// migration tombstones answering CodeWrongShard, and the published-
// topology store stale routers recover from.
//
// The migration protocol (driven by cluster.Router.Rebalance):
//
//  1. Live rounds: StreamSnapshot{WithMeta: false, FromChunk: n} exports
//     the sealed chunks appended since the previous round while the
//     source keeps serving reads AND writes; the destination imports them
//     with IngestSnapshot without registering the stream.
//  2. Frozen round: the router gates the stream's requests, the source
//     quiesces, and StreamSnapshot{WithMeta: true} exports the remaining
//     chunk delta plus meta, index nodes, staged records, grants, and
//     envelopes — a consistent copy, because nothing is writing.
//  3. Handoff: HandoffComplete{Commit} registers the stream on the
//     destination; HandoffComplete{Release} deletes it on the source,
//     leaving a tombstone with the topology epoch. Until Commit the
//     destination never serves the stream; after Release the source
//     answers CodeWrongShard — at every instant exactly one side serves.

// DefaultSnapshotPageItems is the per-page item bound of a stream export
// when the request does not set one.
const DefaultSnapshotPageItems = 256

// snapshotPageBytes soft-bounds one export page's payload; a page closes
// once it crosses this, well below the frame limit even with large chunks.
const snapshotPageBytes = 4 << 20

// Snapshot export phases, in cursor order. Meta-bearing phases run only
// for WithMeta exports (the frozen final round).
const (
	snapPhaseMeta = iota
	snapPhaseIndex
	snapPhaseStaged
	snapPhaseGrants
	snapPhaseEnvelopes
	snapPhaseChunks
	snapPhaseDone
)

// streamDirs names the key directories holding a stream's state besides
// its meta key, each as "<dir><uuid>/...": the chunks, then the directory
// of each paged export phase in phase order (index nodes, staged records,
// grants, envelopes).
var streamDirs = [...]string{"c/", "i/", "r/", "g/", "e/"}

// snapshotPrefix returns the store key prefix of a paged phase
// (snapPhaseIndex through snapPhaseEnvelopes).
func snapshotPrefix(uuid string, phase int) string {
	return streamDirs[1+phase-snapPhaseIndex] + uuid + "/"
}

// formatSnapshotCursor encodes the resume point of a paged export: the
// phase, the pinned chunk bound for this round, and the in-phase position
// (last emitted key, or the next chunk index in the chunk phase).
func formatSnapshotCursor(phase int, bound uint64, pos string) string {
	return fmt.Sprintf("%d|%d|%s", phase, bound, pos)
}

func parseSnapshotCursor(cursor string) (phase int, bound uint64, pos string, err error) {
	parts := strings.SplitN(cursor, "|", 3)
	if len(parts) != 3 {
		return 0, 0, "", fmt.Errorf("server: malformed snapshot cursor %q", cursor)
	}
	p, err1 := strconv.Atoi(parts[0])
	b, err2 := strconv.ParseUint(parts[1], 10, 64)
	if err1 != nil || err2 != nil || p < snapPhaseMeta || p >= snapPhaseDone {
		return 0, 0, "", fmt.Errorf("server: malformed snapshot cursor %q", cursor)
	}
	return p, b, parts[2], nil
}

// SnapshotStream exports one page of a stream's persisted state for
// migration. The first page (empty cursor) pins the chunk bound at the
// stream's current count and carries the stream config; subsequent pages
// resume from the returned cursor. WithMeta additionally exports meta,
// index nodes, staged records, grants, and envelopes — only consistent
// when the stream is write-quiescent (the migrator's frozen final round).
func (e *Engine) SnapshotStream(ctx context.Context, m *wire.StreamSnapshot) (*wire.SnapshotChunk, error) {
	s, err := e.lookup(m.UUID)
	if err != nil {
		return nil, err
	}
	maxItems := int(m.MaxItems)
	if maxItems <= 0 || maxItems > wire.MaxSnapshotItems {
		maxItems = DefaultSnapshotPageItems
	}
	resp := &wire.SnapshotChunk{}
	var (
		phase int
		bound uint64
		pos   string
	)
	if m.Cursor == "" {
		resp.HasCfg = true
		resp.Cfg = s.cfg
		bound = s.tree.Count()
		resp.Count = bound
		if m.WithMeta {
			phase = snapPhaseMeta
		} else {
			phase, pos = snapPhaseChunks, "0"
		}
	} else {
		phase, bound, pos, err = parseSnapshotCursor(m.Cursor)
		if err != nil {
			return nil, err
		}
		resp.Count = bound
		if !m.WithMeta && phase != snapPhaseChunks {
			return nil, fmt.Errorf("server: snapshot cursor %q names a meta phase in a chunks-only export", m.Cursor)
		}
	}

	bytes := 0
	full := func() bool { return len(resp.Items) >= maxItems || bytes >= snapshotPageBytes }
	add := func(key string, value []byte) {
		resp.Items = append(resp.Items, wire.KVItem{Key: key, Value: value})
		bytes += len(key) + len(value)
	}

	for phase < snapPhaseDone && !full() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		switch phase {
		case snapPhaseMeta:
			meta, err := e.store.Get(metaKey(m.UUID))
			if err != nil {
				return nil, fmt.Errorf("server: stream %q meta: %w", m.UUID, err)
			}
			add(metaKey(m.UUID), meta)
			phase, pos = snapPhaseIndex, ""
		case snapPhaseIndex, snapPhaseStaged, snapPhaseGrants, snapPhaseEnvelopes:
			page, done, err := kv.ScanPage(e.store, snapshotPrefix(m.UUID, phase), pos, maxItems-len(resp.Items))
			if err != nil {
				return nil, err
			}
			for _, p := range page {
				add(p.Key, p.Value)
			}
			if done {
				phase, pos = phase+1, ""
				if phase == snapPhaseChunks {
					pos = "0"
				}
			} else {
				pos = page[len(page)-1].Key
			}
		case snapPhaseChunks:
			idx, err := strconv.ParseUint(pos, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("server: malformed snapshot cursor position %q", pos)
			}
			if idx < m.FromChunk {
				idx = m.FromChunk
			}
			for idx < bound && !full() {
				if idx%256 == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				key := chunkKey(m.UUID, idx)
				data, err := e.store.Get(key)
				if errors.Is(err, kv.ErrNotFound) {
					idx++ // rolled up / deleted payload slot
					continue
				}
				if err != nil {
					return nil, err
				}
				add(key, data)
				idx++
			}
			pos = strconv.FormatUint(idx, 10)
			if idx >= bound {
				phase = snapPhaseDone
			}
		}
	}
	if phase >= snapPhaseDone {
		resp.Done = true
	} else {
		if phase == snapPhaseChunks && pos == "" {
			pos = "0"
		}
		resp.Cursor = formatSnapshotCursor(phase, bound, pos)
	}
	return resp, nil
}

// snapshotKeyAllowed reports whether an imported key belongs to the
// migrating stream: its meta key or one of its chunk/index/staged/grant/
// envelope prefixes. Anything else is a hostile (or buggy) source trying
// to write outside the stream, and the import is refused.
func snapshotKeyAllowed(uuid, key string) bool {
	if key == metaKey(uuid) {
		return true
	}
	for _, dir := range streamDirs {
		if strings.HasPrefix(key, dir+uuid+"/") {
			return true
		}
	}
	return false
}

// ingestSnapshot imports one page of a migrating stream's exported state
// (wire.IngestSnapshot). The raw key/value pairs land in the store but the
// stream is NOT registered — it stays invisible to queries until a
// HandoffComplete commits it, so a half-copied stream is never served.
// Refused while the stream is live on this shard (that would corrupt a
// serving stream).
func (e *Engine) ingestSnapshot(h *held, items []wire.KVItem) error {
	uuid := h.uuid
	if uuid == "" {
		return errors.New("server: empty stream UUID")
	}
	if _, err := h.live(); err == nil {
		return fmt.Errorf("server: stream %q is live on this shard; refusing snapshot import", uuid)
	}
	ops := make([]kv.Op, 0, len(items))
	for _, it := range items {
		if !snapshotKeyAllowed(uuid, it.Key) {
			return fmt.Errorf("server: snapshot item key %q outside stream %q", it.Key, uuid)
		}
		ops = append(ops, kv.Op{Kind: kv.OpPut, Key: it.Key, Value: it.Value})
	}
	return e.store.Batch(ops)
}

// handoffComplete finishes (or aborts) one stream's migration on this
// shard; see the wire.Handoff* action docs.
func (e *Engine) handoffComplete(h *held, epoch uint64, action uint8) error {
	switch action {
	case wire.HandoffCommit:
		return e.handoffCommit(h)
	case wire.HandoffRelease:
		return e.handoffRelease(h, epoch)
	case wire.HandoffAbort:
		return e.handoffAbort(h)
	case wire.HandoffReclaim:
		return e.handoffReclaim(h)
	case wire.HandoffFence:
		if h.uuid == "" {
			return fmt.Errorf("server: fence needs a stream uuid")
		}
		h.en.fence = epoch
		return nil
	default:
		return fmt.Errorf("server: unknown handoff action %d", action)
	}
}

// handoffReclaim clears a stale migration tombstone so the UUID can be
// created here again (the stream moved away, was deleted on its new
// owner, and ring ownership later returned to this shard). Refused for a
// live stream — a registered stream has no tombstone to reclaim.
func (e *Engine) handoffReclaim(h *held) error {
	if _, err := h.live(); err == nil {
		return fmt.Errorf("server: stream %q is live on this shard; nothing to reclaim", h.uuid)
	}
	return e.clearTombstone(h)
}

// handoffCommit registers an imported stream: the destination side of a
// migration starts serving. Clears any tombstone from an earlier move in
// the other direction.
func (e *Engine) handoffCommit(h *held) error {
	meta, err := e.store.Get(metaKey(h.uuid))
	if errors.Is(err, kv.ErrNotFound) {
		return fmt.Errorf("server: stream %q has no imported meta to commit", h.uuid)
	}
	if err != nil {
		return err
	}
	if _, err := e.openStream(h, meta); err != nil {
		return err
	}
	return e.clearTombstone(h)
}

// handoffRelease retires a migrated stream on the source, under its order
// lock. Its keys are collected first, so a failed scan leaves it serving.
// The tombstone goes up in memory and the stream is retired before
// the persisted data is deleted and the tombstone written, so no request
// window sees "neither side": a read that starts from then on, and a
// mutation that waited for the lock, answer CodeWrongShard. If that batch
// fails, the stream comes back, still behind its drain fence, and a
// coordinator retry finds it. Re-releasing an already-tombstoned stream at
// the same epoch is a no-op, so a retry after a lost response converges.
func (e *Engine) handoffRelease(h *held, epoch uint64) error {
	uuid := h.uuid
	s, err := h.live()
	if err != nil {
		h.en.fence = 0 // nothing here for a fence to guard
		if epoch != 0 && h.en.moved.Load() == epoch {
			return nil // idempotent retry
		}
		return fmt.Errorf("server: stream %q: %w", uuid, errStreamNotFound)
	}
	if epoch == 0 {
		return fmt.Errorf("server: stream %q: release needs the topology epoch of the move", uuid)
	}
	ops, err := e.deleteStreamOps(uuid)
	if err != nil {
		return err
	}
	ops = append(ops, kv.Op{Kind: kv.OpPut, Key: movedKey(uuid), Value: encodeMovedEpoch(epoch)})
	h.en.moved.Store(epoch)
	h.en.live.Store(nil)
	if err := e.store.Batch(ops); err != nil {
		h.en.live.Store(s)
		h.en.moved.Store(0) // a live stream has no tombstone
		return err
	}
	// The tombstone takes over rejection duty from any armed drain fence.
	h.en.fence = 0
	// Live views on the departing stream die with the move; their
	// subscribers see CodeWrongShard (epoch attached) and resubscribe on
	// the new owner.
	e.subs.DropStream(uuid, &movedError{uuid: uuid, epoch: epoch})
	return nil
}

// handoffAbort discards a partial import: the migration failed before
// commit and the stream stays with the source. Refused for a live stream.
func (e *Engine) handoffAbort(h *held) error {
	if _, err := h.live(); err == nil {
		return fmt.Errorf("server: stream %q is live on this shard; refusing import abort", h.uuid)
	}
	ops, err := e.deleteStreamOps(h.uuid)
	if err != nil {
		return err
	}
	return e.store.Batch(ops)
}

// deleteStreamOps collects the store deletions removing every persisted
// trace of a stream (chunks, index nodes, grants, envelopes, staged
// records, meta) — shared by DeleteStream, handoff release, and abort.
func (e *Engine) deleteStreamOps(uuid string) ([]kv.Op, error) {
	var ops []kv.Op
	for _, dir := range streamDirs {
		var err error
		if ops, err = appendDeletes(ops, e.store, dir+uuid+"/"); err != nil {
			return nil, err
		}
	}
	return append(ops, kv.Op{Kind: kv.OpDelete, Key: metaKey(uuid)}), nil
}

// appendDeletes appends a delete of every key under prefix to ops.
func appendDeletes(ops []kv.Op, store kv.Store, prefix string) ([]kv.Op, error) {
	err := store.Scan(prefix, func(key string, _ []byte) bool {
		ops = append(ops, kv.Op{Kind: kv.OpDelete, Key: key})
		return true
	})
	return ops, err
}

// Migration tombstones.

func movedKey(uuid string) string { return "mv/" + uuid }

func encodeMovedEpoch(epoch uint64) []byte {
	var enc wire.Encoder
	enc.U64(epoch)
	return enc.Bytes()
}

// clearTombstone deletes h's migration tombstone, if it has one.
func (e *Engine) clearTombstone(h *held) error {
	if h.en.moved.Load() == 0 {
		return nil
	}
	if err := e.store.Delete(movedKey(h.uuid)); err != nil {
		return err
	}
	h.en.moved.Store(0)
	return nil
}

// loadMoved recovers the persisted migration tombstones, each onto a bare
// table entry.
func (e *Engine) loadMoved() error {
	var loadErr error
	err := e.store.Scan("mv/", func(key string, value []byte) bool {
		d := wire.NewDecoder(value)
		epoch := d.U64()
		if d.Done() != nil || epoch == 0 {
			loadErr = fmt.Errorf("server: corrupt migration tombstone %q", key)
			return false
		}
		h := e.lockOrder(key[len("mv/"):])
		h.en.moved.Store(epoch)
		e.unlockOrder(&h)
		return true
	})
	if err != nil {
		return err
	}
	return loadErr
}

// Published topology.

const topoKey = "topo"

// Topology returns the last published cluster topology; epoch 0 with no
// members means this shard has never seen a reshard.
func (e *Engine) Topology() (uint64, []string) {
	e.topoMu.Lock()
	defer e.topoMu.Unlock()
	return e.topo.Epoch, append([]string(nil), e.topo.Members...)
}

// SetTopology stores a published topology if it is newer than the one
// held; stale updates (epoch at or below the stored one) are ignored. The
// stored value is TopologyInfoResp's encoding.
func (e *Engine) SetTopology(epoch uint64, members []string) error {
	e.topoMu.Lock()
	defer e.topoMu.Unlock()
	if epoch <= e.topo.Epoch {
		return nil
	}
	topo := wire.TopologyInfoResp{Epoch: epoch, Members: append([]string(nil), members...)}
	var enc wire.Encoder
	topo.Encode(&enc)
	if err := e.store.Put(topoKey, enc.Bytes()); err != nil {
		return err
	}
	e.topo = topo
	return nil
}

func (e *Engine) loadTopology() error {
	value, err := e.store.Get(topoKey)
	if errors.Is(err, kv.ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	d := wire.NewDecoder(value)
	e.topo.Decode(d)
	if err := d.Done(); err != nil {
		return fmt.Errorf("server: corrupt stored topology: %w", err)
	}
	return nil
}
