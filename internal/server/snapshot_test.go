package server

import (
	"context"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/chunk"
	"repro/internal/kv"
	"repro/internal/wire"
)

// exportAll drains a full paged export from src.
func exportAll(t *testing.T, src *Engine, req wire.StreamSnapshot) (wire.StreamConfig, uint64, []wire.KVItem) {
	t.Helper()
	var (
		cfg   wire.StreamConfig
		count uint64
		items []wire.KVItem
	)
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 10000 {
			t.Fatal("export did not terminate")
		}
		r := req
		r.Cursor = cursor
		page, err := src.SnapshotStream(context.Background(), &r)
		if err != nil {
			t.Fatal(err)
		}
		if page.HasCfg {
			cfg, count = page.Cfg, page.Count
		}
		items = append(items, page.Items...)
		if page.Done {
			return cfg, count, items
		}
		cursor = page.Cursor
	}
}

// migrate runs a full engine-level migration of uuid from src to dst:
// live chunk round, frozen meta round, commit, release.
func migrate(t *testing.T, src, dst *Engine, uuid string, epoch uint64) {
	ctx := context.Background()
	t.Helper()
	_, count, items := exportAll(t, src, wire.StreamSnapshot{UUID: uuid, MaxItems: 3})
	if err := errOf(dst.Handle(ctx, &wire.IngestSnapshot{UUID: uuid, Items: items})); err != nil {
		t.Fatal(err)
	}
	_, _, items = exportAll(t, src, wire.StreamSnapshot{UUID: uuid, FromChunk: count, WithMeta: true, MaxItems: 3})
	if err := errOf(dst.Handle(ctx, &wire.IngestSnapshot{UUID: uuid, Items: items})); err != nil {
		t.Fatal(err)
	}
	if err := errOf(dst.Handle(ctx, &wire.HandoffComplete{UUID: uuid, Epoch: epoch, Action: wire.HandoffCommit})); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := errOf(src.Handle(ctx, &wire.HandoffComplete{UUID: uuid, Epoch: epoch, Action: wire.HandoffRelease})); err != nil {
		t.Fatalf("release: %v", err)
	}
}

func statWindows(t *testing.T, e *Engine, uuid string, ts, te int64) [][]uint64 {
	t.Helper()
	_, _, windows, err := e.StatRange(context.Background(), []string{uuid}, ts, te, 0)
	if err != nil {
		t.Fatal(err)
	}
	return windows
}

func TestStreamMigrationRoundTrip(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 25)
	// Staged records, grants, and envelopes must all travel.
	if err := errOf(h.engine.Handle(ctx, &wire.StageRecord{UUID: "s", ChunkIndex: 25, Seq: 0, Box: []byte{9, 9}})); err != nil {
		t.Fatal(err)
	}
	if err := errOf(h.engine.Handle(ctx, &wire.PutGrant{UUID: "s", Principal: "doc", GrantID: "g1", Blob: []byte{1, 2}})); err != nil {
		t.Fatal(err)
	}
	if err := errOf(h.engine.Handle(ctx, &wire.PutEnvelopes{UUID: "s", Factor: 6, Envs: []wire.WireEnvelope{{Index: 0, Box: []byte{7}}}})); err != nil {
		t.Fatal(err)
	}
	want := statWindows(t, h.engine, "s", 0, 2500)

	dstStore := kv.NewMemStore()
	dst, err := New(dstStore, Config{})
	if err != nil {
		t.Fatal(err)
	}
	migrate(t, h.engine, dst, "s", 3)

	// Destination serves identical results.
	got := statWindows(t, dst, "s", 0, 2500)
	if len(got) != len(want) || len(got[0]) != len(want[0]) {
		t.Fatalf("window shape changed: %v vs %v", got, want)
	}
	for i := range want[0] {
		if got[0][i] != want[0][i] {
			t.Fatalf("aggregate element %d differs after migration: %d vs %d", i, got[0][i], want[0][i])
		}
	}
	if boxes, err := dst.GetStaged("s", 25); err != nil || len(boxes) != 1 {
		t.Errorf("staged records lost: %v, %v", boxes, err)
	}
	if blobs, err := dst.GetGrants("s", "doc"); err != nil || len(blobs) != 1 {
		t.Errorf("grants lost: %v, %v", blobs, err)
	}
	if envs, err := dst.GetEnvelopes("s", 6, 0, 0); err != nil || len(envs) != 1 {
		t.Errorf("envelopes lost: %v, %v", envs, err)
	}
	// Ingest continues on the destination where the source left off.
	sealed, _ := chunk.Seal(h.enc, h.spec, chunk.CompressionNone, 25, 2500, 2600,
		[]chunk.Point{{TS: 2500, Val: 1}})
	if err := errOf(dst.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: chunk.MarshalSealed(sealed)})); err != nil {
		t.Fatalf("post-migration ingest: %v", err)
	}

	// Source answers CodeWrongShard with the move's epoch.
	_, _, _, err = h.engine.StatRange(context.Background(), []string{"s"}, 0, 2500, 0)
	we := WireError(err)
	if we.Code != wire.CodeWrongShard || we.Aux != 3 {
		t.Fatalf("source answered %v, want CodeWrongShard epoch 3", we)
	}
	if err := h.engine.CreateStream("s", h.cfg); err == nil {
		t.Error("re-creating a moved stream on the source accepted")
	}
	// Release retry at the same epoch converges.
	if err := errOf(h.engine.Handle(ctx, &wire.HandoffComplete{UUID: "s", Epoch: 3, Action: wire.HandoffRelease})); err != nil {
		t.Errorf("idempotent release retry: %v", err)
	}
	// The source store kept nothing of the stream but the tombstone.
	left := 0
	h.engine.store.Scan("", func(key string, _ []byte) bool { left++; return true })
	if left != 1 {
		t.Errorf("source store still holds %d keys, want only the tombstone", left)
	}
}

func TestMigrationCatchUpRound(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 10)
	dst, err := New(kv.NewMemStore(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Live round copies chunks [0, 10).
	_, count, items := exportAll(t, h.engine, wire.StreamSnapshot{UUID: "s", MaxItems: 4})
	if count != 10 {
		t.Fatalf("pinned count %d, want 10", count)
	}
	if err := errOf(dst.Handle(ctx, &wire.IngestSnapshot{UUID: "s", Items: items})); err != nil {
		t.Fatal(err)
	}
	// A write lands mid-migration, after the live round.
	h.ingestFrom(t, "s", 10, 3)
	// Catch-up (frozen) round starts at the previous bound and must carry
	// the late chunks.
	_, count2, items2 := exportAll(t, h.engine, wire.StreamSnapshot{UUID: "s", FromChunk: count, WithMeta: true, MaxItems: 4})
	if count2 != 13 {
		t.Fatalf("catch-up pinned count %d, want 13", count2)
	}
	if err := errOf(dst.Handle(ctx, &wire.IngestSnapshot{UUID: "s", Items: items2})); err != nil {
		t.Fatal(err)
	}
	if err := errOf(dst.Handle(ctx, &wire.HandoffComplete{UUID: "s", Epoch: 1, Action: wire.HandoffCommit})); err != nil {
		t.Fatal(err)
	}
	if _, dstCount, err := dst.StreamInfo("s"); err != nil || dstCount != 13 {
		t.Fatalf("destination has %d chunks (%v), want 13 — mid-snapshot write lost", dstCount, err)
	}
	want := statWindows(t, h.engine, "s", 0, 1300)
	got := statWindows(t, dst, "s", 0, 1300)
	for i := range want[0] {
		if got[0][i] != want[0][i] {
			t.Fatalf("aggregate differs after catch-up: %v vs %v", got, want)
		}
	}
}

func TestImportInvisibleUntilCommitAndAbort(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 5)
	dst, err := New(kv.NewMemStore(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, items := exportAll(t, h.engine, wire.StreamSnapshot{UUID: "s", WithMeta: true})
	if err := errOf(dst.Handle(context.Background(), &wire.IngestSnapshot{UUID: "s", Items: items})); err != nil {
		t.Fatal(err)
	}
	// Invisible before commit: not listed, not queryable.
	if got := dst.ListStreams(); len(got) != 0 {
		t.Fatalf("uncommitted import listed: %v", got)
	}
	if _, _, err := dst.StreamInfo("s"); err == nil {
		t.Fatal("uncommitted import served StreamInfo")
	}
	// Abort wipes the partial copy.
	if err := errOf(dst.Handle(context.Background(), &wire.HandoffComplete{UUID: "s", Epoch: 1, Action: wire.HandoffAbort})); err != nil {
		t.Fatal(err)
	}
	if n := dst.store.Len(); n != 0 {
		t.Fatalf("abort left %d keys behind", n)
	}
	// The source never stopped serving.
	if _, count, err := h.engine.StreamInfo("s"); err != nil || count != 5 {
		t.Fatalf("source degraded after abort: %d, %v", count, err)
	}
}

func TestIngestSnapshotRejectsHostileKeysAndLiveStreams(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t)
	h.createStream(t, "live")
	dst := h.engine
	if err := errOf(dst.Handle(ctx, &wire.IngestSnapshot{UUID: "live"})); err == nil {
		t.Error("import over a live stream accepted")
	}
	for _, key := range []string{
		"m/other",        // another stream's meta
		"c/other/0",      // another stream's chunk
		"topo",           // the topology key
		"mv/victim",      // a forged tombstone
		"s0/c/victim/0",  // a partition prefix escape
		"c/victimextra/", // prefix that only starts with the uuid
	} {
		if err := errOf(dst.Handle(ctx, &wire.IngestSnapshot{UUID: "victim", Items: []wire.KVItem{{Key: key, Value: []byte{1}}}})); err == nil {
			t.Errorf("hostile snapshot key %q accepted", key)
		}
	}
	// Keys properly scoped to the stream are accepted.
	if err := errOf(dst.Handle(ctx, &wire.IngestSnapshot{UUID: "victim", Items: []wire.KVItem{
		{Key: "m/victim", Value: []byte{1}},
		{Key: "c/victim/0", Value: []byte{2}},
		{Key: "i/victim/meta", Value: []byte{3}},
	}})); err != nil {
		t.Errorf("scoped snapshot keys rejected: %v", err)
	}
}

func TestMovedTombstoneSurvivesRestart(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 3)
	dst, err := New(kv.NewMemStore(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	migrate(t, h.engine, dst, "s", 9)
	// Restart the source engine over the same store.
	restarted, err := New(h.store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = restarted.StreamInfo("s")
	we := WireError(err)
	if we.Code != wire.CodeWrongShard || we.Aux != 9 {
		t.Fatalf("restarted source answered %v, want CodeWrongShard epoch 9", we)
	}
	// A later move back to this shard clears the tombstone on commit.
	_, _, items := exportAll(t, dst, wire.StreamSnapshot{UUID: "s", WithMeta: true})
	if err := errOf(restarted.Handle(context.Background(), &wire.IngestSnapshot{UUID: "s", Items: items})); err != nil {
		t.Fatal(err)
	}
	if err := errOf(restarted.Handle(context.Background(), &wire.HandoffComplete{UUID: "s", Epoch: 10, Action: wire.HandoffCommit})); err != nil {
		t.Fatal(err)
	}
	if _, count, err := restarted.StreamInfo("s"); err != nil || count != 3 {
		t.Fatalf("move-back failed: %d, %v", count, err)
	}
}

func TestEngineTopologyStore(t *testing.T) {
	store := kv.NewMemStore()
	e, err := New(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if epoch, members := e.Topology(); epoch != 0 || len(members) != 0 {
		t.Fatalf("fresh engine topology = %d/%v", epoch, members)
	}
	if err := e.SetTopology(2, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	// Stale publishes are ignored.
	if err := e.SetTopology(1, []string{"x"}); err != nil {
		t.Fatal(err)
	}
	if epoch, members := e.Topology(); epoch != 2 || len(members) != 2 || members[0] != "a" {
		t.Fatalf("topology = %d/%v, want 2/[a b]", epoch, members)
	}
	// Survives restart.
	e2, err := New(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if epoch, members := e2.Topology(); epoch != 2 || len(members) != 2 {
		t.Fatalf("restarted topology = %d/%v", epoch, members)
	}
	// The stored layout is pinned: uvarint epoch, member count, then each
	// member length-prefixed. A value written in it loads; a truncated one
	// is refused.
	if err := e2.SetTopology(300, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	const stored = "ac020201610162" // epoch 300, members [a b]
	if got, err := store.Get(topoKey); err != nil || hex.EncodeToString(got) != stored {
		t.Fatalf("stored topology = %x, %v; want %s", got, err, stored)
	}
	for _, c := range []struct {
		value string
		ok    bool
	}{{stored, true}, {"ac0202016101", false}, {"ac02", false}} {
		value, _ := hex.DecodeString(c.value)
		s := kv.NewMemStore()
		if err := s.Put(topoKey, value); err != nil {
			t.Fatal(err)
		}
		e3, err := New(s, Config{})
		if !c.ok {
			if err == nil {
				t.Errorf("stored topology %s loaded; want it refused", c.value)
			}
			continue
		}
		if err != nil {
			t.Fatalf("stored topology %s: %v", c.value, err)
		}
		if epoch, members := e3.Topology(); epoch != 300 || !reflect.DeepEqual(members, []string{"a", "b"}) {
			t.Errorf("stored topology %s loads as %d/%v, want 300/[a b]", c.value, epoch, members)
		}
	}
}
