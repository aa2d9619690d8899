package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/sub"
	"repro/internal/wire"
)

// recvN receives n events from the handle or fails.
func recvN(t *testing.T, h sub.Handle, n int) []*wire.SubEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out := make([]*wire.SubEvent, 0, n)
	for len(out) < n {
		ev, err := h.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv after %d events: %v", len(out), err)
		}
		out = append(out, ev)
	}
	return out
}

// ingestFrom seals n chunks starting at index from (continuing an earlier
// ingest) through the router.
func (tc *testCluster) ingestFrom(t *testing.T, uuid string, from, n uint64) {
	t.Helper()
	for i := from; i < from+n; i++ {
		start := int64(i) * 100
		sealed, err := chunk.SealPlain(tc.spec, chunk.CompressionNone, i, start, start+100,
			[]chunk.Point{{TS: start, Val: int64(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		if resp := tc.router.Handle(context.Background(), &wire.InsertChunk{UUID: uuid, Chunk: chunk.MarshalSealed(sealed)}); !isOK(resp) {
			t.Fatalf("InsertChunk(%q, %d) -> %#v", uuid, i, resp)
		}
	}
}

// crossShardPair finds two stream UUIDs owned by different shards under
// the router's current ring.
func crossShardPair(t *testing.T, r *Router) (a, b string) {
	t.Helper()
	for i := 0; i < 256; i++ {
		u := fmt.Sprintf("s-%d", i)
		if a == "" {
			a = u
			continue
		}
		if r.Owner(u) != r.Owner(a) {
			return a, u
		}
	}
	t.Fatal("no cross-shard pair in 256 candidates")
	return
}

// baselineWindows polls the full aggregate over [0, te) at wc and returns
// the window vectors.
func (tc *testCluster) baselineWindows(t *testing.T, uuids []string, te int64, wc uint64) [][]uint64 {
	t.Helper()
	resp := tc.router.Handle(context.Background(), &wire.StatRange{UUIDs: uuids, Ts: 0, Te: te, WindowChunks: wc})
	sr, ok := resp.(*wire.StatRangeResp)
	if !ok {
		t.Fatalf("StatRange -> %#v", resp)
	}
	return sr.Windows
}

// A cross-shard subscription must deliver exactly the windows a polling
// cross-shard aggregate computes: per-shard partials combined by the
// router, byte-identical to the one-shot query, whether the windows are
// backfilled or pushed live.
func TestClusterSubscribeMatchesPolling(t *testing.T) {
	tc := newTestCluster(t, 3)
	a, b := crossShardPair(t, tc.router)
	tc.createStream(t, a)
	tc.createStream(t, b)
	tc.ingest(t, a, 6)
	tc.ingest(t, b, 6)

	h, err := tc.router.Subscribe(context.Background(), &wire.Subscribe{
		UUIDs: []string{a, b}, WindowChunks: 3, FromSeq: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if resp := h.Resp(); resp.FirstSeq != 0 || resp.StreamCount != 2 || resp.WindowChunks != 3 {
		t.Fatalf("handshake %+v", resp)
	}

	backfill := recvN(t, h, 2) // windows 0,1 predate the subscription
	tc.ingestFrom(t, a, 6, 6)
	tc.ingestFrom(t, b, 6, 6)
	live := recvN(t, h, 2) // windows 2,3 arrive live

	want := tc.baselineWindows(t, []string{a, b}, 12*100, 3)
	all := append(backfill, live...)
	for i, ev := range all {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d (gap or duplicate)", i, ev.Seq)
		}
		if !reflect.DeepEqual(ev.Window, want[i]) {
			t.Fatalf("window %d differs from polling baseline:\n sub  %v\n poll %v", i, ev.Window, want[i])
		}
	}
}

// FromLatest on a cross-shard plan resolves against the slowest member
// globally, not each shard's local frontier.
func TestClusterSubscribeFromLatest(t *testing.T) {
	tc := newTestCluster(t, 3)
	a, b := crossShardPair(t, tc.router)
	tc.createStream(t, a)
	tc.createStream(t, b)
	tc.ingest(t, a, 9) // local frontier 3 at wc=3
	tc.ingest(t, b, 4) // local frontier 1 — the global minimum

	h, err := tc.router.Subscribe(context.Background(), &wire.Subscribe{
		UUIDs: []string{a, b}, WindowChunks: 3, FromLatest: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got := h.Resp().FirstSeq; got != 1 {
		t.Fatalf("FirstSeq %d, want 1 (global min 4 chunks / wc 3)", got)
	}
	tc.ingestFrom(t, b, 4, 2) // complete window 1 on the laggard
	ev := recvN(t, h, 1)[0]
	if ev.Seq != 1 {
		t.Fatalf("first event seq %d, want 1", ev.Seq)
	}
	want := tc.baselineWindows(t, []string{a, b}, 6*100, 3)
	if !reflect.DeepEqual(ev.Window, want[1]) {
		t.Fatalf("window 1: sub %v poll %v", ev.Window, want[1])
	}
}

// Element projection distributes over the cross-shard combine.
func TestClusterSubscribeProjection(t *testing.T) {
	tc := newTestCluster(t, 3)
	a, b := crossShardPair(t, tc.router)
	tc.createStream(t, a)
	tc.createStream(t, b)
	tc.ingest(t, a, 3)
	tc.ingest(t, b, 3)
	h, err := tc.router.Subscribe(context.Background(), &wire.Subscribe{
		UUIDs: []string{a, b}, WindowChunks: 3, Elems: []uint32{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ev := recvN(t, h, 1)[0]
	resp := tc.router.Handle(context.Background(), &wire.AggRange{
		UUIDs: []string{a, b}, Ts: 0, Te: 300, WindowChunks: 3, Elems: []uint32{1}})
	agg, ok := resp.(*wire.AggRangeResp)
	if !ok {
		t.Fatalf("AggRange -> %#v", resp)
	}
	if !reflect.DeepEqual(ev.Window, agg.Windows[0]) {
		t.Fatalf("projected window: sub %v agg %v", ev.Window, agg.Windows[0])
	}
}

// A live reshard moves watched streams to a new shard mid-subscription;
// the router heals by rebuilding the fan-out on the new owners, and the
// subscriber sees an unbroken, duplicate-free window sequence whose values
// still match the polling baseline.
func TestClusterSubscribeHealsAcrossReshard(t *testing.T) {
	tc := newTestCluster(t, 3)
	// Pick the watched pair deterministically against both rings: stream a
	// WILL move to the new shard when the membership grows (consistent
	// hashing only reassigns keys to the newcomer), stream b stays put on
	// a different shard — so one leg of the subscription is guaranteed to
	// die mid-flight and heal.
	oldRing, err := NewRing(tc.names)
	if err != nil {
		t.Fatal(err)
	}
	newRing, err := NewRing(append(append([]string(nil), tc.names...), "shard-3"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b string
	for i := 0; i < 1024 && a == ""; i++ {
		if u := fmt.Sprintf("s-%d", i); newRing.Owner(u) == "shard-3" {
			a = u
		}
	}
	for i := 0; i < 1024 && b == ""; i++ {
		u := fmt.Sprintf("s-%d", i)
		if u != a && newRing.Owner(u) != "shard-3" && oldRing.Owner(u) != oldRing.Owner(a) {
			b = u
		}
	}
	if a == "" || b == "" {
		t.Fatalf("no moving/staying pair in 1024 candidates (a=%q b=%q)", a, b)
	}
	tc.createStream(t, a)
	tc.createStream(t, b)
	tc.ingest(t, a, 6)
	tc.ingest(t, b, 6)

	h, err := tc.router.Subscribe(context.Background(), &wire.Subscribe{
		UUIDs: []string{a, b}, WindowChunks: 3, FromSeq: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	events := recvN(t, h, 2) // windows 0,1 before the reshard

	shards, _ := tc.growShards(t, "shard-3")
	if _, err := tc.router.Rebalance(context.Background(), shards); err != nil {
		t.Fatal(err)
	}
	if owner := tc.router.Owner(a); owner != "shard-3" {
		t.Fatalf("stream %q owned by %s after grow, expected shard-3", a, owner)
	}

	tc.ingestFrom(t, a, 6, 6)
	tc.ingestFrom(t, b, 6, 6)
	events = append(events, recvN(t, h, 2)...) // windows 2,3 after the reshard

	want := tc.baselineWindows(t, []string{a, b}, 12*100, 3)
	for i, ev := range events {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d (gap or duplicate across reshard)", i, ev.Seq)
		}
		if !reflect.DeepEqual(ev.Window, want[i]) {
			t.Fatalf("window %d differs from baseline after reshard:\n sub  %v\n poll %v",
				i, ev.Window, want[i])
		}
	}
}

// Unsubscribing is idempotent, also when racing a parked Recv.
func TestClusterSubscribeCloseIdempotent(t *testing.T) {
	tc := newTestCluster(t, 3)
	a, b := crossShardPair(t, tc.router)
	tc.createStream(t, a)
	tc.createStream(t, b)
	tc.ingest(t, a, 3)
	tc.ingest(t, b, 3)
	h, err := tc.router.Subscribe(context.Background(), &wire.Subscribe{
		UUIDs: []string{a, b}, WindowChunks: 3, FromLatest: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.Recv(ctx) // parked: frontier already delivered
	}()
	for i := 0; i < 3; i++ {
		if err := h.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i, err)
		}
	}
	cancel()
	<-done
}

// Router-level subscription plans are validated before any shard is
// contacted.
func TestClusterSubscribeValidation(t *testing.T) {
	tc := newTestCluster(t, 2)
	ctx := context.Background()
	if _, err := tc.router.Subscribe(ctx, &wire.Subscribe{UUIDs: []string{"x"}}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := tc.router.Subscribe(ctx, &wire.Subscribe{WindowChunks: 3}); err == nil {
		t.Error("empty stream set accepted")
	}
	if _, err := tc.router.Subscribe(ctx, &wire.Subscribe{UUIDs: []string{"ghost"}, WindowChunks: 3}); err == nil {
		t.Error("unknown stream accepted")
	}
}
