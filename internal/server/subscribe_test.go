package server

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/wire"
)

// collect receives n events from the handle or fails.
func collect(t *testing.T, h interface {
	Recv(context.Context) (*wire.SubEvent, error)
}, n int) []*wire.SubEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
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

// A subscriber must see exactly the windows a polling aggregate returns:
// same sequence, byte-identical ciphertext sums, no gaps, no duplicates —
// whether the windows predate the subscription (resync backfill) or
// arrive live.
func TestEngineSubscribeMatchesPolling(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 10) // windows 0,1,2 complete at wc=3 (chunk 9 pending)

	sub, err := h.engine.Subscribe(context.Background(), &wire.Subscribe{
		UUIDs: []string{"s"}, WindowChunks: 3, FromSeq: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if resp := sub.Resp(); resp.FirstSeq != 0 || resp.WindowChunks != 3 || resp.StreamCount != 1 {
		t.Fatalf("resp %+v", resp)
	}

	// Backfill: windows 0..2 arrive as resync reads.
	got := collect(t, sub, 3)
	for i, ev := range got {
		if ev.Seq != uint64(i) || !ev.Resync {
			t.Fatalf("backfill event %d: %+v", i, ev)
		}
		if ev.FromChunk != uint64(i)*3 || ev.ToChunk != uint64(i+1)*3 {
			t.Fatalf("backfill event %d chunk range [%d,%d)", i, ev.FromChunk, ev.ToChunk)
		}
	}

	// Live: finish window 3 and add window 4.
	h.ingestFrom(t, "s", 10, 5)
	live := collect(t, sub, 2)
	if live[0].Seq != 3 || live[1].Seq != 4 {
		t.Fatalf("live seqs %d,%d", live[0].Seq, live[1].Seq)
	}
	if live[0].Resync || live[1].Resync {
		t.Fatalf("live events flagged resync: %+v %+v", live[0], live[1])
	}

	// The polling baseline over the same grid.
	_, _, windows, err := h.engine.StatRange(context.Background(), []string{"s"}, 0, 15*100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 5 {
		t.Fatalf("baseline windows %d, want 5", len(windows))
	}
	all := append(got, live...)
	for i, ev := range all {
		if !reflect.DeepEqual(ev.Window, windows[i]) {
			t.Fatalf("window %d differs from polling baseline:\n sub  %v\n poll %v", i, ev.Window, windows[i])
		}
	}
}

// FromLatest starts at the subscribe-time frontier: history is skipped,
// the first event is the first window completed afterwards.
func TestEngineSubscribeFromLatest(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 7) // windows 0,1 complete at wc=3

	sub, err := h.engine.Subscribe(context.Background(), &wire.Subscribe{
		UUIDs: []string{"s"}, WindowChunks: 3, FromLatest: true, FromSeq: 999, // FromSeq ignored
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.Resp().FirstSeq != 2 {
		t.Fatalf("FirstSeq %d, want 2", sub.Resp().FirstSeq)
	}
	h.ingestFrom(t, "s", 7, 3)
	ev := collect(t, sub, 1)[0]
	if ev.Seq != 2 || ev.Resync {
		t.Fatalf("event %+v, want live seq 2", ev)
	}
}

// Element projection must match AggRange's.
func TestEngineSubscribeProjection(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 6)
	sub, err := h.engine.Subscribe(context.Background(), &wire.Subscribe{
		UUIDs: []string{"s"}, WindowChunks: 3, Elems: []uint32{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	events := collect(t, sub, 2)
	agg, err := h.engine.AggRange(context.Background(), []string{"s"}, 0, 600, 3, []uint32{1})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if !reflect.DeepEqual(ev.Window, agg.Windows[i]) {
			t.Fatalf("projected window %d: sub %v agg %v", i, ev.Window, agg.Windows[i])
		}
	}
	// Out-of-range element index is refused.
	if _, err := h.engine.Subscribe(context.Background(), &wire.Subscribe{
		UUIDs: []string{"s"}, WindowChunks: 3, Elems: []uint32{99},
	}); err == nil {
		t.Fatal("element index beyond vector accepted")
	}
}

// Deleting a watched stream kills the subscription with a NotFound-shaped
// error; a migrated stream yields CodeWrongShard so routers can heal.
func TestEngineSubscribeDeath(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 3)
	sub, err := h.engine.Subscribe(context.Background(), &wire.Subscribe{
		UUIDs: []string{"s"}, WindowChunks: 3, FromLatest: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := errOf(h.engine.Handle(context.Background(), &wire.DeleteStream{UUID: "s"})); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := sub.Recv(ctx); !errors.Is(err, errStreamNotFound) {
		t.Fatalf("Recv after delete: %v", err)
	}
}

// Close is idempotent and safe concurrently with an in-flight Recv.
func TestEngineSubscribeCloseIdempotent(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 3)
	sub, err := h.engine.Subscribe(context.Background(), &wire.Subscribe{
		UUIDs: []string{"s"}, WindowChunks: 3, FromLatest: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		sub.Recv(ctx) // parked: nothing to deliver
	}()
	for i := 0; i < 3; i++ {
		if err := sub.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i, err)
		}
	}
	cancel()
	<-done
	if v := h.engine.subs.Views(); v != 0 {
		t.Fatalf("views after close %d, want 0", v)
	}
}

// Two plans over the same stream set share one materialized view.
func TestEngineSubscribeSharesViews(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	h.ingest(t, "s", 3)
	s1, err := h.engine.Subscribe(context.Background(), &wire.Subscribe{UUIDs: []string{"s"}, WindowChunks: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := h.engine.Subscribe(context.Background(), &wire.Subscribe{UUIDs: []string{"s"}, WindowChunks: 3, Elems: []uint32{0}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v := h.engine.subs.Views(); v != 1 {
		t.Fatalf("views %d, want 1 (shared)", v)
	}
}

// Subscription plans validate like aggregate plans.
func TestEngineSubscribeValidation(t *testing.T) {
	h := newHarness(t)
	h.createStream(t, "s")
	ctx := context.Background()
	if _, err := h.engine.Subscribe(ctx, &wire.Subscribe{UUIDs: []string{"s"}}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := h.engine.Subscribe(ctx, &wire.Subscribe{WindowChunks: 3}); err == nil {
		t.Error("empty stream set accepted")
	}
	if _, err := h.engine.Subscribe(ctx, &wire.Subscribe{UUIDs: []string{"s", "s"}, WindowChunks: 3}); err == nil {
		t.Error("duplicate stream accepted")
	}
	if _, err := h.engine.Subscribe(ctx, &wire.Subscribe{UUIDs: []string{"nope"}, WindowChunks: 3}); err == nil {
		t.Error("unknown stream accepted")
	}
}
