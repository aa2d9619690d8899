package client

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto/hybrid"
	"repro/internal/server"
	"repro/internal/wire"
)

// subHarness serves one engine over real TCP and dials it.
func subHarness(t *testing.T) *TCP {
	t.Helper()
	engine := newEngine(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer(engine, func(string, ...any) {})
	ctx, cancel := context.WithCancel(context.Background())
	go srv.Serve(ctx, lis)
	t.Cleanup(func() { cancel(); srv.Close() })
	tcp, err := DialTCP(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcp.Close() })
	return tcp
}

// collectDeltas receives n deltas or fails.
func collectDeltas(t *testing.T, sub *Subscription, n int) []Delta {
	t.Helper()
	out := make([]Delta, 0, n)
	for len(out) < n {
		if !sub.Next() {
			t.Fatalf("Next false after %d deltas: %v", len(out), sub.Err())
		}
		out = append(out, sub.Delta())
	}
	return out
}

// compareDeltas checks a delta run against the cursor baseline, window by
// window: same grid, same decrypted statistics, gap-free ascending
// sequence starting at fromSeq.
func compareDeltas(t *testing.T, deltas []Delta, base []Agg, fromSeq uint64) {
	t.Helper()
	for i, d := range deltas {
		if d.Seq != fromSeq+uint64(i) {
			t.Fatalf("delta %d has seq %d, want %d (gap or duplicate)", i, d.Seq, fromSeq+uint64(i))
		}
		b := base[d.Seq]
		if d.Agg.FromChunk != b.FromChunk || d.Agg.ToChunk != b.ToChunk ||
			d.Agg.Start != b.Start || d.Agg.End != b.End {
			t.Fatalf("delta %d grid [%d,%d) vs cursor [%d,%d)", i, d.Agg.FromChunk, d.Agg.ToChunk, b.FromChunk, b.ToChunk)
		}
		if d.Agg.Sum() != b.Sum() || d.Agg.Count() != b.Count() {
			t.Fatalf("window %d decrypts differently: sub (sum %d, count %d) cursor (sum %d, count %d)",
				d.Seq, d.Agg.Sum(), d.Agg.Count(), b.Sum(), b.Count())
		}
	}
}

// A subscriber must decrypt exactly what a polling cursor decrypts — the
// server-maintained live aggregate and the index-computed aggregate are
// the same ciphertext sums — and an unsubscribe/resubscribe cycle must
// resume the window sequence without gaps or duplicates.
func TestSubscribeMatchesCursorAcrossResubscribe(t *testing.T) {
	tcp := subHarness(t)
	owner := NewOwner(tcp)
	s, err := owner.CreateStream(context.Background(), defaultOpts("live"))
	if err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 12) // windows 0..3 at wc=3

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sub, err := s.Query().Window(3).Stats(Sum, Count).FromWindow(0).Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sub.FirstSeq() != 0 {
		t.Fatalf("FirstSeq %d, want 0", sub.FirstSeq())
	}
	phase1 := collectDeltas(t, sub, 4) // backfill of windows 0..3
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if sub.Next() {
		t.Fatal("Next true after Close")
	}
	if sub.Err() != nil {
		t.Fatalf("closed subscription reports error: %v", sub.Err())
	}

	// More history lands while unsubscribed; the resubscription picks up
	// at the next window and the sequence continues unbroken.
	fillStream(t, s, 6) // windows 4,5
	sub2, err := s.Query().Window(3).Stats(Sum, Count).FromWindow(4).Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	phase2 := collectDeltas(t, sub2, 2)

	epoch := s.epoch
	base, err := s.Query().Window(3).Stats(Sum, Count).Range(epoch, epoch+18*10_000).Aggs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 6 {
		t.Fatalf("cursor baseline has %d windows, want 6", len(base))
	}
	compareDeltas(t, phase1, base, 0)
	compareDeltas(t, phase2, base, 4)
}

// TestSlowSubscriberDoesNotStallSession: a subscriber that stops draining
// with more than wire.StreamInitialCredit windows pending exhausts its
// credit and parks server-side — only its own stream. Unary calls on the
// same session keep completing while it is parked, and once it drains
// again it receives every window, in order.
func TestSlowSubscriberDoesNotStallSession(t *testing.T) {
	tcp := subHarness(t)
	s, err := NewOwner(tcp).CreateStream(context.Background(), defaultOpts("slow-sub"))
	if err != nil {
		t.Fatal(err)
	}
	const windows = 4 * wire.StreamInitialCredit // of 3 chunks each
	fillStream(t, s, windows*3/2)                // half before subscribing

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub, err := s.Query().Window(3).Stats(Sum, Count).FromWindow(0).Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	fillStream(t, s, windows*3/2) // the other half lands live

	// Undrained, the stream holds what the credit left after the handshake
	// frame and nothing more: the server parked it with windows pending.
	parked := wire.StreamInitialCredit - 1
	waitFor(t, "subscriber parked", func() bool { return len(sub.st.frames) == parked })
	epoch := s.epoch
	te := epoch + windows*3*s.interval
	for i := 0; i < 50; i++ {
		callCtx, cancelCall := context.WithTimeout(ctx, 5*time.Second)
		_, err := s.StatRange(callCtx, epoch, te)
		cancelCall()
		if err != nil {
			t.Fatalf("unary call %d stalled behind a parked subscriber: %v", i, err)
		}
	}
	if n := len(sub.st.frames); n != parked {
		t.Fatalf("parked subscriber holds %d frames, want %d", n, parked)
	}

	deltas := collectDeltas(t, sub, windows)
	base, err := s.Query().Window(3).Stats(Sum, Count).Range(epoch, te).Aggs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	compareDeltas(t, deltas, base, 0)
}

// FromLatest (the default) skips history; deltas stream as windows
// complete.
func TestSubscribeLiveTail(t *testing.T) {
	tcp := subHarness(t)
	owner := NewOwner(tcp)
	s, err := owner.CreateStream(context.Background(), defaultOpts("tail"))
	if err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 7) // frontier: window 2 at wc=3

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sub, err := s.Query().Window(3).Stats(Sum, Count).Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.FirstSeq() != 2 {
		t.Fatalf("FirstSeq %d, want 2 (7 chunks / wc 3)", sub.FirstSeq())
	}
	fillStream(t, s, 5) // completes windows 2,3
	deltas := collectDeltas(t, sub, 2)
	epoch := s.epoch
	base, err := s.Query().Window(3).Stats(Sum, Count).Range(epoch, epoch+12*10_000).Aggs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	compareDeltas(t, deltas, base, 2)
}

// A consumer holding a grant subscribes like it queries: grant decrypters
// resolve at the subscribed window size, and the deltas decrypt to the
// same values the consumer's own cursor produces.
func TestSubscribeConsumerGrant(t *testing.T) {
	tcp := subHarness(t)
	owner := NewOwner(tcp)
	s, err := owner.CreateStream(context.Background(), defaultOpts("granted"))
	if err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 12)
	epoch := s.epoch
	kp, err := hybrid.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Grant(context.Background(), kp.PublicBytes(), epoch, epoch+18*10_000, 0); err != nil {
		t.Fatal(err)
	}
	cs, err := NewConsumer(tcp, kp).OpenStream(context.Background(), "granted")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sub, err := cs.Query().Window(3).Stats(Sum, Count).FromWindow(0).Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	deltas := collectDeltas(t, sub, 4)
	base, err := cs.Query().Window(3).Stats(Sum, Count).Range(epoch, epoch+12*10_000).Aggs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	compareDeltas(t, deltas, base, 0)
}

// Subscriptions need a windowed plan and a multiplexed transport.
func TestSubscribeValidation(t *testing.T) {
	tr := inproc(t)
	owner := NewOwner(tr)
	s, err := owner.CreateStream(context.Background(), defaultOpts("v"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query().Subscribe(context.Background()); err == nil {
		t.Error("windowless subscription accepted")
	}
	if _, err := s.Query().Window(3).Subscribe(context.Background()); err == nil {
		t.Error("subscription over a non-streaming transport accepted")
	}
}

// Close is idempotent and safe against a concurrently blocked Next.
func TestSubscribeCloseIdempotent(t *testing.T) {
	tcp := subHarness(t)
	owner := NewOwner(tcp)
	s, err := owner.CreateStream(context.Background(), defaultOpts("close"))
	if err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sub, err := s.Query().Window(3).Stats(Sum).Subscribe(ctx) // FromLatest: nothing to deliver
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sub.Next() // parked until Close tears the stream down
	}()
	for i := 0; i < 3; i++ {
		if err := sub.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i, err)
		}
	}
	wg.Wait()
	if sub.Err() != nil {
		t.Fatalf("closed subscription reports error: %v", sub.Err())
	}
}
