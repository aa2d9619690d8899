// End-to-end acceptance for live subscriptions: over a real TCP front end
// to a 4-shard router, a subscriber sees exactly the windows a polling
// cursor computes — byte-identical ciphertexts, no gaps, no duplicates —
// across an unsubscribe/resubscribe cycle AND a live 4 -> 5 reshard that
// verifiably moves a watched stream to the brand-new shard. Lives in the
// external test package because cluster imports client.
package client_test

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/wire"
)

// fillFrom appends n chunks starting at index from, continuing fill's
// deterministic point profile so baselines line up.
func fillFrom(t *testing.T, s *client.OwnerStream, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		start := e2eEpoch + int64(i)*e2eInterval
		pts := make([]chunk.Point, 5)
		for p := range pts {
			pts[p] = chunk.Point{TS: start + int64(p)*2000, Val: int64(60 + i%20)}
		}
		if err := s.AppendChunk(context.Background(), pts); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
}

// collectE2E receives n deltas or fails.
func collectE2E(t *testing.T, sub *client.Subscription, n int) []client.Delta {
	t.Helper()
	out := make([]client.Delta, 0, n)
	for len(out) < n {
		if !sub.Next() {
			t.Fatalf("Next false after %d deltas: %v", len(out), sub.Err())
		}
		out = append(out, sub.Delta())
	}
	return out
}

func TestSubscribeReshardE2E(t *testing.T) {
	inproc, router := newClusterTransport(t, 4)
	_ = inproc
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer(router, func(string, ...any) {})
	srvCtx, srvCancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(srvCtx, lis) }()
	defer func() {
		srvCancel()
		srv.Close()
		<-done
	}()
	tr, err := client.DialTCP(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Deterministic member pair against both rings: stream a WILL move to
	// the new shard when the ring grows (consistent hashing only reassigns
	// keys to the newcomer), stream b stays put on a different old shard —
	// one leg of the subscription is guaranteed to die mid-flight and heal.
	names := router.Shards()
	oldRing, err := cluster.NewRing(names)
	if err != nil {
		t.Fatal(err)
	}
	newRing, err := cluster.NewRing(append(append([]string(nil), names...), "shard-4"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b string
	for i := 0; i < 1024 && a == ""; i++ {
		if u := fmt.Sprintf("sub-e2e-%d", i); newRing.Owner(u) == "shard-4" {
			a = u
		}
	}
	for i := 0; i < 1024 && b == ""; i++ {
		u := fmt.Sprintf("sub-e2e-%d", i)
		if u != a && newRing.Owner(u) != "shard-4" && oldRing.Owner(u) != oldRing.Owner(a) {
			b = u
		}
	}
	if a == "" || b == "" {
		t.Fatalf("no moving/staying pair in 1024 candidates (a=%q b=%q)", a, b)
	}

	owner := client.NewOwner(tr)
	sa, err := owner.CreateStream(context.Background(), e2eOpts(a))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := owner.CreateStream(context.Background(), e2eOpts(b))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, sa, 6) // windows 0,1 at wc=3
	fill(t, sb, 6)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub, err := sa.Query().Streams(sb).Window(3).Stats(client.Sum, client.Count).
		FromWindow(0).Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	deltas := collectE2E(t, sub, 2) // backfill of windows 0,1

	// Grow 4 -> 5 mid-subscription: the watched stream a migrates to the
	// brand-new shard, the router's old leg dies with CodeWrongShard, and
	// the subscription heals onto the new owner.
	fifth, err := server.New(kv.NewMemStore(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var newShards []cluster.Shard
	for _, name := range names {
		newShards = append(newShards, cluster.Shard{Name: name})
	}
	newShards = append(newShards, cluster.Shard{Name: "shard-4", Handler: fifth})
	if _, err := router.Rebalance(context.Background(), newShards); err != nil {
		t.Fatal(err)
	}
	if got := router.Owner(a); got != "shard-4" {
		t.Fatalf("stream %q owned by %s after grow, expected shard-4", a, got)
	}

	fillFrom(t, sa, 6, 6) // windows 2,3 arrive after the reshard
	fillFrom(t, sb, 6, 6)
	deltas = append(deltas, collectE2E(t, sub, 2)...)

	// Unsubscribe, let more history land, resubscribe at the next window:
	// the sequence must continue unbroken.
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if sub.Next() {
		t.Fatal("Next true after Close")
	}
	if sub.Err() != nil {
		t.Fatalf("closed subscription reports error: %v", sub.Err())
	}
	fillFrom(t, sa, 12, 3) // window 4
	fillFrom(t, sb, 12, 3)
	sub2, err := sa.Query().Streams(sb).Window(3).Stats(client.Sum, client.Count).
		FromWindow(4).Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	deltas = append(deltas, collectE2E(t, sub2, 1)...)

	// No gaps, no duplicates, and every decrypted delta equals the polling
	// cursor's window — across the reshard and the resubscribe.
	te := e2eEpoch + 15*e2eInterval
	base, err := sa.Query().Streams(sb).Window(3).Stats(client.Sum, client.Count).
		Range(e2eEpoch, te).Aggs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 5 {
		t.Fatalf("cursor baseline has %d windows, want 5", len(base))
	}
	for i, d := range deltas {
		if d.Seq != uint64(i) {
			t.Fatalf("delta %d has seq %d (gap or duplicate across reshard/resubscribe)", i, d.Seq)
		}
		bw := base[i]
		if d.Agg.FromChunk != bw.FromChunk || d.Agg.ToChunk != bw.ToChunk ||
			d.Agg.Start != bw.Start || d.Agg.End != bw.End {
			t.Fatalf("delta %d grid [%d,%d) vs cursor [%d,%d)",
				i, d.Agg.FromChunk, d.Agg.ToChunk, bw.FromChunk, bw.ToChunk)
		}
		if d.Agg.Sum() != bw.Sum() || d.Agg.Count() != bw.Count() {
			t.Fatalf("window %d decrypts differently: sub (sum %d, count %d) cursor (sum %d, count %d)",
				i, d.Agg.Sum(), d.Agg.Count(), bw.Sum(), bw.Count())
		}
	}

	// Byte-level check, below the crypto: a fresh raw subscription replays
	// all five windows as ciphertexts identical to a one-shot AggRange over
	// the same grid — committed windows are immutable, so the server-pushed
	// aggregates and the index-computed aggregates are the same bytes.
	st, err := tr.Stream(ctx, &wire.Subscribe{UUIDs: []string{a, b}, WindowChunks: 3, FromSeq: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	first, err := st.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := first.(*wire.SubscribeResp); !ok {
		t.Fatalf("handshake frame %#v", first)
	}
	resp, err := tr.RoundTrip(context.Background(), &wire.AggRange{
		UUIDs: []string{a, b}, Ts: e2eEpoch, Te: te, WindowChunks: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, ok := resp.(*wire.AggRangeResp)
	if !ok {
		t.Fatalf("AggRange -> %#v", resp)
	}
	for i := 0; i < 5; i++ {
		msg, err := st.Recv()
		if err != nil {
			t.Fatalf("raw event %d: %v", i, err)
		}
		ev, ok := msg.(*wire.SubEvent)
		if !ok {
			t.Fatalf("raw frame %d: %#v", i, msg)
		}
		if ev.Seq != uint64(i) {
			t.Fatalf("raw event %d has seq %d", i, ev.Seq)
		}
		if !reflect.DeepEqual(ev.Window, agg.Windows[i]) {
			t.Fatalf("window %d ciphertext differs from polling aggregate:\n sub %v\n agg %v",
				i, ev.Window, agg.Windows[i])
		}
	}
}
