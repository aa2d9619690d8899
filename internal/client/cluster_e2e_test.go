// End-to-end proof that an unmodified Owner/Consumer drives a sharded
// cluster exactly as it drives a single engine: same client code, same
// crypto, only the transport's handler differs. Lives in an external test
// package because cluster imports client.
package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/crypto/hybrid"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/wire"
)

const (
	e2eEpoch    = int64(1_700_000_000_000)
	e2eInterval = int64(10_000)
)

// newClusterTransport builds a router over n engines (each with its own
// store) and wraps it in the codec-exercising in-proc transport.
func newClusterTransport(t *testing.T, n int) (client.Transport, *cluster.Router) {
	t.Helper()
	var shards []cluster.Shard
	for i := 0; i < n; i++ {
		engine, err := server.New(kv.NewMemStore(), server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, cluster.Shard{Name: fmt.Sprintf("shard-%d", i), Handler: engine})
	}
	router, err := cluster.NewRouter(shards, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &client.InProc{Engine: router}, router
}

func e2eOpts(uuid string) client.StreamOptions {
	return client.StreamOptions{
		UUID:     uuid,
		Epoch:    e2eEpoch,
		Interval: e2eInterval,
		Spec:     chunk.DigestSpec{Sum: true, Count: true, SumSq: true},
		Fanout:   8,
	}
}

// fill appends n chunks of 5 points each with deterministic values.
func fill(t *testing.T, s *client.OwnerStream, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
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

// TestClusterE2E runs the full owner flows — create, append, seal, stat
// queries, grants, consumer decryption, multi-stream queries, listing, and
// deletion — against a 4-shard router.
func TestClusterE2E(t *testing.T) {
	tr, router := newClusterTransport(t, 4)
	owner := client.NewOwner(tr)

	// Enough streams to cover several shards.
	const nStreams = 8
	const nChunks = 12
	streams := make([]*client.OwnerStream, nStreams)
	uuids := make([]string, nStreams)
	shardsHit := map[string]bool{}
	for i := range streams {
		uuids[i] = fmt.Sprintf("cluster-e2e-%d", i)
		s, err := owner.CreateStream(context.Background(), e2eOpts(uuids[i]))
		if err != nil {
			t.Fatal(err)
		}
		fill(t, s, nChunks)
		streams[i] = s
		shardsHit[router.Owner(uuids[i])] = true
	}
	if len(shardsHit) < 2 {
		t.Fatalf("streams cover %d shards; need a cross-shard spread", len(shardsHit))
	}

	// Owner-side statistical queries decrypt shard-local aggregates.
	var wantSum int64
	for i := 0; i < nChunks; i++ {
		wantSum += 5 * int64(60+i%20)
	}
	for _, s := range streams {
		res, err := s.StatRange(context.Background(), e2eEpoch, e2eEpoch+int64(nChunks)*e2eInterval)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 5*nChunks || res.Sum != wantSum {
			t.Fatalf("stream %s: count=%d sum=%d, want %d/%d", s.UUID(), res.Count, res.Sum, 5*nChunks, wantSum)
		}
	}

	// Grants + consumer decryption, with the two granted streams on
	// different shards so StatMulti exercises the cross-shard fan-out.
	a := 0
	b := -1
	for i := 1; i < nStreams; i++ {
		if router.Owner(uuids[i]) != router.Owner(uuids[a]) {
			b = i
			break
		}
	}
	if b < 0 {
		t.Fatal("no two streams on different shards")
	}
	kp, err := hybrid.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	hi := e2eEpoch + int64(nChunks)*e2eInterval
	if _, err := streams[a].Grant(context.Background(), kp.PublicBytes(), e2eEpoch, hi, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := streams[b].Grant(context.Background(), kp.PublicBytes(), e2eEpoch, hi, 0); err != nil {
		t.Fatal(err)
	}
	consumer := client.NewConsumer(tr, kp)
	ca, err := consumer.OpenStream(context.Background(), uuids[a])
	if err != nil {
		t.Fatal(err)
	}
	cb, err := consumer.OpenStream(context.Background(), uuids[b])
	if err != nil {
		t.Fatal(err)
	}
	single, err := ca.StatRange(context.Background(), e2eEpoch, hi)
	if err != nil {
		t.Fatal(err)
	}
	if single.Sum != wantSum {
		t.Fatalf("consumer sum = %d, want %d", single.Sum, wantSum)
	}
	multi, err := consumer.StatMulti(context.Background(), []*client.ConsumerStream{ca, cb}, e2eEpoch, hi)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Count != 2*5*nChunks || multi.Sum != 2*wantSum {
		t.Fatalf("cross-shard StatMulti count=%d sum=%d, want %d/%d", multi.Count, multi.Sum, 2*5*nChunks, 2*wantSum)
	}

	// Resolution-restricted grant on a third stream.
	rs, err := owner.CreateStream(context.Background(), e2eOpts("cluster-e2e-res"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.EnableResolution(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
	fill(t, rs, nChunks)
	kp2, _ := hybrid.GenerateKeyPair()
	if _, err := rs.Grant(context.Background(), kp2.PublicBytes(), e2eEpoch, hi, 6); err != nil {
		t.Fatal(err)
	}
	consumer2 := client.NewConsumer(tr, kp2)
	crs, err := consumer2.OpenStream(context.Background(), "cluster-e2e-res")
	if err != nil {
		t.Fatal(err)
	}
	series, err := crs.StatSeries(context.Background(), e2eEpoch, hi, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("got %d windows, want 2", len(series))
	}
	if _, err := crs.StatRange(context.Background(), e2eEpoch, hi); err == nil {
		t.Error("restricted principal decrypted full resolution")
	}

	// Raw point retrieval crosses the router too.
	pts, err := streams[a].Points(context.Background(), e2eEpoch, e2eEpoch+e2eInterval)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("got %d points, want 5", len(pts))
	}

	// Listing merges all shards; deletion routes to the owner shard.
	listed, err := owner.ListStreams(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != nStreams+1 {
		t.Fatalf("listed %d streams, want %d", len(listed), nStreams+1)
	}
	if err := owner.DeleteStream(context.Background(), uuids[a]); err != nil {
		t.Fatal(err)
	}
	if _, err := consumer.OpenStream(context.Background(), uuids[a]); err == nil {
		t.Error("deleted stream still opens")
	}
	listed, err = owner.ListStreams(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != nStreams {
		t.Fatalf("listed %d streams after delete, want %d", len(listed), nStreams)
	}
}

// TestClusterMatchesSingleEngine runs one identical flow against a single
// engine and a 4-shard cluster and compares every decrypted answer.
func TestClusterMatchesSingleEngine(t *testing.T) {
	engine, err := server.New(kv.NewMemStore(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	singleTr := &client.InProc{Engine: engine}
	clusterTr, _ := newClusterTransport(t, 4)

	type answers struct {
		sum     int64
		count   uint64
		windows []int64
	}
	run := func(tr client.Transport) answers {
		owner := client.NewOwner(tr)
		var out answers
		for i := 0; i < 4; i++ {
			s, err := owner.CreateStream(context.Background(), e2eOpts(fmt.Sprintf("parity-%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			fill(t, s, 8)
			res, err := s.StatRange(context.Background(), e2eEpoch, e2eEpoch+8*e2eInterval)
			if err != nil {
				t.Fatal(err)
			}
			out.sum += res.Sum
			out.count += res.Count
			series, err := s.StatSeries(context.Background(), e2eEpoch, e2eEpoch+8*e2eInterval, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range series {
				out.windows = append(out.windows, w.Sum)
			}
		}
		return out
	}
	single := run(singleTr)
	sharded := run(clusterTr)
	if single.sum != sharded.sum || single.count != sharded.count {
		t.Fatalf("totals differ: single %+v, sharded %+v", single, sharded)
	}
	if len(single.windows) != len(sharded.windows) {
		t.Fatalf("window counts differ: %d vs %d", len(single.windows), len(sharded.windows))
	}
	for i := range single.windows {
		if single.windows[i] != sharded.windows[i] {
			t.Fatalf("window %d differs: %d vs %d", i, single.windows[i], sharded.windows[i])
		}
	}
}

// countingTransport tallies round trips (and the AggRange among them) and
// opened push streams so tests can prove how many a query plan costs. It
// is a client.Streamer whenever the wrapped transport is.
type countingTransport struct {
	client.Transport
	trips   atomic.Int64
	aggs    atomic.Int64
	streams atomic.Int64
}

func (c *countingTransport) RoundTrip(ctx context.Context, req wire.Message) (wire.Message, error) {
	c.trips.Add(1)
	if _, ok := req.(*wire.AggRange); ok {
		c.aggs.Add(1)
	}
	return c.Transport.RoundTrip(ctx, req)
}

func (c *countingTransport) Stream(ctx context.Context, req wire.Message) (*client.Stream, error) {
	c.streams.Add(1)
	st, ok := c.Transport.(client.Streamer)
	if !ok {
		return nil, errors.New("countingTransport: wrapped transport has no streams")
	}
	return st.Stream(ctx, req)
}

// TestClusterPlanParity: a 3-stream server-side aggregate over a 4-shard
// router must equal the client-side merge of three single-stream queries,
// window by window — the combine tree (engine sums its own streams, the
// router sums shard partials) must be invisible in the numbers.
func TestClusterPlanParity(t *testing.T) {
	tr, router := newClusterTransport(t, 4)
	owner := client.NewOwner(tr)
	ctx := context.Background()

	const nChunks = 24
	uuids := []string{"plan-parity-a", "plan-parity-b", "plan-parity-c"}
	streams := make([]*client.OwnerStream, len(uuids))
	shardsHit := map[string]bool{}
	for i, uuid := range uuids {
		s, err := owner.CreateStream(ctx, e2eOpts(uuid))
		if err != nil {
			t.Fatal(err)
		}
		// Distinct value profiles per stream so a mis-summed window
		// cannot accidentally match.
		for c := 0; c < nChunks; c++ {
			start := e2eEpoch + int64(c)*e2eInterval
			pts := make([]chunk.Point, 3)
			for p := range pts {
				pts[p] = chunk.Point{TS: start + int64(p)*2000, Val: int64((i+1)*100 + c + p)}
			}
			if err := s.AppendChunk(ctx, pts); err != nil {
				t.Fatal(err)
			}
		}
		streams[i] = s
		shardsHit[router.Owner(uuid)] = true
	}
	if len(shardsHit) < 2 {
		t.Skipf("streams landed on one shard; parity would not cross shards")
	}
	te := e2eEpoch + nChunks*e2eInterval

	const window = 4
	merge := make([][]client.StatResult, len(streams))
	for i, s := range streams {
		res, err := s.StatSeries(ctx, e2eEpoch, te, window)
		if err != nil {
			t.Fatal(err)
		}
		merge[i] = res
	}
	aggs, err := streams[0].Query().Streams(streams[1], streams[2]).
		Range(e2eEpoch, te).Window(window).Aggs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != len(merge[0]) {
		t.Fatalf("plan yielded %d windows, merge %d", len(aggs), len(merge[0]))
	}
	for w, agg := range aggs {
		var wantSum int64
		var wantCount uint64
		for _, m := range merge {
			wantSum += m[w].Sum
			wantCount += m[w].Count
		}
		if agg.Sum() != wantSum || agg.Count() != wantCount || agg.StreamCount != 3 {
			t.Errorf("window %d: plan sum=%d count=%d streams=%d, merge sum=%d count=%d",
				w, agg.Sum(), agg.Count(), agg.StreamCount, wantSum, wantCount)
		}
	}

	// Consumer variant: grants on every member stream decrypt the same
	// combined aggregate through the grant-derived key sets.
	kp, err := hybrid.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range streams {
		if _, err := s.Grant(ctx, kp.PublicBytes(), e2eEpoch, te, 0); err != nil {
			t.Fatal(err)
		}
	}
	consumer := client.NewConsumer(tr, kp)
	views := make([]*client.ConsumerStream, len(uuids))
	for i, uuid := range uuids {
		cs, err := consumer.OpenStream(ctx, uuid)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = cs
	}
	caggs, err := views[0].Query().Streams(views[1], views[2]).
		Range(e2eEpoch, te).Window(window).Aggs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(caggs) != len(aggs) {
		t.Fatalf("consumer plan yielded %d windows, owner plan %d", len(caggs), len(aggs))
	}
	for w := range caggs {
		if caggs[w].Sum() != aggs[w].Sum() || caggs[w].Count() != aggs[w].Count() {
			t.Errorf("window %d: consumer %d/%d vs owner %d/%d",
				w, caggs[w].Sum(), caggs[w].Count(), aggs[w].Sum(), aggs[w].Count())
		}
	}
}

// TestClusterPlanRoundTripsPerPage: a 16-stream windowed aggregate costs
// one round trip per page (plus a single batched metadata pre-pass), not
// one per stream — the acceptance bar for the typed-plan redesign.
func TestClusterPlanRoundTripsPerPage(t *testing.T) {
	base, _ := newClusterTransport(t, 4)
	tr := &countingTransport{Transport: base}
	owner := client.NewOwner(tr)
	ctx := context.Background()

	const nStreams = 16
	const nChunks = 20
	streams := make([]*client.OwnerStream, nStreams)
	for i := range streams {
		s, err := owner.CreateStream(ctx, e2eOpts(fmt.Sprintf("plan-rt-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		fill(t, s, nChunks)
		streams[i] = s
	}
	te := e2eEpoch + nChunks*e2eInterval

	others := make([]client.Queryable, nStreams-1)
	for i, s := range streams[1:] {
		others[i] = s
	}
	// 20 chunks / window 4 = 5 windows; 2 per page = 3 pages.
	const wantPages = 3
	tr.trips.Store(0)
	aggs, err := streams[0].Query().Streams(others...).
		Range(e2eEpoch, te).Window(4).PageSize(2).Aggs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 5 {
		t.Fatalf("plan yielded %d windows, want 5", len(aggs))
	}
	got := tr.trips.Load()
	// One batched StreamInfo pre-pass + one AggRange per page. The old
	// API needed nStreams round trips per page plus nStreams pre-passes.
	if got != wantPages+1 {
		t.Errorf("16-stream plan cost %d round trips, want %d (1 metadata + %d pages)",
			got, wantPages+1, wantPages)
	}

	// Scalar plan: exactly one round trip, no metadata pre-pass.
	tr.trips.Store(0)
	if _, err := streams[0].Query().Streams(others...).Range(e2eEpoch, te).Aggs(ctx); err != nil {
		t.Fatal(err)
	}
	if got := tr.trips.Load(); got != 1 {
		t.Errorf("16-stream scalar plan cost %d round trips, want 1", got)
	}
}

// TestClusterPlanStreamedOverTCP drives a multi-stream windowed plan
// through a real TCP front end over a 4-shard router: the cursor opens no
// push stream, sends one AggRange per page, and the pages hold the
// expected sums.
func TestClusterPlanStreamedOverTCP(t *testing.T) {
	inproc, _ := newClusterTransport(t, 4)
	router := inproc.(*client.InProc).Engine
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer(router, func(string, ...any) {})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx, lis) }()
	defer func() {
		cancel()
		srv.Close()
		<-done
	}()
	tcp, err := client.DialTCP(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	tr := &countingTransport{Transport: tcp}

	owner := client.NewOwner(tr)
	const nChunks = 30
	uuids := []string{"tcp-plan-a", "tcp-plan-b", "tcp-plan-c"}
	streams := make([]*client.OwnerStream, len(uuids))
	for i, uuid := range uuids {
		s, err := owner.CreateStream(context.Background(), e2eOpts(uuid))
		if err != nil {
			t.Fatal(err)
		}
		fill(t, s, nChunks)
		streams[i] = s
	}
	te := e2eEpoch + nChunks*e2eInterval

	tr.aggs.Store(0)
	aggs, err := streams[0].Query().Streams(streams[1], streams[2]).
		Range(e2eEpoch, te).Window(3).PageSize(4).Stats(chunk.StatSum, chunk.StatCount).
		Aggs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != nChunks/3 {
		t.Fatalf("plan yielded %d windows, want %d", len(aggs), nChunks/3)
	}
	// 10 windows at 4 per page.
	if n, opened := tr.aggs.Load(), tr.streams.Load(); opened != 0 || n != 3 {
		t.Errorf("plan opened %d streams and sent %d AggRange, want 0 and 3", opened, n)
	}
	var wantSum int64
	for i := 0; i < 3; i++ { // window 0 covers chunks 0..2 of each stream
		wantSum += 3 * 5 * int64(60+i%20)
	}
	if aggs[0].Sum() != wantSum {
		t.Errorf("window 0 sum = %d, want %d", aggs[0].Sum(), wantSum)
	}
	if aggs[0].StreamCount != 3 {
		t.Errorf("window 0 StreamCount = %d", aggs[0].StreamCount)
	}
}

// TestClusterPlanUnevenIngest: members with different ingest progress force
// the router's optimistic fan-out to disagree and retry pinned to the
// common range — the result must clamp to the shortest member, exactly as
// a single engine does.
func TestClusterPlanUnevenIngest(t *testing.T) {
	tr, router := newClusterTransport(t, 4)
	owner := client.NewOwner(tr)
	ctx := context.Background()

	counts := []int{24, 16, 9}
	uuids := []string{"uneven-a", "uneven-b", "uneven-c"}
	streams := make([]*client.OwnerStream, len(uuids))
	shardsHit := map[string]bool{}
	for i, uuid := range uuids {
		s, err := owner.CreateStream(ctx, e2eOpts(uuid))
		if err != nil {
			t.Fatal(err)
		}
		fill(t, s, counts[i])
		streams[i] = s
		shardsHit[router.Owner(uuid)] = true
	}
	if len(shardsHit) < 2 {
		t.Skip("streams landed on one shard")
	}
	te := e2eEpoch + 24*e2eInterval

	const window = 4
	aggs, err := streams[0].Query().Streams(streams[1], streams[2]).
		Range(e2eEpoch, te).Window(window).Aggs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Shortest member has 9 chunks -> 2 complete 4-chunk windows.
	if len(aggs) != 2 {
		t.Fatalf("uneven plan yielded %d windows, want 2", len(aggs))
	}
	for w, agg := range aggs {
		var wantSum int64
		var wantCount uint64
		for _, s := range streams {
			res, err := s.StatSeries(ctx, e2eEpoch, e2eEpoch+8*e2eInterval, window)
			if err != nil {
				t.Fatal(err)
			}
			wantSum += res[w].Sum
			wantCount += res[w].Count
		}
		if agg.Sum() != wantSum || agg.Count() != wantCount {
			t.Errorf("window %d: plan %d/%d, merge %d/%d", w, agg.Sum(), agg.Count(), wantSum, wantCount)
		}
	}

	// Scalar plan clamps the same way.
	it := streams[0].Query().Streams(streams[1], streams[2]).Range(e2eEpoch, te).Iter(ctx)
	if !it.Next() {
		t.Fatalf("uneven scalar plan: %v", it.Err())
	}
	if got := it.Agg(); got.ToChunk != 9 {
		t.Errorf("scalar clamp ToChunk = %d, want 9", got.ToChunk)
	}
}
