package client

import (
	"context"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/crypto/hybrid"
	"repro/internal/server"
	"repro/internal/wire"
)

// fillDeterministic appends n chunks of one point each with per-stream
// distinct values.
func fillDeterministic(t *testing.T, s *OwnerStream, n int, seed int64) {
	t.Helper()
	ctx := context.Background()
	for c := 0; c < n; c++ {
		start := writerEpoch + int64(c)*1000
		if err := s.AppendChunk(ctx, []chunk.Point{{TS: start, Val: seed + int64(c)}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanMultiStreamParity: a 3-stream server-side plan must equal the
// client-side merge of three single-stream queries, window by window.
func TestPlanMultiStreamParity(t *testing.T) {
	engine := newWriterEngine(t)
	tr := &InProc{Engine: engine}
	ctx := context.Background()

	const chunks = 24
	a := newWriterStream(t, tr, "plan-a")
	b := newWriterStream(t, tr, "plan-b")
	c := newWriterStream(t, tr, "plan-c")
	fillDeterministic(t, a, chunks, 100)
	fillDeterministic(t, b, chunks, 2000)
	fillDeterministic(t, c, chunks, 30000)
	te := writerEpoch + chunks*1000

	// Client-side merge baseline: three single-stream windowed queries.
	const window = 4
	parts := make([][]StatResult, 3)
	for i, s := range []*OwnerStream{a, b, c} {
		res, err := s.StatSeries(ctx, writerEpoch, te, window)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = res
	}

	aggs, err := a.Query().Streams(b, c).Range(writerEpoch, te).Window(window).Aggs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != len(parts[0]) {
		t.Fatalf("plan yielded %d windows, merge %d", len(aggs), len(parts[0]))
	}
	for w, agg := range aggs {
		var wantSum int64
		var wantCount uint64
		for _, p := range parts {
			wantSum += p[w].Sum
			wantCount += p[w].Count
		}
		if agg.Sum() != wantSum || agg.Count() != wantCount {
			t.Errorf("window %d: plan sum=%d count=%d, merge sum=%d count=%d",
				w, agg.Sum(), agg.Count(), wantSum, wantCount)
		}
		if agg.StreamCount != 3 {
			t.Errorf("window %d: StreamCount = %d", w, agg.StreamCount)
		}
		wantMean := float64(wantSum) / float64(wantCount)
		if math.Abs(agg.Mean()-wantMean) > 1e-9 {
			t.Errorf("window %d: mean %v, want %v", w, agg.Mean(), wantMean)
		}
	}

	// Scalar plan (no window) equals the merged scalars.
	scalars := make([]StatResult, 3)
	for i, s := range []*OwnerStream{a, b, c} {
		r, err := s.StatRange(ctx, writerEpoch, te)
		if err != nil {
			t.Fatal(err)
		}
		scalars[i] = r
	}
	it := a.Query().Streams(b, c).Range(writerEpoch, te).Iter(ctx)
	if !it.Next() {
		t.Fatalf("scalar plan empty: %v", it.Err())
	}
	got := it.Agg()
	if want := scalars[0].Sum + scalars[1].Sum + scalars[2].Sum; got.Sum() != want {
		t.Errorf("scalar plan sum = %d, want %d", got.Sum(), want)
	}
	if it.Next() {
		t.Error("scalar plan yielded a second window")
	}
}

// TestPlanTypedStats: Stats() projects the response down to the selected
// digest elements; unselected statistics come back zero-valued and
// unflagged.
func TestPlanTypedStats(t *testing.T) {
	engine := newWriterEngine(t)
	tr := &InProc{Engine: engine}
	owner := NewOwner(tr)
	ctx := context.Background()
	s, err := owner.CreateStream(ctx, StreamOptions{
		UUID: "typed", Epoch: writerEpoch, Interval: 1000,
		Spec:        chunk.DefaultSpec(),
		Compression: chunk.CompressionNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 16
	for c := 0; c < chunks; c++ {
		start := writerEpoch + int64(c)*1000
		if err := s.AppendChunk(ctx, []chunk.Point{{TS: start, Val: int64(10 + c%5)}}); err != nil {
			t.Fatal(err)
		}
	}
	te := writerEpoch + chunks*1000
	full, err := s.StatSeries(ctx, writerEpoch, te, 4)
	if err != nil {
		t.Fatal(err)
	}

	aggs, err := s.Query().Range(writerEpoch, te).Window(4).Stats(Sum, Mean).Aggs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != len(full) {
		t.Fatalf("typed plan yielded %d windows, want %d", len(aggs), len(full))
	}
	for w, agg := range aggs {
		if !agg.Has(Sum) || !agg.Has(Mean) || !agg.Has(Count) {
			t.Errorf("window %d: selected stats missing (%v)", w, agg.Stats())
		}
		if agg.Has(Var) || agg.Has(Hist) {
			t.Errorf("window %d: unselected stats flagged (%v)", w, agg.Stats())
		}
		if agg.Sum() != full[w].Sum || agg.Count() != full[w].Count {
			t.Errorf("window %d: sum=%d count=%d, want %d/%d", w, agg.Sum(), agg.Count(), full[w].Sum, full[w].Count)
		}
		if !math.IsNaN(agg.Var()) || agg.Hist() != nil {
			t.Errorf("window %d: unselected stats carry values (var=%v hist=%v)", w, agg.Var(), agg.Hist())
		}
	}

	// Variance requested on a digest that has it: values match the full
	// interpretation.
	aggs, err = s.Query().Range(writerEpoch, te).Window(4).Stats(Var).Aggs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for w, agg := range aggs {
		if math.Abs(agg.Var()-full[w].Var) > 1e-9 {
			t.Errorf("window %d: var %v, want %v", w, agg.Var(), full[w].Var)
		}
	}

	// A statistic the digest cannot answer fails at iteration.
	sumOnly, err := owner.CreateStream(ctx, StreamOptions{
		UUID: "typed-sum-only", Epoch: writerEpoch, Interval: 1000,
		Spec:        chunk.SumOnlySpec(),
		Compression: chunk.CompressionNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	fillDeterministic(t, sumOnly, 8, 1)
	if _, err := sumOnly.Query().Range(writerEpoch, te).Window(4).Stats(Var).Aggs(ctx); err == nil {
		t.Error("variance on a sum-only digest accepted")
	}

	// Plan validation: duplicate members and mismatched geometry fail.
	if _, err := s.Query().Streams(s).Range(writerEpoch, te).Aggs(ctx); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := s.Query().Streams(sumOnly).Range(writerEpoch, te).Aggs(ctx); err == nil {
		t.Error("mismatched digest spec accepted")
	}
}

// TestPlanConsumerCombined: a consumer holding grants on every member
// stream decrypts the combined aggregate; missing one grant fails.
func TestPlanConsumerCombined(t *testing.T) {
	engine := newWriterEngine(t)
	tr := &InProc{Engine: engine}
	ctx := context.Background()

	const chunks = 12
	a := newWriterStream(t, tr, "cplan-a")
	b := newWriterStream(t, tr, "cplan-b")
	fillDeterministic(t, a, chunks, 10)
	fillDeterministic(t, b, chunks, 500)
	te := writerEpoch + chunks*1000

	kp, err := hybrid.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*OwnerStream{a, b} {
		if _, err := s.Grant(ctx, kp.PublicBytes(), writerEpoch, te, 0); err != nil {
			t.Fatal(err)
		}
	}
	consumer := NewConsumer(tr, kp)
	ca, err := consumer.OpenStream(ctx, "cplan-a")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := consumer.OpenStream(ctx, "cplan-b")
	if err != nil {
		t.Fatal(err)
	}

	wantA, err := a.StatRange(ctx, writerEpoch, te)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := b.StatRange(ctx, writerEpoch, te)
	if err != nil {
		t.Fatal(err)
	}
	it := ca.Query().Streams(cb).Range(writerEpoch, te).Iter(ctx)
	if !it.Next() {
		t.Fatalf("consumer plan empty: %v", it.Err())
	}
	agg := it.Agg()
	if agg.Sum() != wantA.Sum+wantB.Sum || agg.Count() != wantA.Count+wantB.Count {
		t.Errorf("consumer plan sum=%d count=%d, want %d/%d",
			agg.Sum(), agg.Count(), wantA.Sum+wantB.Sum, wantA.Count+wantB.Count)
	}

	// Mixing an owned member with a granted member works too: each member
	// contributes its own key material.
	it = a.Query().Streams(cb).Range(writerEpoch, te).Iter(ctx)
	if !it.Next() {
		t.Fatalf("mixed plan empty: %v", it.Err())
	}
	if got := it.Agg().Sum(); got != wantA.Sum+wantB.Sum {
		t.Errorf("mixed plan sum = %d, want %d", got, wantA.Sum+wantB.Sum)
	}
}

// TestUntypedCursorIsAOneMemberPlan: a cursor that uses neither Streams
// nor Stats is a one-member plan with no projection. It sends only
// AggRange, one round trip per page on every transport and never a push
// stream, never StatRange or QueryStream, and yields exactly the windows
// StatRange/StatSeries decrypt over their own path.
func TestUntypedCursorIsAOneMemberPlan(t *testing.T) {
	const chunks = 20
	check := func(t *testing.T, tr Transport, seen *msgRecorder) {
		ctx := context.Background()
		spy := &aggSpy{Transport: tr}
		s := newWriterStream(t, spy, "untyped")
		fillDeterministic(t, s, chunks, 7)
		te := writerEpoch + chunks*1000
		for _, window := range []uint64{0, 4} {
			var want []StatResult
			if window == 0 {
				r, err := s.StatRange(ctx, writerEpoch, te)
				if err != nil {
					t.Fatal(err)
				}
				want = []StatResult{r}
			} else {
				var err error
				if want, err = s.StatSeries(ctx, writerEpoch, te, window); err != nil {
					t.Fatal(err)
				}
			}
			seen.reset()
			spy.reset()
			it := s.Query().Range(writerEpoch, te).Window(window).PageSize(2).Iter(ctx)
			var got []Agg
			for it.Next() {
				got = append(got, it.Agg())
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			if aggs, streams := spy.sent(); streams != 0 || len(aggs) != (len(want)+1)/2 {
				t.Errorf("window %d: cursor opened %d streams and sent %d AggRange, want 0 and one per page (%d)",
					window, streams, len(aggs), (len(want)+1)/2)
			}
			if len(got) != len(want) {
				t.Fatalf("window %d: cursor yielded %d windows, want %d", window, len(got), len(want))
			}
			for i, a := range got {
				w := want[i]
				if a.Sum() != w.Sum || a.Count() != w.Count ||
					a.FromChunk != w.FromChunk || a.ToChunk != w.ToChunk ||
					a.Start != w.Start || a.End != w.End {
					t.Errorf("window %d/%d: cursor %d/%d [%d,%d) [%d,%d), reference %d/%d [%d,%d) [%d,%d)",
						window, i, a.Sum(), a.Count(), a.FromChunk, a.ToChunk, a.Start, a.End,
						w.Sum, w.Count, w.FromChunk, w.ToChunk, w.Start, w.End)
				}
				if a.Stats() != s.spec.AllStats() || a.StreamCount != 1 {
					t.Errorf("window %d/%d: stats %v streams %d, want %v and 1",
						window, i, a.Stats(), a.StreamCount, s.spec.AllStats())
				}
			}
			if seen.count(wire.TAggRange) == 0 || seen.count(wire.TStatRange) != 0 || seen.count(wire.TQueryStream) != 0 {
				t.Errorf("window %d: cursor sent AggRange=%d StatRange=%d QueryStream=%d, want AggRange only",
					window, seen.count(wire.TAggRange), seen.count(wire.TStatRange), seen.count(wire.TQueryStream))
			}
		}
	}
	t.Run("InProc", func(t *testing.T) {
		seen := &msgRecorder{inner: newWriterEngine(t)}
		check(t, &InProc{Engine: seen}, seen)
	})
	t.Run("TCPSession", func(t *testing.T) {
		seen := &msgRecorder{inner: newWriterEngine(t)}
		sess, err := DialSession(startSessionServer(t, seen), SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		check(t, sess, seen)
	})
}

// TestStatMultiIsAPlan: StatMulti is the one-window plan over its streams.
// It sends only AggRange, answers what Query().Streams answers, refuses a
// member it holds no full-resolution grant for by name, and refuses a
// stream listed twice instead of summing it twice.
func TestStatMultiIsAPlan(t *testing.T) {
	engine := newWriterEngine(t)
	seen := &msgRecorder{inner: engine}
	tr := &InProc{Engine: seen}
	ctx := context.Background()

	const chunks = 12
	te := writerEpoch + chunks*1000
	a := newWriterStream(t, tr, "multi-a")
	b := newWriterStream(t, tr, "multi-b")
	r := newWriterStream(t, tr, "multi-restricted")
	if err := r.EnableResolution(ctx, 4); err != nil {
		t.Fatal(err)
	}
	kp, err := hybrid.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []*OwnerStream{a, b, r} {
		fillDeterministic(t, s, chunks, int64(100*(i+1)))
		factor := uint64(0)
		if s == r {
			factor = 4
		}
		if _, err := s.Grant(ctx, kp.PublicBytes(), writerEpoch, te, factor); err != nil {
			t.Fatal(err)
		}
	}
	consumer := NewConsumer(tr, kp)
	open := func(uuid string) *ConsumerStream {
		cs, err := consumer.OpenStream(ctx, uuid)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	ca, cb, cr := open("multi-a"), open("multi-b"), open("multi-restricted")

	seen.reset()
	got, err := consumer.StatMulti(ctx, []*ConsumerStream{ca, cb}, writerEpoch, te)
	if err != nil {
		t.Fatal(err)
	}
	if n := seen.count(wire.TAggRange); n != 1 || seen.total() != n {
		t.Errorf("StatMulti sent %d requests, %d of them AggRange; want one AggRange", seen.total(), n)
	}
	it := ca.Query().Streams(cb).Range(writerEpoch, te).Iter(ctx)
	if !it.Next() {
		t.Fatalf("plan empty: %v", it.Err())
	}
	want := it.Result()
	if got.Sum != want.Sum || got.Count != want.Count ||
		got.FromChunk != want.FromChunk || got.ToChunk != want.ToChunk ||
		got.Start != want.Start || got.End != want.End {
		t.Errorf("StatMulti %+v, plan %+v", got, want)
	}
	wantA, err := a.StatRange(ctx, writerEpoch, te)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := b.StatRange(ctx, writerEpoch, te)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sum != wantA.Sum+wantB.Sum || got.Count != wantA.Count+wantB.Count {
		t.Errorf("StatMulti %d/%d, members sum to %d/%d", got.Sum, got.Count, wantA.Sum+wantB.Sum, wantA.Count+wantB.Count)
	}

	if _, err := consumer.StatMulti(ctx, []*ConsumerStream{ca, cr}, writerEpoch, te); err == nil {
		t.Error("member without a full-resolution grant accepted")
	} else if !strings.Contains(err.Error(), `"multi-restricted"`) {
		t.Errorf("refusal does not name the ungranted stream: %v", err)
	}
	if _, err := consumer.StatMulti(ctx, []*ConsumerStream{ca, cb, ca}, writerEpoch, te); err == nil {
		t.Error("stream listed twice accepted")
	} else if !strings.Contains(err.Error(), `"multi-a" appears twice`) {
		t.Errorf("duplicate refusal does not name the stream: %v", err)
	}
}

// msgRecorder tallies request types flowing through a handler.
type msgRecorder struct {
	inner server.Handler
	mu    sync.Mutex
	seen  map[wire.MsgType]int
}

func (r *msgRecorder) reset() {
	r.mu.Lock()
	r.seen = make(map[wire.MsgType]int)
	r.mu.Unlock()
}

func (r *msgRecorder) count(t wire.MsgType) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[t]
}

func (r *msgRecorder) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.seen {
		n += c
	}
	return n
}

func (r *msgRecorder) Handle(ctx context.Context, req wire.Message) wire.Message {
	r.mu.Lock()
	if r.seen == nil {
		r.seen = make(map[wire.MsgType]int)
	}
	r.seen[req.Type()]++
	r.mu.Unlock()
	return r.inner.Handle(ctx, req)
}

// TestPlanStreamsOverTCP: a multi-stream windowed plan on a multiplexed
// transport opens no push stream: it sends one AggRange round trip per
// page and yields the client-side merge of the members' series.
func TestPlanStreamsOverTCP(t *testing.T) {
	engine := newWriterEngine(t)
	addr := startSessionServer(t, engine)
	tr, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	spy := &aggSpy{Transport: tr}
	ctx := context.Background()

	const chunks = 40
	a := newWriterStream(t, spy, "tplan-a")
	b := newWriterStream(t, spy, "tplan-b")
	fillDeterministic(t, a, chunks, 3)
	fillDeterministic(t, b, chunks, 9000)
	te := writerEpoch + chunks*1000

	spy.reset()
	it := a.Query().Streams(b).Range(writerEpoch, te).Window(4).PageSize(3).Iter(ctx)
	var got []Agg
	for it.Next() {
		got = append(got, it.Agg())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	// 10 windows at 3 per page.
	if aggs, streams := spy.sent(); streams != 0 || len(aggs) != 4 {
		t.Errorf("plan cursor opened %d streams and sent %d AggRange, want 0 and 4", streams, len(aggs))
	}

	wantA, err := a.StatSeries(ctx, writerEpoch, te, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := b.StatSeries(ctx, writerEpoch, te, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantA) {
		t.Fatalf("plan yielded %d windows, want %d", len(got), len(wantA))
	}
	for w := range got {
		if got[w].Sum() != wantA[w].Sum+wantB[w].Sum || got[w].Count() != wantA[w].Count+wantB[w].Count {
			t.Errorf("window %d: plan %d/%d, want %d/%d",
				w, got[w].Sum(), got[w].Count(), wantA[w].Sum+wantB[w].Sum, wantA[w].Count+wantB[w].Count)
		}
	}
}

// TestCursorPageIsCappedAtMaxPageWindows: a page size beyond the protocol
// bound is capped, so no AggRange a cursor sends spans more than
// wire.MaxPageWindows windows.
func TestCursorPageIsCappedAtMaxPageWindows(t *testing.T) {
	engine := newWriterEngine(t)
	addr := startSessionServer(t, engine)
	tr, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	spy := &aggSpy{Transport: tr}
	ctx := context.Background()

	const chunks = wire.MaxPageWindows + 100
	s := newWriterStream(t, spy, "page-cap")
	w, err := s.Writer(ctx, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < chunks; c++ {
		if err := w.AppendChunk([]chunk.Point{{TS: writerEpoch + int64(c)*1000, Val: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	spy.reset()
	it := s.Query().Range(writerEpoch, writerEpoch+chunks*1000).Window(1).PageSize(1 << 20).Iter(ctx)
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != chunks {
		t.Fatalf("cursor yielded %d windows, want %d", n, chunks)
	}
	aggs, streams := spy.sent()
	if streams != 0 || len(aggs) != 2 {
		t.Errorf("cursor opened %d streams and sent %d AggRange, want 0 and 2", streams, len(aggs))
	}
	for _, m := range aggs {
		if windows := (m.Te - m.Ts) / 1000; windows > wire.MaxPageWindows {
			t.Errorf("AggRange [%d,%d) spans %d windows, over the %d bound", m.Ts, m.Te, windows, wire.MaxPageWindows)
		}
	}
}

// aggSpy wraps a transport and records what cursors send through it: every
// AggRange (as a round trip or as a stream opener) and the number of push
// streams opened. It is a Streamer whenever the wrapped transport is.
type aggSpy struct {
	Transport
	mu      sync.Mutex
	aggs    []*wire.AggRange
	streams int
}

func (s *aggSpy) note(req wire.Message, stream bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := req.(*wire.AggRange); ok {
		s.aggs = append(s.aggs, m)
	}
	if stream {
		s.streams++
	}
}

func (s *aggSpy) reset() {
	s.mu.Lock()
	s.aggs, s.streams = nil, 0
	s.mu.Unlock()
}

func (s *aggSpy) sent() ([]*wire.AggRange, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aggs, s.streams
}

func (s *aggSpy) RoundTrip(ctx context.Context, req wire.Message) (wire.Message, error) {
	s.note(req, false)
	return s.Transport.RoundTrip(ctx, req)
}

func (s *aggSpy) Stream(ctx context.Context, req wire.Message) (*Stream, error) {
	s.note(req, true)
	st, ok := s.Transport.(Streamer)
	if !ok {
		return nil, errors.New("aggSpy: wrapped transport has no streams")
	}
	return st.Stream(ctx, req)
}

// TestSlowCursorDoesNotStallSession: a cursor paused mid-range holds
// nothing on the session — each page is its own round trip — so unary
// calls on the same session keep completing, and the resumed cursor
// yields every window.
func TestSlowCursorDoesNotStallSession(t *testing.T) {
	engine := newWriterEngine(t)
	addr := startSessionServer(t, engine)
	tr, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx := context.Background()

	// Far more pages than one: 256 windows at 1 per page.
	const chunks = 256
	s := newWriterStream(t, tr, "slow-cursor")
	w, err := s.Writer(ctx, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < chunks; c++ {
		start := writerEpoch + int64(c)*1000
		if err := w.AppendChunk([]chunk.Point{{TS: start, Val: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	te := writerEpoch + chunks*1000

	it := s.Query().Range(writerEpoch, te).Window(1).PageSize(1).Iter(ctx)
	if !it.Next() {
		t.Fatalf("cursor start: %v", it.Err())
	}
	// Stop draining. Unary traffic on the same session must keep
	// completing promptly.
	for i := 0; i < 50; i++ {
		callCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		if _, err := s.StatRange(callCtx, writerEpoch, te); err != nil {
			cancel()
			t.Fatalf("unary call %d stalled behind a slow cursor: %v", i, err)
		}
		cancel()
	}
	// Resume draining: the cursor picks up where it paused and completes.
	n := 1
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != chunks {
		t.Errorf("resumed cursor yielded %d windows, want %d", n, chunks)
	}
}

// TestCursorCloseRace hammers Cursor.Close concurrently with the final
// page arriving and with double-Close; run under -race. The session must
// stay healthy throughout.
func TestCursorCloseRace(t *testing.T) {
	engine := newWriterEngine(t)
	addr := startSessionServer(t, engine)
	tr, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx := context.Background()

	const chunks = 12
	s := newWriterStream(t, tr, "close-race")
	fillDeterministic(t, s, chunks, 1)
	te := writerEpoch + chunks*1000

	for round := 0; round < 60; round++ {
		it := s.Query().Range(writerEpoch, te).Window(1).PageSize(2).Iter(ctx)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for it.Next() {
			}
		}()
		go func() {
			defer wg.Done()
			it.Close()
			it.Close() // idempotent
		}()
		wg.Wait()
		it.Close() // safe after the race too
		if err := it.Err(); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, io.EOF) {
			t.Fatalf("round %d: unexpected cursor error %v", round, err)
		}
	}
	// The transport survived every race: a fresh query still works.
	if _, err := s.StatRange(ctx, writerEpoch, te); err != nil {
		t.Fatalf("session unhealthy after close races: %v", err)
	}
	sess, err := tr.session()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "in-flight drain after close races", func() bool { return sess.InFlight() == 0 })
}

// TestPlanRejectsTypedNilAndBadStat: typed-nil handles and unknown stat
// selectors surface as errors at iteration, never panics or silent
// full-vector fallbacks.
func TestPlanRejectsTypedNilAndBadStat(t *testing.T) {
	engine := newWriterEngine(t)
	tr := &InProc{Engine: engine}
	s := newWriterStream(t, tr, "nilplan")
	fillDeterministic(t, s, 8, 1)
	ctx := context.Background()
	te := writerEpoch + 8*1000

	var nilOwner *OwnerStream
	if _, err := s.Query().Streams(nilOwner).Range(writerEpoch, te).Aggs(ctx); err == nil {
		t.Error("typed-nil member accepted")
	}
	var nilConsumer *ConsumerStream
	if _, err := s.Query().Streams(nilConsumer).Range(writerEpoch, te).Aggs(ctx); err == nil {
		t.Error("typed-nil consumer member accepted")
	}
	if _, err := s.Query().Range(writerEpoch, te).Stats(Stat(99)).Aggs(ctx); err == nil {
		t.Error("unknown stat selector accepted")
	}
}
