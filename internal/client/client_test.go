package client

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/crypto/hybrid"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/wire"
)

func newEngine(t *testing.T) *server.Engine {
	t.Helper()
	engine, err := server.New(kv.NewMemStore(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

func inproc(t *testing.T) Transport {
	return &InProc{Engine: newEngine(t)}
}

// defaultOpts returns stream options with a small tree for fast tests.
func defaultOpts(uuid string) StreamOptions {
	return StreamOptions{
		UUID:     uuid,
		Epoch:    1_700_000_000_000,
		Interval: 10_000, // 10 s, the paper's mhealth Δ
		Spec:     chunk.DigestSpec{Sum: true, Count: true, SumSq: true, HistBounds: []int64{0, 50, 100, 150, 200}},
		Fanout:   8,
	}
}

// fillStream appends n more chunks of 5 points each, values 60+i%20,
// continuing from the stream's current position.
func fillStream(t *testing.T, s *OwnerStream, n int) {
	t.Helper()
	base := int(s.Count())
	for j := 0; j < n; j++ {
		i := base + j
		start := s.epoch + int64(i)*s.interval
		pts := make([]chunk.Point, 5)
		for p := range pts {
			pts[p] = chunk.Point{TS: start + int64(p)*2000, Val: int64(60 + i%20)}
		}
		if err := s.AppendChunk(context.Background(), pts); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
}

func TestOwnerIngestAndQuery(t *testing.T) {
	tr := inproc(t)
	owner := NewOwner(tr)
	s, err := owner.CreateStream(context.Background(), defaultOpts("s1"))
	if err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 30)
	if s.Count() != 30 {
		t.Fatalf("Count = %d", s.Count())
	}
	epoch := s.epoch
	res, err := s.StatRange(context.Background(), epoch, epoch+30*10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 150 {
		t.Errorf("count = %d, want 150", res.Count)
	}
	var wantSum int64
	for i := 0; i < 30; i++ {
		wantSum += 5 * int64(60+i%20)
	}
	if res.Sum != wantSum {
		t.Errorf("sum = %d, want %d", res.Sum, wantSum)
	}
	if math.IsNaN(res.Mean) || math.Abs(res.Mean-float64(wantSum)/150) > 1e-9 {
		t.Errorf("mean = %v", res.Mean)
	}
	if !res.HasMinMax || res.MinLo != 50 || res.MaxHi != 100 {
		t.Errorf("min/max bins wrong: %+v", res.Result)
	}
}

// TestOwnerOpenStreamResumes: a handle restored from TreeSeed continues
// the stream where the server says it stands, and decrypts everything the
// first handle wrote as well as what it writes itself.
func TestOwnerOpenStreamResumes(t *testing.T) {
	ctx := context.Background()
	owner := NewOwner(inproc(t))
	s, err := owner.CreateStream(ctx, defaultOpts("s1"))
	if err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 10)

	r, err := owner.OpenStream(ctx, "s1", s.TreeSeed(), core.DefaultTreeHeight)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 10 || r.epoch != s.epoch || r.interval != s.interval {
		t.Fatalf("reopened at count %d epoch %d interval %d, want 10, %d, %d", r.Count(), r.epoch, r.interval, s.epoch, s.interval)
	}
	w, err := r.Writer(ctx, WriterOptions{BatchChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		start := r.epoch + int64(i)*r.interval
		pts := make([]chunk.Point, 5)
		for p := range pts {
			pts[p] = chunk.Point{TS: start + int64(p)*2000, Val: int64(60 + i%20)}
		}
		if err := w.AppendChunk(pts); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if r.Count() != 20 {
		t.Fatalf("Count after resumed ingest = %d, want 20", r.Count())
	}

	var wantSum int64
	for i := 0; i < 20; i++ {
		wantSum += 5 * int64(60+i%20)
	}
	res, err := r.Query().Range(r.epoch, r.epoch+20*r.interval).All(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Count != 100 || res[0].Sum != wantSum {
		t.Fatalf("query over the whole stream = %+v, want count 100 sum %d", res, wantSum)
	}

	_, err = owner.OpenStream(ctx, "nope", s.TreeSeed(), core.DefaultTreeHeight)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeNotFound {
		t.Fatalf("OpenStream of an unknown stream = %v, want CodeNotFound", err)
	}
}

func TestOwnerPerPointIngest(t *testing.T) {
	tr := inproc(t)
	owner := NewOwner(tr)
	opts := defaultOpts("s1")
	s, err := owner.CreateStream(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// 3 chunks worth of points, one at a time (InsertRecord-style).
	for i := 0; i < 35; i++ {
		ts := opts.Epoch + int64(i)*1000 // 1 s apart; 10 per chunk
		if err := s.Append(context.Background(), chunk.Point{TS: ts, Val: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Count() != 3 { // chunks 0..2 complete; chunk 3 in progress
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 4 {
		t.Fatalf("Count after flush = %d, want 4", s.Count())
	}
	res, err := s.StatRange(context.Background(), opts.Epoch, opts.Epoch+40_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 35 {
		t.Errorf("count = %d, want 35", res.Count)
	}
}

func TestOwnerPointsRoundTrip(t *testing.T) {
	tr := inproc(t)
	owner := NewOwner(tr)
	s, err := owner.CreateStream(context.Background(), defaultOpts("s1"))
	if err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 5)
	epoch := s.epoch
	pts, err := s.Points(context.Background(), epoch+10_000, epoch+30_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Fatalf("got %d points, want 10", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TS < pts[i-1].TS {
			t.Fatal("points not sorted")
		}
	}
}

func TestConsumerFullResolutionGrant(t *testing.T) {
	tr := inproc(t)
	owner := NewOwner(tr)
	s, err := owner.CreateStream(context.Background(), defaultOpts("s1"))
	if err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 30)
	kp, _ := hybrid.GenerateKeyPair()
	epoch := s.epoch
	// Grant chunks [5, 20).
	if _, err := s.Grant(context.Background(), kp.PublicBytes(), epoch+5*10_000, epoch+20*10_000, 0); err != nil {
		t.Fatal(err)
	}
	consumer := NewConsumer(tr, kp)
	cs, err := consumer.OpenStream(context.Background(), "s1")
	if err != nil {
		t.Fatal(err)
	}
	if !cs.HasFullResolution() {
		t.Fatal("expected full resolution view")
	}
	// In-range query decrypts.
	res, err := cs.StatRange(context.Background(), epoch+5*10_000, epoch+20*10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 75 {
		t.Errorf("count = %d, want 75", res.Count)
	}
	// Sub-range works too (full resolution).
	res, err = cs.StatRange(context.Background(), epoch+7*10_000, epoch+9*10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 10 {
		t.Errorf("sub-range count = %d, want 10", res.Count)
	}
	// Raw points within grant.
	pts, err := cs.Points(context.Background(), epoch+5*10_000, epoch+7*10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Errorf("got %d points, want 10", len(pts))
	}
	// Out-of-grant query must fail to decrypt.
	if _, err := cs.StatRange(context.Background(), epoch, epoch+30*10_000); err == nil {
		t.Error("consumer decrypted beyond grant")
	}
	if _, err := cs.Points(context.Background(), epoch, epoch+2*10_000); err == nil {
		t.Error("consumer read points beyond grant")
	}
}

func TestConsumerResolutionRestrictedGrant(t *testing.T) {
	tr := inproc(t)
	owner := NewOwner(tr)
	s, err := owner.CreateStream(context.Background(), defaultOpts("s1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableResolution(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 36)
	kp, _ := hybrid.GenerateKeyPair()
	epoch := s.epoch
	if _, err := s.Grant(context.Background(), kp.PublicBytes(), epoch, epoch+36*10_000, 6); err != nil {
		t.Fatal(err)
	}
	consumer := NewConsumer(tr, kp)
	cs, err := consumer.OpenStream(context.Background(), "s1")
	if err != nil {
		t.Fatal(err)
	}
	if cs.HasFullResolution() {
		t.Fatal("resolution grant produced full-resolution view")
	}
	// 6-chunk windows decrypt.
	series, err := cs.StatSeries(context.Background(), epoch, epoch+36*10_000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("got %d windows, want 6", len(series))
	}
	for w, r := range series {
		if r.Count != 30 {
			t.Errorf("window %d count = %d, want 30", w, r.Count)
		}
	}
	// Coarser multiple (12 chunks) also decrypts.
	series, err = cs.StatSeries(context.Background(), epoch, epoch+36*10_000, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("got %d coarse windows, want 3", len(series))
	}
	// Finer granularity is cryptographically out of reach.
	if _, err := cs.StatSeries(context.Background(), epoch, epoch+36*10_000, 3); err == nil {
		t.Error("finer-than-granted granularity succeeded")
	}
	if _, err := cs.StatRange(context.Background(), epoch, epoch+36*10_000); err == nil {
		t.Error("scalar query succeeded without full resolution")
	}
	if _, err := cs.Points(context.Background(), epoch, epoch+10_000); err == nil {
		t.Error("raw points readable at restricted resolution")
	}
}

func TestResolutionGrantPartialRange(t *testing.T) {
	tr := inproc(t)
	owner := NewOwner(tr)
	s, err := owner.CreateStream(context.Background(), defaultOpts("s1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableResolution(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 36)
	kp, _ := hybrid.GenerateKeyPair()
	epoch := s.epoch
	// Grant only windows 1..3 (chunks [6, 24)).
	if _, err := s.Grant(context.Background(), kp.PublicBytes(), epoch+6*10_000, epoch+24*10_000, 6); err != nil {
		t.Fatal(err)
	}
	consumer := NewConsumer(tr, kp)
	cs, err := consumer.OpenStream(context.Background(), "s1")
	if err != nil {
		t.Fatal(err)
	}
	series, err := cs.StatSeries(context.Background(), epoch+6*10_000, epoch+24*10_000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("got %d windows, want 3", len(series))
	}
	// Windows outside the grant fail.
	if _, err := cs.StatSeries(context.Background(), epoch, epoch+36*10_000, 6); err == nil {
		t.Error("decrypted windows outside grant")
	}
}

func TestGrantRequiresEnabledResolution(t *testing.T) {
	tr := inproc(t)
	owner := NewOwner(tr)
	s, err := owner.CreateStream(context.Background(), defaultOpts("s1"))
	if err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 12)
	kp, _ := hybrid.GenerateKeyPair()
	epoch := s.epoch
	if _, err := s.Grant(context.Background(), kp.PublicBytes(), epoch, epoch+12*10_000, 6); err == nil {
		t.Error("grant at non-enabled resolution accepted")
	}
}

func TestRevocation(t *testing.T) {
	tr := inproc(t)
	owner := NewOwner(tr)
	s, err := owner.CreateStream(context.Background(), defaultOpts("s1"))
	if err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 10)
	kp, _ := hybrid.GenerateKeyPair()
	epoch := s.epoch
	gid, err := s.Grant(context.Background(), kp.PublicBytes(), epoch, epoch+10*10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	consumer := NewConsumer(tr, kp)
	if _, err := consumer.OpenStream(context.Background(), "s1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Revoke(context.Background(), kp.PublicBytes(), gid); err != nil {
		t.Fatal(err)
	}
	if _, err := consumer.OpenStream(context.Background(), "s1"); err == nil {
		t.Error("grant usable after revocation")
	}
}

func TestOpenGrantExtension(t *testing.T) {
	tr := inproc(t)
	owner := NewOwner(tr)
	s, err := owner.CreateStream(context.Background(), defaultOpts("s1"))
	if err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 10)
	kp, _ := hybrid.GenerateKeyPair()
	epoch := s.epoch
	gid, err := s.GrantOpen(context.Background(), kp.PublicBytes(), epoch, 0)
	if err != nil {
		t.Fatal(err)
	}
	consumer := NewConsumer(tr, kp)
	cs, err := consumer.OpenStream(context.Background(), "s1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.StatRange(context.Background(), epoch, epoch+10*10_000); err != nil {
		t.Fatalf("initial open grant unusable: %v", err)
	}
	// More data arrives; before extension the new range is unreadable.
	fillStream(t, s, 10)
	cs, _ = consumer.OpenStream(context.Background(), "s1")
	if _, err := cs.StatRange(context.Background(), epoch, epoch+20*10_000); err == nil {
		t.Error("read new data before grant extension")
	}
	if err := s.ExtendOpenGrants(context.Background()); err != nil {
		t.Fatal(err)
	}
	cs, err = consumer.OpenStream(context.Background(), "s1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.StatRange(context.Background(), epoch, epoch+20*10_000); err != nil {
		t.Errorf("extended grant unusable: %v", err)
	}
	// Revoke: forward secrecy — later data never becomes readable.
	if err := s.Revoke(context.Background(), kp.PublicBytes(), gid); err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 10)
	if err := s.ExtendOpenGrants(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := consumer.OpenStream(context.Background(), "s1"); err == nil {
		t.Error("revoked subscription still has grants")
	}
}

func TestWrongConsumerCannotUseGrant(t *testing.T) {
	tr := inproc(t)
	owner := NewOwner(tr)
	s, err := owner.CreateStream(context.Background(), defaultOpts("s1"))
	if err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 5)
	alice, _ := hybrid.GenerateKeyPair()
	eve, _ := hybrid.GenerateKeyPair()
	epoch := s.epoch
	if _, err := s.Grant(context.Background(), alice.PublicBytes(), epoch, epoch+5*10_000, 0); err != nil {
		t.Fatal(err)
	}
	// Eve has no grants under her identity.
	if _, err := NewConsumer(tr, eve).OpenStream(context.Background(), "s1"); err == nil {
		t.Error("eve opened a stream without grants")
	}
}

func TestMultiStreamQuery(t *testing.T) {
	tr := inproc(t)
	owner := NewOwner(tr)
	optsA := defaultOpts("a")
	optsB := defaultOpts("b")
	sa, err := owner.CreateStream(context.Background(), optsA)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := owner.CreateStream(context.Background(), optsB)
	if err != nil {
		t.Fatal(err)
	}
	fillStream(t, sa, 10)
	fillStream(t, sb, 10)
	kp, _ := hybrid.GenerateKeyPair()
	epoch := optsA.Epoch
	if _, err := sa.Grant(context.Background(), kp.PublicBytes(), epoch, epoch+10*10_000, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Grant(context.Background(), kp.PublicBytes(), epoch, epoch+10*10_000, 0); err != nil {
		t.Fatal(err)
	}
	consumer := NewConsumer(tr, kp)
	ca, err := consumer.OpenStream(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := consumer.OpenStream(context.Background(), "b")
	if err != nil {
		t.Fatal(err)
	}
	res, err := consumer.StatMulti(context.Background(), []*ConsumerStream{ca, cb}, epoch, epoch+10*10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 100 { // 50 points per stream
		t.Errorf("multi-stream count = %d, want 100", res.Count)
	}
	single, _ := ca.StatRange(context.Background(), epoch, epoch+10*10_000)
	if res.Sum != 2*single.Sum {
		t.Errorf("multi-stream sum = %d, want %d", res.Sum, 2*single.Sum)
	}
}

func TestDeleteRangeAndRollupViaClient(t *testing.T) {
	tr := inproc(t)
	owner := NewOwner(tr)
	s, err := owner.CreateStream(context.Background(), defaultOpts("s1"))
	if err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 16)
	epoch := s.epoch
	if err := s.DeleteRange(context.Background(), epoch, epoch+8*10_000); err != nil {
		t.Fatal(err)
	}
	pts, err := s.Points(context.Background(), epoch, epoch+16*10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8*5 {
		t.Errorf("got %d points after delete, want 40", len(pts))
	}
	res, err := s.StatRange(context.Background(), epoch, epoch+8*10_000)
	if err != nil || res.Count != 40 {
		t.Errorf("stats over deleted range: %v %v", res.Count, err)
	}
	// Rollup the first 8 chunks to 8-chunk granularity.
	if err := s.Rollup(context.Background(), 8, epoch, epoch+8*10_000); err != nil {
		t.Fatal(err)
	}
	if res, err := s.StatRange(context.Background(), epoch, epoch+16*10_000); err != nil || res.Count != 80 {
		t.Errorf("coarse stats after rollup: %+v %v", res.Count, err)
	}
}

func TestClientOverTCP(t *testing.T) {
	engine := newEngine(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer(engine, func(string, ...any) {})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx, lis)
	defer srv.Close()

	tcp, err := DialTCP(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	owner := NewOwner(tcp)
	s, err := owner.CreateStream(context.Background(), defaultOpts("tcp-stream"))
	if err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 12)
	epoch := s.epoch
	res, err := s.StatRange(context.Background(), epoch, epoch+12*10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 60 {
		t.Errorf("count over TCP = %d, want 60", res.Count)
	}
	kp, _ := hybrid.GenerateKeyPair()
	if _, err := s.Grant(context.Background(), kp.PublicBytes(), epoch, epoch+12*10_000, 0); err != nil {
		t.Fatal(err)
	}
	tcp2, err := DialTCP(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp2.Close()
	cs, err := NewConsumer(tcp2, kp).OpenStream(context.Background(), "tcp-stream")
	if err != nil {
		t.Fatal(err)
	}
	res, err = cs.StatRange(context.Background(), epoch, epoch+12*10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 60 {
		t.Errorf("consumer count over TCP = %d", res.Count)
	}
}

func TestStreamOptionsValidation(t *testing.T) {
	tr := inproc(t)
	owner := NewOwner(tr)
	if _, err := owner.CreateStream(context.Background(), StreamOptions{UUID: "", Interval: 10}); err == nil {
		t.Error("empty UUID accepted")
	}
	if _, err := owner.CreateStream(context.Background(), StreamOptions{UUID: "x", Interval: 0}); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestPrincipalID(t *testing.T) {
	kp1, _ := hybrid.GenerateKeyPair()
	kp2, _ := hybrid.GenerateKeyPair()
	a, b := PrincipalID(kp1.PublicBytes()), PrincipalID(kp2.PublicBytes())
	if a == b {
		t.Error("distinct keys share an identity")
	}
	if a != PrincipalID(kp1.PublicBytes()) {
		t.Error("identity not deterministic")
	}
	if len(a) != 32 {
		t.Errorf("identity length %d, want 32 hex chars", len(a))
	}
}

func TestGrantEncodingRoundTrip(t *testing.T) {
	g := &Grant{
		StreamID: "s", Epoch: 5, Interval: 10, TreeHeight: 30,
		DigestSpec: []byte{1, 2}, Compression: 1,
		FromChunk: 7, ToChunk: 99, Factor: 0,
	}
	tr := inproc(t)
	_ = tr
	// Full-resolution grant with tokens.
	owner := NewOwner(inproc(t))
	s, err := owner.CreateStream(context.Background(), defaultOpts("s1"))
	if err != nil {
		t.Fatal(err)
	}
	tokens, err := s.tree.Cover(7, 99)
	if err != nil {
		t.Fatal(err)
	}
	g.Tokens = tokens
	got, err := decodeGrant(encodeGrant(g))
	if err != nil {
		t.Fatal(err)
	}
	if got.StreamID != g.StreamID || got.FromChunk != 7 || got.ToChunk != 99 || len(got.Tokens) != len(tokens) {
		t.Errorf("grant round trip mismatch: %+v", got)
	}
	// Resolution grant.
	g2 := &Grant{StreamID: "s", Factor: 6}
	g2.Res.Factor = 6
	g2.Res.Token.Lo = 3
	g2.Res.Token.Hi = 9
	got2, err := decodeGrant(encodeGrant(g2))
	if err != nil {
		t.Fatal(err)
	}
	if got2.Res.Token.Lo != 3 || got2.Res.Token.Hi != 9 || got2.Res.Factor != 6 {
		t.Errorf("resolution grant mismatch: %+v", got2)
	}
	if _, err := decodeGrant([]byte{1, 2, 3}); err == nil {
		t.Error("garbage grant accepted")
	}
}

// A chunk sealed before the codec was authenticated carries its stream's
// codec; a store that relabels one must not get its payload parsed under
// the other codec. The view knows the stream's codec and refuses it (for a
// chunk sealed since, the relabeling fails authentication in chunk.Open).
func TestOpenRejectsFlippedCodecThroughView(t *testing.T) {
	ctx := context.Background()
	store := kv.NewMemStore()
	engine, err := server.New(store, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	owner := NewOwner(&InProc{Engine: engine})
	// relabel rewrites the stored chunk idx of s as zlib; legacy first
	// turns it into what a writer from before the binding stored.
	relabel := func(s *OwnerStream, idx uint64, legacy bool) {
		t.Helper()
		key := "c/" + s.uuid + "/" + strconv.FormatUint(idx, 16)
		blob, err := store.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		sealed, err := chunk.UnmarshalSealed(blob)
		if err != nil {
			t.Fatal(err)
		}
		if sealed.Compression != chunk.CompressionNone || !sealed.CodecBound {
			t.Fatalf("chunk %d stored as %v, bound %v: 5 points should be raw and bound", idx, sealed.Compression, sealed.CodecBound)
		}
		if legacy {
			sealed = resealLegacy(t, s, sealed)
		}
		sealed.Compression = chunk.CompressionZlib
		if err := store.Put(key, chunk.MarshalSealed(sealed)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		uuid    string
		comp    chunk.Compression
		legacy  bool
		wantErr string
	}{
		{"bound", chunk.CompressionZlib, false, "authentication failed"},
		{"legacy", chunk.CompressionNone, true, "unauthenticated codec"},
	} {
		opts := defaultOpts(tc.uuid)
		opts.Compression = tc.comp
		s, err := owner.CreateStream(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		fillStream(t, s, 3)
		epoch := s.epoch
		if got, err := s.Points(ctx, epoch, epoch+30_000); err != nil || len(got) != 15 {
			t.Fatalf("%s: %d points, err %v", tc.uuid, len(got), err)
		}
		relabel(s, 1, tc.legacy)
		if _, err := s.Points(ctx, epoch, epoch+30_000); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s chunk relabeled: err %v, want %q", tc.uuid, err, tc.wantErr)
		}
		if got, err := s.Points(ctx, epoch, epoch+10_000); err != nil || len(got) != 5 {
			t.Errorf("%s: the untouched chunk: %d points, err %v", tc.uuid, len(got), err)
		}
	}
}

// resealLegacy re-encrypts a raw chunk's payload the way writers did before
// the codec was bound: same key, 24-byte associated data, flag clear.
func resealLegacy(t *testing.T, s *OwnerStream, sealed *chunk.Sealed) *chunk.Sealed {
	t.Helper()
	pts, err := chunk.Open(s.tree.NewWalker(), sealed)
	if err != nil {
		t.Fatal(err)
	}
	li, _ := s.tree.Leaf(sealed.Index)
	lj, _ := s.tree.Leaf(sealed.Index + 1)
	aead, err := core.ChunkAEAD(core.ChunkKey(li, lj))
	if err != nil {
		t.Fatal(err)
	}
	var ad [24]byte
	binary.BigEndian.PutUint64(ad[:], sealed.Index)
	binary.BigEndian.PutUint64(ad[8:], uint64(sealed.Start))
	binary.BigEndian.PutUint64(ad[16:], uint64(sealed.End))
	nonce := make([]byte, aead.NonceSize())
	out := *sealed
	out.CodecBound = false
	out.Payload = aead.Seal(nonce, nonce, chunk.MarshalPoints(pts), ad[:])
	return &out
}
