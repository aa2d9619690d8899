package timecrypt_test

import (
	"bytes"
	"context"
	"testing"

	timecrypt "repro"
)

// TestPublicAPIQuickstart walks the README's quickstart through the public
// facade: server, owner ingest, statistical queries, sharing, restriction.
func TestPublicAPIQuickstart(t *testing.T) {
	engine, err := timecrypt.NewEngine(timecrypt.NewMemStore(), timecrypt.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr := timecrypt.NewInProcTransport(engine)
	owner := timecrypt.NewOwner(tr)
	epoch := int64(1_700_000_000_000)
	s, err := owner.CreateStream(context.Background(), timecrypt.StreamOptions{
		UUID:     "api-test",
		Epoch:    epoch,
		Interval: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		ts := epoch + int64(i)*5000 // 2 points per chunk
		if err := s.Append(context.Background(), timecrypt.Point{TS: ts, Val: int64(60 + i%10)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := s.StatRange(context.Background(), epoch, epoch+600_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 120 {
		t.Fatalf("count = %d, want 120", res.Count)
	}
	if res.Mean < 60 || res.Mean > 70 {
		t.Errorf("mean = %v", res.Mean)
	}

	// Share at 6-chunk (1 minute) resolution.
	if err := s.EnableResolution(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
	kp, err := timecrypt.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Grant(context.Background(), kp.PublicBytes(), epoch, epoch+600_000, 6); err != nil {
		t.Fatal(err)
	}
	consumer := timecrypt.NewConsumer(tr, kp)
	view, err := consumer.OpenStream(context.Background(), "api-test")
	if err != nil {
		t.Fatal(err)
	}
	series, err := view.StatSeries(context.Background(), epoch, epoch+600_000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 10 {
		t.Fatalf("got %d windows, want 10", len(series))
	}
	if _, err := view.Points(context.Background(), epoch, epoch+10_000); err == nil {
		t.Error("resolution-restricted consumer read raw points")
	}
	if timecrypt.PrincipalID(kp.PublicBytes()) == "" {
		t.Error("empty principal id")
	}
}

// TestPublicAPIRestoredKeyPair reloads a consumer identity saved with
// PrivateBytes: the restored pair has the same public key and opens a
// grant made for the original, and bytes that are no P-256 scalar are
// refused.
func TestPublicAPIRestoredKeyPair(t *testing.T) {
	ctx := context.Background()
	engine, err := timecrypt.NewEngine(timecrypt.NewMemStore(), timecrypt.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr := timecrypt.NewInProcTransport(engine)
	epoch := int64(1_700_000_000_000)
	s, err := timecrypt.NewOwner(tr).CreateStream(ctx, timecrypt.StreamOptions{
		UUID: "restore-test", Epoch: epoch, Interval: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := s.Append(ctx, timecrypt.Point{TS: epoch + int64(i)*10_000, Val: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	kp, err := timecrypt.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Grant(ctx, kp.PublicBytes(), epoch, epoch+120_000, 1); err != nil {
		t.Fatal(err)
	}

	restored, err := timecrypt.KeyPairFromBytes(kp.PrivateBytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored.PublicBytes(), kp.PublicBytes()) {
		t.Fatal("restored key pair has a different public key")
	}
	view, err := timecrypt.NewConsumer(tr, restored).OpenStream(ctx, "restore-test")
	if err != nil {
		t.Fatalf("restored key pair cannot open the original's grant: %v", err)
	}
	res, err := view.StatRange(ctx, epoch, epoch+120_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 12 || res.Sum != 66 {
		t.Errorf("count %d, sum %v; want 12 and 66", res.Count, res.Sum)
	}

	for _, bad := range [][]byte{nil, {1, 2, 3}, bytes.Repeat([]byte{0xff}, 32)} {
		if _, err := timecrypt.KeyPairFromBytes(bad); err == nil {
			t.Errorf("KeyPairFromBytes(%x) accepted garbage", bad)
		}
	}
}

// TestPublicAPIInsecureBaseline covers the plaintext mode used by the
// benchmark comparisons.
func TestPublicAPIInsecureBaseline(t *testing.T) {
	engine, err := timecrypt.NewEngine(timecrypt.NewMemStore(), timecrypt.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	owner := timecrypt.NewOwner(timecrypt.NewInProcTransport(engine))
	epoch := int64(1_700_000_000_000)
	s, err := owner.CreateStream(context.Background(), timecrypt.StreamOptions{
		UUID: "plain", Epoch: epoch, Interval: 10_000, Insecure: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		start := epoch + int64(i)*10_000
		if err := s.AppendChunk(context.Background(), []timecrypt.Point{{TS: start, Val: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.StatRange(context.Background(), epoch, epoch+100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 10 || res.Sum != 45 {
		t.Errorf("count=%d sum=%d", res.Count, res.Sum)
	}
	pts, err := s.Points(context.Background(), epoch, epoch+100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Errorf("points=%d", len(pts))
	}
}

// TestSpecHelpers covers the exported digest-spec constructors.
func TestSpecHelpers(t *testing.T) {
	if timecrypt.DefaultSpec().VectorLen() != 19 {
		t.Errorf("default spec width %d", timecrypt.DefaultSpec().VectorLen())
	}
	if timecrypt.SumOnlySpec().VectorLen() != 1 {
		t.Error("sum-only spec width")
	}
}
