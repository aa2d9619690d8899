package client

import (
	"context"
	"math"
	"testing"

	"repro/internal/chunk"
	"repro/internal/crypto/hybrid"
	"repro/internal/wire"
)

// TestLinFitThroughFullStack exercises the private linear-model extension
// end to end: the producer's digests carry Σt/Σt²/Σt·v, the server
// aggregates them encrypted, and the client fits a trend line from one
// decrypted vector.
func TestLinFitThroughFullStack(t *testing.T) {
	tr := inproc(t)
	owner := NewOwner(tr)
	epoch := int64(1_700_000_000_000)
	spec := chunk.DigestSpec{
		Sum: true, Count: true,
		LinFit: true, LinTimeOrigin: epoch, LinTimeUnit: 1000, // seconds
	}
	s, err := owner.CreateStream(context.Background(), StreamOptions{
		UUID: "trend", Epoch: epoch, Interval: 10_000, Spec: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 20 chunks x 10 points on the exact line v = 4·t_seconds + 50.
	for c := 0; c < 20; c++ {
		var pts []chunk.Point
		for p := 0; p < 10; p++ {
			ts := epoch + int64(c)*10_000 + int64(p)*1000
			sec := (ts - epoch) / 1000
			pts = append(pts, chunk.Point{TS: ts, Val: 4*sec + 50})
		}
		if err := s.AppendChunk(context.Background(), pts); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.StatRange(context.Background(), epoch, epoch+200_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 200 {
		t.Fatalf("count = %d", res.Count)
	}
	// Re-fetch the raw vector to fit (StatResult interprets classic
	// stats; fitting uses the spec directly).
	resp, err := call[*wire.StatRangeResp](context.Background(), tr, &wire.StatRange{
		UUIDs: []string{"trend"}, Ts: epoch, Te: epoch + 200_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := s.dec.DecryptWindow(resp.FromChunk, resp.ToChunk, resp.Windows[0])
	if err != nil {
		t.Fatal(err)
	}
	fit, err := spec.Fit(vec)
	if err != nil {
		t.Fatal(err)
	}
	if !fit.OK {
		t.Fatal("fit not solvable")
	}
	if math.Abs(fit.Slope-4) > 1e-6 || math.Abs(fit.Intercept-50) > 1e-6 {
		t.Errorf("fit = %.4f t + %.4f, want 4 t + 50", fit.Slope, fit.Intercept)
	}
	// A sub-range fit sees the same line.
	resp, err = call[*wire.StatRangeResp](context.Background(), tr, &wire.StatRange{
		UUIDs: []string{"trend"}, Ts: epoch + 50_000, Te: epoch + 150_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	vec, err = s.dec.DecryptWindow(resp.FromChunk, resp.ToChunk, resp.Windows[0])
	if err != nil {
		t.Fatal(err)
	}
	fit, _ = spec.Fit(vec)
	if !fit.OK || math.Abs(fit.Slope-4) > 1e-6 {
		t.Errorf("sub-range fit = %+v", fit)
	}
}

// TestMixedGrants: a principal holding both a bounded full-resolution
// grant and a resolution-restricted grant on disjoint ranges uses each
// where it applies.
func TestMixedGrants(t *testing.T) {
	tr := inproc(t)
	owner := NewOwner(tr)
	s, err := owner.CreateStream(context.Background(), defaultOpts("mixed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableResolution(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 36)
	epoch := s.epoch
	kp, err := hybrid.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	// Full resolution on chunks [0, 12); 6-chunk windows on [12, 36).
	if _, err := s.Grant(context.Background(), kp.PublicBytes(), epoch, epoch+12*10_000, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Grant(context.Background(), kp.PublicBytes(), epoch+12*10_000, epoch+36*10_000, 6); err != nil {
		t.Fatal(err)
	}
	cs, err := NewConsumer(tr, kp).OpenStream(context.Background(), "mixed")
	if err != nil {
		t.Fatal(err)
	}
	if !cs.HasFullResolution() {
		t.Fatal("full-resolution grant not loaded")
	}
	if got := cs.ResolutionFactors(); len(got) != 1 || got[0] != 6 {
		t.Fatalf("resolution factors = %v", got)
	}
	// Fine-grained query inside the full-res range.
	if _, err := cs.StatRange(context.Background(), epoch+10_000, epoch+30_000); err != nil {
		t.Errorf("full-res sub-query failed: %v", err)
	}
	// Fine-grained query in the restricted range fails...
	if _, err := cs.StatRange(context.Background(), epoch+13*10_000, epoch+15*10_000); err == nil {
		t.Error("fine query in restricted range succeeded")
	}
	// ...but 6-chunk windows there decrypt via the resolution key set.
	// (StatSeries prefers full-res keys, which only cover [0,12); query
	// the restricted half through the resolution keys directly.)
	ks, err := cs.resolutionKeys(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	series, err := cs.view.statSeries(context.Background(), ks, epoch+12*10_000, epoch+36*10_000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("got %d restricted windows, want 4", len(series))
	}
}
