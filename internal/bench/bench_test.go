package bench

import (
	"io"
	"strings"
	"testing"
	"time"
)

// tiny runs every experiment at minimal scale so the harness itself is
// covered by the unit test suite. Full runs live in cmd/timecrypt-bench
// and the root bench_test.go.
var tiny = Options{Scale: 0.02}

func TestGenTreeMatchesDirectSum(t *testing.T) {
	add := func(dst, src any) any { return dst.(uint64) + src.(uint64) }
	clone := func(v any) any { return v }
	tree := newGenTree(4, 3, add, clone)
	for i := uint64(1); i <= 50; i++ {
		tree.Append(i)
	}
	for a := uint64(0); a < 50; a += 7 {
		for b := a + 1; b <= 50; b += 5 {
			got, err := tree.Query(a, b)
			if err != nil {
				t.Fatal(err)
			}
			var want uint64
			for i := a; i < b; i++ {
				want += i + 1
			}
			if got.(uint64) != want {
				t.Fatalf("Query(%d,%d) = %v, want %d", a, b, got, want)
			}
		}
	}
	if _, err := tree.Query(5, 5); err == nil {
		t.Error("empty range accepted")
	}
	if tree.nodeCount() == 0 {
		t.Error("no nodes counted")
	}
}

func TestU64BenchEncryptedRoundTrip(t *testing.T) {
	b, err := newU64Bench("tc", true, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := b.Ingest(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := b.Query(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i := 10; i < 20; i++ {
		want += uint64(i)
	}
	if got != want {
		t.Errorf("encrypted index query = %d, want %d", got, want)
	}
	if b.BytesPerChunk() <= 0 {
		t.Error("no size accounting")
	}
}

func TestTable2Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second benchmark harness")
	}
	results, err := Table2(io.Discard, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d rows, want 4", len(results))
	}
	// Shape checks: the strawman must be orders of magnitude slower.
	var plain, tc, paillier, ec *Table2Result
	for i := range results {
		switch results[i].System {
		case "plaintext":
			plain = &results[i]
		case "timecrypt":
			tc = &results[i]
		case "paillier":
			paillier = &results[i]
		case "ec-elgamal":
			ec = &results[i]
		}
	}
	if plain == nil || tc == nil || paillier == nil || ec == nil {
		t.Fatal("missing systems")
	}
	if paillier.IngestSmall < 100*tc.IngestSmall {
		t.Errorf("paillier ingest %v should dwarf timecrypt %v", paillier.IngestSmall, tc.IngestSmall)
	}
	if ec.QuerySmall < 10*tc.QuerySmall {
		t.Errorf("ec-elgamal query %v should dwarf timecrypt %v", ec.QuerySmall, tc.QuerySmall)
	}
	if tc.BytesPerChunk > 4*plain.BytesPerChunk {
		t.Errorf("timecrypt index should have no ciphertext expansion: %v vs %v", tc.BytesPerChunk, plain.BytesPerChunk)
	}
	if paillier.BytesPerChunk < 10*plain.BytesPerChunk {
		t.Errorf("paillier index expansion missing: %v vs %v", paillier.BytesPerChunk, plain.BytesPerChunk)
	}
}

func TestTable3Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second benchmark harness")
	}
	results, err := Table3(io.Discard, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d rows", len(results))
	}
	if results[0].System != "timecrypt" || results[0].Enc > time.Millisecond {
		t.Errorf("timecrypt enc should be microseconds, got %v", results[0].Enc)
	}
	if results[1].Enc < results[0].Enc*100 {
		t.Errorf("paillier enc %v should dwarf timecrypt %v", results[1].Enc, results[0].Enc)
	}
}

func TestFig6Runs(t *testing.T) {
	// Each point is the fastest of three runs of 500 derivations: at tiny's
	// 40, one preemption under `go test ./...` once made the 2^10 tree read
	// slower than the 2^60 one.
	var points []Fig6Point
	for run := 0; run < 3; run++ {
		got, err := Fig6(io.Discard, Options{Scale: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 6 {
			t.Fatalf("got %d heights", len(got))
		}
		if points == nil {
			points = got
			continue
		}
		for i, p := range got {
			for name, d := range p.Latency {
				points[i].Latency[name] = min(points[i].Latency[name], d)
			}
		}
	}
	// Derivation cost must grow with height for every PRG: a 2^60 key is
	// six times the expansions of a 2^10 one, and reads 4-6x the time.
	for _, name := range []string{"aes", "sha256", "hmac"} {
		if points[5].Latency[name] < 2*points[0].Latency[name] {
			t.Errorf("%s: cost did not grow with height: %v -> %v", name,
				points[0].Latency[name], points[5].Latency[name])
		}
	}
}

func TestFig7Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second benchmark harness")
	}
	var sb strings.Builder
	results, err := Fig7(&sb, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d configs", len(results))
	}
	for _, r := range results {
		if r.Report.IngestRecordsPS <= 0 {
			t.Errorf("%s: no throughput", r.Config)
		}
	}
	if !strings.Contains(sb.String(), "slowdown") {
		t.Error("missing slowdown summary")
	}
}

func TestReshardRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second benchmark harness")
	}
	results, err := Reshard(io.Discard, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d phases, want steady/grow", len(results))
	}
	for _, r := range results {
		if r.Ingest.Count != r.Inserts {
			t.Errorf("%s: %d inserts, %d latencies", r.Phase, r.Inserts, r.Ingest.Count)
		}
	}
	if results[0].Inserts == 0 {
		t.Error("the steady phase inserted nothing")
	}
	if results[1].Inserts < results[0].Inserts {
		t.Errorf("the grow phase inserted %d chunks, fewer than the steady phase's %d", results[1].Inserts, results[0].Inserts)
	}
	if results[1].Moved == 0 {
		t.Error("the 4->5 grow moved no stream")
	}
}

func TestSubscribeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second benchmark harness")
	}
	results, err := Subscribe(io.Discard, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d modes, want live/drain/poll", len(results))
	}
	for _, r := range results {
		if r.Deltas <= 0 || r.PerSec <= 0 || r.Latency.Count == 0 {
			t.Errorf("%s: %d deltas at %.0f/s, %d latencies", r.Mode, r.Deltas, r.PerSec, r.Latency.Count)
		}
	}
	// The drain >= 2x polling claim is asserted by the full-scale run; at
	// tiny scale only the harness shape is checked.
}

func TestFailoverRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second benchmark harness")
	}
	results, err := Failover(io.Discard, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d facets, want 4 ingest rows and 2 recovery rows", len(results))
	}
	for _, r := range results {
		if r.Ops <= 0 || r.Latency.Count != r.Ops {
			t.Errorf("%s: %d ops, %d latencies", r.Name, r.Ops, r.Latency.Count)
		}
	}
}

func TestFig8Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second benchmark harness")
	}
	points, err := Fig8(io.Discard, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 2 {
		t.Fatalf("got %d granularities", len(points))
	}
	last := points[len(points)-1]
	if last.Granularity != "full-range" || last.Windows != 1 {
		t.Errorf("last point should be the full range: %+v", last)
	}
}

func TestAccessControlRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second benchmark harness")
	}
	results, err := AccessControl(io.Discard, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d mechanisms", len(results))
	}
	// How far ABE outweighs the tree is the printed report's to show: a
	// wall-clock ratio read 86x under `go test -p 4` against 100x alone.
	// The keystream's decrypt is one add and one subtract, which can round
	// to 0 ns per chunk.
	for _, r := range results {
		if r.Mechanism == "" || r.KeyDerive <= 0 || r.Decrypt < 0 {
			t.Errorf("mechanism %q: derive %v, decrypt %v; want a name and positive timings", r.Mechanism, r.KeyDerive, r.Decrypt)
		}
	}
	if abe := results[2]; abe.Decrypt <= 0 {
		t.Errorf("ABE decrypt %v, want a positive timing", abe.Decrypt)
	}
}

func TestDevOpsRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second benchmark harness")
	}
	results, err := DevOps(io.Discard, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d configs", len(results))
	}
}

func TestFig5Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second benchmark harness")
	}
	// Fig5 at tiny scale still builds 2^18 indexes; run a trimmed sweep
	// through the exported API by temporarily relying on scale < 4.
	points, err := Fig5(io.Discard, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 19 {
		t.Fatalf("got %d points", len(points))
	}
	if _, ok := points[12].Latency["paillier"]; !ok {
		t.Error("strawman series missing at 2^12")
	}
	if _, ok := points[18].Latency["paillier"]; ok {
		t.Error("strawman series should be capped at 2^12")
	}
}

func TestFormattingHelpers(t *testing.T) {
	if fmtDur(500*time.Nanosecond) != "500ns" {
		t.Error(fmtDur(500 * time.Nanosecond))
	}
	if fmtDur(1500*time.Nanosecond) != "1.5µs" {
		t.Error(fmtDur(1500 * time.Nanosecond))
	}
	if fmtDur(2500*time.Microsecond) != "2.5ms" {
		t.Error(fmtDur(2500 * time.Microsecond))
	}
	if fmtDur(1200*time.Millisecond) != "1.20s" {
		t.Error(fmtDur(1200 * time.Millisecond))
	}
	if fmtBytes(8.1*(1<<20)) != "8.1MB" {
		t.Error(fmtBytes(8.1 * (1 << 20)))
	}
	if ratio(2*time.Second, time.Second) != "2.0x" {
		t.Error("ratio")
	}
	if ratio(time.Second, 0) != "-" {
		t.Error("ratio zero base")
	}
	var tb table
	tb.header = []string{"a", "b"}
	tb.add("1", "2")
	var sb strings.Builder
	tb.write(&sb)
	if !strings.Contains(sb.String(), "a") || !strings.Contains(sb.String(), "1") {
		t.Error("table write broken")
	}
}

func TestOptionsScaled(t *testing.T) {
	o := Options{Scale: 0.001}
	if o.scaled(100) != 1 {
		t.Error("scaled should clamp to 1")
	}
	o = Options{Scale: 2}
	if o.scaled(100) != 200 {
		t.Error("scaled multiply broken")
	}
}

func TestDurableIngestRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second benchmark harness")
	}
	results, err := DurableIngest(io.Discard, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("got %d modes, want 7", len(results))
	}
	for _, r := range results {
		if r.OpsPerSec <= 0 || r.Put.Count == 0 {
			t.Errorf("%s: ops/s %.0f, %d samples", r.Mode, r.OpsPerSec, r.Put.Count)
		}
	}
	// The group-commit >= 5x fsync-per-op claim is asserted by the
	// full-scale run; at tiny scale only the harness shape is checked.
}

// BenchmarkDurableIngest drives the WAL group-commit path end to end
// (real files, real fsyncs) so bench-smoke keeps the durability story
// compiling and running.
func BenchmarkDurableIngest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := DurableIngest(io.Discard, Options{Scale: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}
