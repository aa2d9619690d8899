// Hot-path perf harness: per-layer micro-benchmarks plus tier-1
// allocations-per-op assertions. The assertions are the CI teeth of the
// allocation purge — a change that reintroduces per-op garbage on the
// seal/ingest path fails `go test`, not just drifts a number in a JSON
// file. BenchmarkHotPath runs in the bench-smoke CI job.
package timecrypt_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/kv"
	"repro/internal/kv/durable"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

const hotVecLen = 19 // digest vector length used across the hot-path harness

func hotSpec(tb testing.TB) chunk.DigestSpec {
	tb.Helper()
	spec := chunk.DefaultSpec() // sum + count + sumsq + 16 histogram bins
	if spec.VectorLen() != hotVecLen {
		tb.Fatalf("hot-path spec has %d elements, expected %d", spec.VectorLen(), hotVecLen)
	}
	return spec
}

func hotWalker(tb testing.TB) *core.Walker {
	tb.Helper()
	tree, err := core.NewTree(core.NewPRG(core.PRGAES), core.DefaultTreeHeight, core.Node{0x42, 1, 2, 3})
	if err != nil {
		tb.Fatal(err)
	}
	return tree.NewWalker()
}

func hotEncryptor(tb testing.TB) *core.Encryptor {
	tb.Helper()
	return core.NewEncryptor(hotWalker(tb))
}

func hotPoints(i uint64) []chunk.Point {
	pts := make([]chunk.Point, 10)
	for p := range pts {
		start := int64(i) * 100
		pts[p] = chunk.Point{TS: start + int64(p)*10, Val: int64(i%700) + int64(p)}
	}
	return pts
}

// hotQueryTree is a fanout-64 tree of 400 chunks without a node cache, as
// the server runs it by default; Query(hotQueryLo, hotQueryHi) decomposes
// into 66 of its nodes (leaves 33..63,
// level-1 nodes 1..4, leaves 320..350) — runs of 31 siblings, the longest
// that are not shorter read as their parent minus the rest — about what a
// random StatRange reads on two levels.
func hotQueryTree(tb testing.TB) *index.Tree {
	tb.Helper()
	tree, err := index.Open(kv.NewMemStore(), "hot", index.Config{VectorLen: hotVecLen})
	if err != nil {
		tb.Fatal(err)
	}
	for i := uint64(0); i < 400; i++ {
		if err := tree.Append(i, make([]uint64, hotVecLen)); err != nil {
			tb.Fatal(err)
		}
	}
	return tree
}

const hotQueryLo, hotQueryHi = 33, 351

func hotEngine(tb testing.TB, spec chunk.DigestSpec) *server.Engine {
	tb.Helper()
	return hotEngineOn(tb, kv.NewMemStore(), spec)
}

// hotEngineOn is an engine over store holding the empty stream "hot".
func hotEngineOn(tb testing.TB, store kv.Store, spec chunk.DigestSpec) *server.Engine {
	tb.Helper()
	engine, err := server.New(store, server.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	specBytes, _ := spec.MarshalBinary()
	cfg := wire.StreamConfig{Epoch: 0, Interval: 100, VectorLen: uint32(spec.VectorLen()),
		Fanout: index.DefaultFanout, DigestSpec: specBytes}
	if err := engine.CreateStream("hot", cfg); err != nil {
		tb.Fatal(err)
	}
	return engine
}

// hotBlobs seals chunks [from, from+n) of the "hot" stream, uncompressed.
func hotBlobs(tb testing.TB, enc *core.Encryptor, spec chunk.DigestSpec, from, n uint64) [][]byte {
	tb.Helper()
	blobs := make([][]byte, n)
	for j := range blobs {
		pos := from + uint64(j)
		start := int64(pos) * 100
		sealed, err := chunk.Seal(enc, spec, chunk.CompressionNone, pos, start, start+100, hotPoints(pos))
		if err != nil {
			tb.Fatal(err)
		}
		blobs[j] = chunk.MarshalSealed(sealed)
	}
	return blobs
}

// overBudget reports a measurement over its budget: a test failure, except
// under the race detector, whose sync.Pool drops Puts on purpose so that
// every pooled path allocates again. There the budgets still run and the
// measurement is logged, so `go test -race .` shows the counts and passes.
func overBudget(t *testing.T, format string, args ...any) {
	t.Helper()
	if raceEnabled {
		t.Logf("over budget, not asserted under -race: "+format, args...)
		return
	}
	t.Errorf(format, args...)
}

// TestHotPathAllocBudgets pins per-layer allocations/op. The core keystream
// budget is the PR's acceptance criterion (zero after warm-up); the others
// are regression fences at the measured steady state.
func TestHotPathAllocBudgets(t *testing.T) {
	t.Run("core-keystream", func(t *testing.T) {
		enc := hotEncryptor(t)
		m := make([]uint64, hotVecLen)
		dst := make([]uint64, hotVecLen)
		if _, err := enc.EncryptDigest(0, m, dst); err != nil {
			t.Fatal(err)
		}
		if _, err := enc.ChunkKeyAt(0); err != nil {
			t.Fatal(err)
		}
		pos := uint64(1)
		allocs := testing.AllocsPerRun(500, func() {
			if _, err := enc.EncryptDigest(pos, m, dst); err != nil {
				t.Fatal(err)
			}
			if _, err := enc.ChunkKeyAt(pos); err != nil {
				t.Fatal(err)
			}
			pos++
		})
		if allocs != 0 {
			overBudget(t, "core keystream derivation: %.1f allocs/chunk, want 0", allocs)
		}
	})
	// The product default codec on a payload that deflates (an mHealth
	// chunk: 500 points, ~1.4 KB serialized, ~460 deflated). PR 6's budgets
	// all ran CompressionNone, which is how a zlib.NewWriter per chunk
	// (816 KB/op) went unnoticed. The bytes are the sealed payload and the
	// AES and GCM states of the per-chunk key: 5 allocs and 2,037 B
	// measured (6 and 2,061 while the associated data was allocated).
	t.Run("chunk-seal-zlib", func(t *testing.T) {
		sealBudget(t, workload.NewMHealth(1), 10_000, chunk.CompressionZlib, 5, 2061)
	})
	// The benchmark's write workloads: DevOps chunks, 20–26 bytes
	// serialized, below the deflate gate. No deflater, and the associated
	// data (a byte longer since it binds the codec) comes out of the
	// pooled point buffer: 5 allocs and 1,587 B measured, 6 and 1,625
	// before.
	t.Run("seal-devops", func(t *testing.T) {
		sealBudget(t, workload.NewDevOps(1), 60_000, chunk.CompressionNone, 5, 1625)
	})
	// One page of a windowed query as the client decrypts it: 64
	// contiguous windows, projected, in place. Each edge is derived once
	// and nothing is allocated.
	t.Run("decrypt-page", func(t *testing.T) {
		dec := hotEncryptor(t)
		elems := []uint32{0, 1}
		page := make([][]uint64, 64)
		for w := range page {
			page[w] = make([]uint64, len(elems))
		}
		at := uint64(0)
		decrypt := func() {
			for w, vec := range page {
				i := at + uint64(w)*6
				if _, err := dec.DecryptRangeElems(i, i+6, elems, vec, vec); err != nil {
					t.Fatal(err)
				}
			}
			at += 64 * 6
		}
		decrypt()
		if allocs := testing.AllocsPerRun(50, decrypt); allocs != 0 {
			overBudget(t, "64-window page: %.1f allocs, want 0", allocs)
		}
	})
	// One client batch as the engine sees it: 16 chunks, one store batch.
	// The per-node write path before it measured 249 allocs and 30,273 B
	// here; staging in a pooled buffer measures 213 and 24,287. Grouping
	// the writes must not be bought with garbage. MemStore's append-only
	// pages replace its per-value allocations: 171 allocs and 23,439-23,786
	// B, where the map-of-slices store measured 212-213 and 24,771-25,202 B.
	// The index cache copies vectors into slot slabs instead of keeping a
	// boxed entry and a vector per node: 134-135 allocs and 21,548-24,375 B
	// over 190 runs (the spread is the cache map's growth, which depends on
	// the hash seed). Without a node cache, and with each node key built
	// by one allocation instead of two: 110 allocs and 17,213-19,876 B over
	// 40 runs.
	t.Run("engine-insert-batch", func(t *testing.T) {
		spec := hotSpec(t)
		engine := hotEngine(t, spec)
		const batch, runs = 16, 200
		blobs := hotBlobs(t, hotEncryptor(t), spec, 0, batch*(runs+2))
		next := 0
		insert := func() {
			for _, err := range engine.InsertChunkBatch("hot", blobs[next:next+batch]) {
				if err != nil {
					t.Fatal(err)
				}
			}
			next += batch
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep the stage pooled
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		insert()
		if allocs := testing.AllocsPerRun(runs/2-1, insert); allocs > 110 {
			overBudget(t, "16-chunk InsertChunkBatch: %.1f allocs, want <= 110", allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := next
		for next+batch <= len(blobs) {
			insert()
		}
		runtime.ReadMemStats(&after)
		if perOp := (after.TotalAlloc - before.TotalAlloc) / uint64((next-start)/batch); perOp > 20500 {
			overBudget(t, "16-chunk InsertChunkBatch: %d B, want <= 20500", perOp)
		}
	})
	t.Run("index-query", func(t *testing.T) {
		tree := hotQueryTree(t)
		// The result vector and the node-key scratch are all a query may
		// allocate, however many nodes it reads: each leaf is decoded
		// from the store's own bytes, its key built in the scratch, and
		// each complete inner node copied from the tree's arrays.
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := tree.Query(hotQueryLo, hotQueryHi); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			overBudget(t, "uncached 66-node Query: %.1f allocs, want <= 2", allocs)
		}
	})
	t.Run("wire-write", func(t *testing.T) {
		var sink bytes.Buffer
		sink.Grow(1 << 16)
		msg := &wire.InsertChunk{UUID: "hot", Chunk: bytes.Repeat([]byte{7}, 600)}
		if err := wire.WriteRequest(&sink, 1, 0, msg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(500, func() {
			sink.Reset()
			if err := wire.WriteRequest(&sink, 2, 0, msg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			overBudget(t, "WriteRequest: %.1f allocs/frame, want 0", allocs)
		}
	})
	t.Run("wire-read-frame", func(t *testing.T) {
		var frame bytes.Buffer
		if err := wire.WriteFrame(&frame, bytes.Repeat([]byte{0x5A}, 700)); err != nil {
			t.Fatal(err)
		}
		raw := frame.Bytes()
		rd := bytes.NewReader(raw)
		fb, err := wire.ReadFrameBuf(rd)
		if err != nil {
			t.Fatal(err)
		}
		fb.Release()
		allocs := testing.AllocsPerRun(500, func() {
			rd.Reset(raw)
			fb, err := wire.ReadFrameBuf(rd)
			if err != nil {
				t.Fatal(err)
			}
			fb.Release()
		})
		if allocs != 0 {
			overBudget(t, "pooled frame read: %.1f allocs/frame, want 0", allocs)
		}
	})
}

// TestStreamFootprintBudgets pins what a stream costs the server's heap
// before its data: bytes per created, empty stream, and bytes that one
// InsertChunk adds to it (MemStore's copy of the chunk and index nodes
// included). A stream's state is its table entry and its index tree, none
// of which may grow with the host's core count, so the figures at
// GOMAXPROCS 2 and 32 must agree within 10 %. Measured on a 2 vCPU Xeon
// (go1.24.0) over 10,000 streams, a created stream costs 491-500 B at both
// core counts and one chunk adds 1,821-1,848 B. With the default unbounded
// node cache, which held a second copy of every node, they were 655-660 B
// and 3,420-3,450 B; with that cache split into one lock-striped segment
// per core, a created stream cost 879 B at GOMAXPROCS 2 and 6,406 B at 32.
func TestStreamFootprintBudgets(t *testing.T) {
	const (
		streams     = 10_000
		createdMax  = 530   // bytes per created stream
		oneChunkMax = 2_050 // bytes one chunk adds per stream
		agreeWithin = 0.10
	)
	spec := chunk.DefaultSpec()
	specBytes, _ := spec.MarshalBinary()
	cfg := wire.StreamConfig{Epoch: 0, Interval: 100, VectorLen: uint32(spec.VectorLen()),
		Fanout: index.DefaultFanout, DigestSpec: specBytes}
	blob := hotBlobs(t, hotEncryptor(t), spec, 0, 1)[0]
	uuids := make([]string, streams)
	for i := range uuids {
		uuids[i] = fmt.Sprintf("stream-%05d", i)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	measure := func(procs int) (created, oneChunk float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ctx := context.Background()
		engine, err := server.New(kv.NewMemStore(), server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		h0 := heap()
		for _, uuid := range uuids {
			if resp := engine.Handle(ctx, &wire.CreateStream{UUID: uuid, Cfg: cfg}); resp.Type() != wire.TOK {
				t.Fatalf("CreateStream %s: %#v", uuid, resp)
			}
		}
		h1 := heap()
		for _, uuid := range uuids {
			if resp := engine.Handle(ctx, &wire.InsertChunk{UUID: uuid, Chunk: blob}); resp.Type() != wire.TOK {
				t.Fatalf("InsertChunk %s: %#v", uuid, resp)
			}
		}
		h2 := heap()
		runtime.KeepAlive(engine)
		return (float64(h1) - float64(h0)) / streams, (float64(h2) - float64(h1)) / streams
	}
	created2, chunk2 := measure(2)
	created32, chunk32 := measure(32)
	t.Logf("created stream: %.0f B at GOMAXPROCS 2, %.0f B at 32; one chunk adds %.0f B and %.0f B",
		created2, created32, chunk2, chunk32)
	for _, c := range []struct {
		what      string
		at2, at32 float64
		max       float64
	}{
		{"a created stream", created2, created32, createdMax},
		{"one chunk", chunk2, chunk32, oneChunkMax},
	} {
		if c.at2 > c.max || c.at32 > c.max {
			overBudget(t, "%s costs %.0f B at GOMAXPROCS 2 and %.0f B at 32, want <= %.0f", c.what, c.at2, c.at32, c.max)
		}
		if lo, hi := min(c.at2, c.at32), max(c.at2, c.at32); hi > lo*(1+agreeWithin) {
			t.Errorf("%s costs %.0f B at GOMAXPROCS 2 and %.0f B at 32: the core count moves it by more than %.0f %%",
				c.what, c.at2, c.at32, agreeWithin*100)
		}
	}
}

// sealBudget seals gen's chunks under the product default (a zlib stream)
// and holds the steady state to allocs and bytes per chunk; codec is what
// those chunks must come out stored as. With the collector off and one P
// the pooled codec state stays pooled, so the figures are the steady state
// and not a matter of GC timing or of which P's pool the goroutine wakes up
// on (a second P's first deflating seal builds its own 776 KB deflater: 1
// run in 25 at two Ps).
func sealBudget(t *testing.T, gen workload.Generator, interval int64, codec chunk.Compression, maxAllocs float64, maxBytes uint64) {
	enc := hotEncryptor(t)
	spec := hotSpec(t)
	const runs = 500
	chunks := make([][]chunk.Point, 2*runs+2)
	for i := range chunks {
		chunks[i] = gen.Chunk(uint64(i), 0, interval)
	}
	pos := uint64(0)
	seal := func() {
		start := int64(pos) * interval
		sealed, err := chunk.Seal(enc, spec, chunk.CompressionZlib, pos, start, start+interval, chunks[pos])
		if err != nil {
			t.Fatal(err)
		}
		if sealed.Compression != codec {
			t.Fatalf("chunk %d stored as %v, want %v", pos, sealed.Compression, codec)
		}
		pos++
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if allocs := testing.AllocsPerRun(runs, seal); allocs > maxAllocs {
		overBudget(t, "%s seal: %.1f allocs/chunk, want <= %.0f", gen.Name(), allocs, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		seal()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > maxBytes {
		overBudget(t, "%s seal: %d B/chunk, want <= %d", gen.Name(), perOp, maxBytes)
	}
}

// BenchmarkHotPath is the per-layer micro-benchmark suite backing
// docs/PERFORMANCE.md's budget table; run with -benchmem.
func BenchmarkHotPath(b *testing.B) {
	b.Run("prg-aes", benchPRG(core.PRGAES))
	b.Run("prg-sha256", benchPRG(core.PRGSHA256))
	b.Run("prg-hmac", benchPRG(core.PRGHMAC))

	b.Run("keystream-derive", func(b *testing.B) {
		enc := hotEncryptor(b)
		m := make([]uint64, hotVecLen)
		dst := make([]uint64, hotVecLen)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := enc.EncryptDigest(uint64(i), m, dst); err != nil {
				b.Fatal(err)
			}
			if _, err := enc.ChunkKeyAt(uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("chunk-seal", func(b *testing.B) {
		enc := hotEncryptor(b)
		spec := hotSpec(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pos := uint64(i)
			start := int64(pos) * 100
			if _, err := chunk.Seal(enc, spec, chunk.CompressionNone, pos, start, start+100, hotPoints(pos)); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The benchmark's two chunk shapes under the product default codec (the
	// chunk-seal row above and the engine rows run CompressionNone): DevOps
	// stays below the deflate gate, mHealth deflates to a third.
	b.Run("seal/devops", benchSeal(workload.NewDevOps(1), 60_000))
	b.Run("seal/mhealth", benchSeal(workload.NewMHealth(1), 10_000))

	// Opening them again: the mHealth chunk through a pooled inflater, the
	// DevOps chunk without one.
	b.Run("open/zlib", benchOpen(workload.NewMHealth(1), 10_000, chunk.CompressionZlib))
	b.Run("open/raw", benchOpen(workload.NewDevOps(1), 60_000, chunk.CompressionNone))

	// One page of a windowed query: 64 contiguous 6-chunk windows,
	// projected to two elements, decrypted in place.
	b.Run("decrypt/page64", func(b *testing.B) {
		dec := hotEncryptor(b)
		elems := []uint32{0, 1}
		vec := make([]uint64, len(elems))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := uint64(i%1000) * 64 * 6
			for w := uint64(0); w < 64; w++ {
				if _, err := dec.DecryptRangeElems(at+w*6, at+(w+1)*6, elems, vec, vec); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	// Uniformly random leaves over a 2^17-chunk stream: the edges of
	// arbitrary query ranges.
	b.Run("walker/random", func(b *testing.B) {
		w := hotWalker(b)
		rng := rand.New(rand.NewPCG(1, 2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Leaf(rng.Uint64N(1 << 17)); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("wire-roundtrip", func(b *testing.B) {
		msg := &wire.InsertChunk{UUID: "hot", Chunk: bytes.Repeat([]byte{7}, 600)}
		var sink bytes.Buffer
		sink.Grow(1 << 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink.Reset()
			if err := wire.WriteRequest(&sink, uint64(i), 0, msg); err != nil {
				b.Fatal(err)
			}
			fb, err := wire.ReadFrameBuf(&sink)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, _, _, err := wire.DecodeRequest(fb.Bytes()); err != nil {
				b.Fatal(err)
			}
			fb.Release()
		}
	})

	b.Run("index-append", func(b *testing.B) {
		tree, err := index.Open(kv.NewMemStore(), "hot", index.Config{VectorLen: hotVecLen})
		if err != nil {
			b.Fatal(err)
		}
		digest := make([]uint64, hotVecLen)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tree.Append(uint64(i), digest); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("index/query", func(b *testing.B) {
		tree := hotQueryTree(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tree.Query(hotQueryLo, hotQueryHi); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("index-append-batch64", func(b *testing.B) {
		tree, err := index.Open(kv.NewMemStore(), "hot", index.Config{VectorLen: hotVecLen})
		if err != nil {
			b.Fatal(err)
		}
		const batch = 64
		digests := make([][]uint64, batch)
		for i := range digests {
			digests[i] = make([]uint64, hotVecLen)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			if err := tree.AppendBatch(uint64(i), digests); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("engine-ingest", func(b *testing.B) {
		spec := hotSpec(b)
		engine := hotEngine(b, spec)
		enc := hotEncryptor(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pos := uint64(i)
			start := int64(pos) * 100
			sealed, err := chunk.Seal(enc, spec, chunk.CompressionNone, pos, start, start+100, hotPoints(pos))
			if err != nil {
				b.Fatal(err)
			}
			if err := engine.InsertChunkBatch("hot", [][]byte{chunk.MarshalSealed(sealed)})[0]; err != nil {
				b.Fatal(err)
			}
		}
	})

	// One client batch (16 chunks) through the engine: the store sees one
	// batch, a durable store writes one WAL record.
	b.Run("insert-batch/mem", func(b *testing.B) { benchInsertBatch(b, kv.NewMemStore(), nil) })
	b.Run("insert-batch/durable-nosync", func(b *testing.B) {
		st, err := durable.Open(b.TempDir(), durable.Options{Sync: durable.SyncNever})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		benchInsertBatch(b, st, func() uint64 { return st.Stats().Records })
	})

	b.Run("engine-ingest-batch64", func(b *testing.B) {
		spec := hotSpec(b)
		engine := hotEngine(b, spec)
		enc := hotEncryptor(b)
		const batch = 64
		blobs := make([][]byte, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			for j := range blobs {
				pos := uint64(i + j)
				start := int64(pos) * 100
				sealed, err := chunk.Seal(enc, spec, chunk.CompressionNone, pos, start, start+100, hotPoints(pos))
				if err != nil {
					b.Fatal(err)
				}
				blobs[j] = chunk.MarshalSealed(sealed)
			}
			for _, err := range engine.InsertChunkBatch("hot", blobs) {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// benchInsertBatch times the engine's 16-chunk InsertChunkBatch — one
// client batch — over store, sealing outside the timer. records, when set,
// reads the store's WAL record counter: one per batch.
func benchInsertBatch(b *testing.B, store kv.Store, records func() uint64) {
	spec := hotSpec(b)
	engine := hotEngineOn(b, store, spec)
	const batch = 16
	blobs := hotBlobs(b, hotEncryptor(b), spec, 0, uint64(b.N)*batch)
	var before uint64
	if records != nil {
		before = records()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, err := range engine.InsertChunkBatch("hot", blobs[i*batch:(i+1)*batch]) {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if records != nil {
		b.ReportMetric(float64(records()-before)/float64(b.N), "wal-records/batch")
	}
}

// benchSeal seals gen's chunks in a zlib stream, generation outside the
// timer.
func benchSeal(gen workload.Generator, interval int64) func(*testing.B) {
	return func(b *testing.B) {
		enc := hotEncryptor(b)
		spec := hotSpec(b)
		chunks := make([][]chunk.Point, 256)
		for i := range chunks {
			chunks[i] = gen.Chunk(uint64(i), 0, interval)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pos := uint64(i)
			start := int64(pos) * interval
			if _, err := chunk.Seal(enc, spec, chunk.CompressionZlib, pos, start, start+interval, chunks[i%len(chunks)]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchOpen opens one of gen's chunks, sealed in a zlib stream and stored
// as codec.
func benchOpen(gen workload.Generator, interval int64, codec chunk.Compression) func(*testing.B) {
	return func(b *testing.B) {
		sealed, err := chunk.Seal(hotEncryptor(b), hotSpec(b), chunk.CompressionZlib, 0, 0, interval, gen.Chunk(0, 0, interval))
		if err != nil || sealed.Compression != codec {
			b.Fatalf("stored as %v, err %v", sealed.Compression, err)
		}
		leaves := hotWalker(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := chunk.OpenInStream(leaves, chunk.CompressionZlib, sealed); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchPRG(kind core.PRGKind) func(*testing.B) {
	return func(b *testing.B) {
		prg := core.NewPRG(kind)
		x := core.Node{0x11, 0x22}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l, r := prg.Expand(x)
			x[0] = l[0] ^ r[0]
		}
		_ = fmt.Sprintf("%x", x[0]) // keep the chain live
	}
}
