// Benchmarks regenerating each table and figure of the paper's evaluation
// (§6) as Go testing.B targets, plus ablation benches for the design
// choices called out in DESIGN.md §5. The full formatted tables come from
// `go run ./cmd/timecrypt-bench`; these targets expose the same code paths
// to `go test -bench`.
package timecrypt_test

import (
	"context"
	"fmt"
	"math/big"
	"math/rand/v2"
	"sync"
	"testing"

	timecrypt "repro"
	"repro/internal/baseline/abesim"
	"repro/internal/baseline/ecelgamal"
	"repro/internal/baseline/paillier"
	"repro/internal/chunk"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/workload"
)

// ---- shared fixtures ---------------------------------------------------

var paillierKey = sync.OnceValue(func() *paillier.PrivateKey {
	key, err := paillier.GenerateKey(paillier.Key128SecurityBits)
	if err != nil {
		panic(err)
	}
	return key
})

var ecKey = sync.OnceValue(func() *ecelgamal.PrivateKey {
	key, err := ecelgamal.GenerateKey()
	if err != nil {
		panic(err)
	}
	return key
})

var ecTable = sync.OnceValue(func() *ecelgamal.DlogTable {
	t, err := ecelgamal.NewDlogTable(1<<22, 1<<11)
	if err != nil {
		panic(err)
	}
	return t
})

// encIndex builds an index of n sum-only digests; encrypted selects
// TimeCrypt vs plaintext.
func encIndex(b *testing.B, encrypted bool, n uint64, fanout int, cacheBytes int64) (*index.Tree, *core.Encryptor) {
	b.Helper()
	store := kv.NewMemStore()
	tree, err := index.Open(store, "bench", index.Config{Fanout: fanout, VectorLen: 1, CacheBytes: cacheBytes})
	if err != nil {
		b.Fatal(err)
	}
	var enc, dec *core.Encryptor
	if encrypted {
		kt, err := core.NewTree(core.NewPRG(core.PRGAES), core.DefaultTreeHeight, core.Node{1})
		if err != nil {
			b.Fatal(err)
		}
		enc = core.NewEncryptor(kt.NewWalker())
		dec = core.NewEncryptor(kt.NewWalker())
	}
	buf := make([]uint64, 1)
	for i := uint64(0); i < n; i++ {
		buf[0] = i % 5
		if encrypted {
			if _, err := enc.EncryptDigest(i, buf, buf); err != nil {
				b.Fatal(err)
			}
		}
		if err := tree.Append(i, buf); err != nil {
			b.Fatal(err)
		}
	}
	return tree, dec
}

// ---- Table 2: homomorphic ADD ------------------------------------------

func BenchmarkTable2MicroAdd(b *testing.B) {
	b.Run("timecrypt", func(b *testing.B) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			acc += uint64(i)
		}
		_ = acc
	})
	b.Run("paillier", func(b *testing.B) {
		key := paillierKey()
		c1, _ := key.EncryptUint64(1)
		c2, _ := key.EncryptUint64(2)
		acc := new(big.Int).Set(c1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key.AddInto(acc, c2)
		}
	})
	b.Run("ec-elgamal", func(b *testing.B) {
		key := ecKey()
		c1, _ := key.Encrypt(1)
		c2, _ := key.Encrypt(2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c1 = ecelgamal.Add(c1, c2)
		}
	})
}

// ---- Table 2: index ingest ----------------------------------------------

func BenchmarkTable2Ingest(b *testing.B) {
	for _, cfg := range []struct {
		name      string
		encrypted bool
	}{{"plaintext", false}, {"timecrypt", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			tree, _ := encIndex(b, cfg.encrypted, 1000, 64, 0)
			var enc *core.Encryptor
			if cfg.encrypted {
				kt, _ := core.NewTree(core.NewPRG(core.PRGAES), core.DefaultTreeHeight, core.Node{1})
				enc = core.NewEncryptor(kt.NewWalker())
				// Advance the walker to the index head.
				enc.EncryptDigest(999, []uint64{0}, nil)
			}
			buf := make([]uint64, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pos := tree.Count()
				buf[0] = 3
				if cfg.encrypted {
					if _, err := enc.EncryptDigest(pos, buf, buf); err != nil {
						b.Fatal(err)
					}
				}
				if err := tree.Append(pos, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("paillier", func(b *testing.B) {
		key := paillierKey()
		for i := 0; i < b.N; i++ {
			if _, err := key.EncryptUint64(3); err != nil { // dominates ingest
				b.Fatal(err)
			}
		}
	})
	b.Run("ec-elgamal", func(b *testing.B) {
		key := ecKey()
		for i := 0; i < b.N; i++ {
			if _, err := key.Encrypt(3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Table 2: index query -----------------------------------------------

func BenchmarkTable2Query(b *testing.B) {
	const n = 1 << 16
	for _, cfg := range []struct {
		name      string
		encrypted bool
	}{{"plaintext", false}, {"timecrypt", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			tree, dec := encIndex(b, cfg.encrypted, n, 64, 0)
			r := rand.New(rand.NewPCG(1, 1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := r.Uint64N(n / 2)
				c := a + 1 + r.Uint64N(n-a-1)
				vec, err := tree.Query(a, c)
				if err != nil {
					b.Fatal(err)
				}
				if cfg.encrypted {
					if _, err := dec.DecryptRange(a, c, vec, vec); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// ---- Table 2: index size ------------------------------------------------

func BenchmarkTable2IndexSize(b *testing.B) {
	// Reported via a metric rather than time: bytes per chunk for the
	// TimeCrypt/plaintext index (identical: no ciphertext expansion).
	store := kv.NewMemStore()
	tree, err := index.Open(store, "size", index.Config{Fanout: 64, VectorLen: 1})
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 16
	for i := uint64(0); i < n; i++ {
		tree.Append(i, []uint64{1})
	}
	b.ReportMetric(float64(store.SizeBytes())/n, "bytes/chunk")
	b.ReportMetric(float64(paillierKey().CiphertextBytes()), "paillier-bytes/elt")
	b.ReportMetric(66, "ecelgamal-bytes/elt")
	for i := 0; i < b.N; i++ {
		_ = store.SizeBytes()
	}
}

// ---- Table 3: crypto operations ------------------------------------------

func BenchmarkTable3CryptoOps(b *testing.B) {
	tree, err := core.NewTree(core.NewPRG(core.PRGAES), 30, core.Node{5})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("timecrypt-enc", func(b *testing.B) {
		enc := core.NewEncryptor(tree.NewWalker())
		r := rand.New(rand.NewPCG(2, 2))
		m := []uint64{12345}
		out := make([]uint64, 1)
		for i := 0; i < b.N; i++ {
			if _, err := enc.EncryptDigest(r.Uint64N(1<<29), m, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("timecrypt-dec", func(b *testing.B) {
		dec := core.NewEncryptor(tree.NewWalker())
		r := rand.New(rand.NewPCG(2, 2))
		m := []uint64{12345}
		out := make([]uint64, 1)
		for i := 0; i < b.N; i++ {
			p := r.Uint64N(1 << 29)
			if _, err := dec.DecryptRange(p, p+1, m, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("paillier-enc", func(b *testing.B) {
		key := paillierKey()
		for i := 0; i < b.N; i++ {
			if _, err := key.EncryptUint64(77); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("paillier-dec", func(b *testing.B) {
		key := paillierKey()
		c, _ := key.EncryptUint64(77)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := key.DecryptCRT(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ecelgamal-enc", func(b *testing.B) {
		key := ecKey()
		for i := 0; i < b.N; i++ {
			if _, err := key.Encrypt(77); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ecelgamal-dec", func(b *testing.B) {
		key := ecKey()
		c, _ := key.Encrypt(77_000)
		table := ecTable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := key.Decrypt(c, table); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Fig 5: interval sweep ------------------------------------------------

func BenchmarkFig5IntervalSweep(b *testing.B) {
	const n = 1 << 16
	tree, dec := encIndex(b, true, n, 64, 0)
	for _, x := range []int{0, 4, 8, 12, 16} {
		b.Run(fmt.Sprintf("x=%d", x), func(b *testing.B) {
			hi := uint64(1) << x
			for i := 0; i < b.N; i++ {
				vec, err := tree.Query(0, hi)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dec.DecryptRange(0, hi, vec, vec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Fig 6: key derivation per PRG -----------------------------------------

func BenchmarkFig6KeyDerivation(b *testing.B) {
	for _, kind := range []core.PRGKind{core.PRGAES, core.PRGSHA256, core.PRGHMAC} {
		for _, h := range []int{10, 30, 60} {
			b.Run(fmt.Sprintf("%s/h=%d", kind, h), func(b *testing.B) {
				tree, err := core.NewTree(core.NewPRG(kind), h, core.Node{byte(h)})
				if err != nil {
					b.Fatal(err)
				}
				r := rand.New(rand.NewPCG(uint64(h), 9))
				n := tree.NumLeaves()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := tree.Leaf(r.Uint64N(n)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---- Fig 7 / §6.3: end-to-end ops -------------------------------------------

// benchE2E measures one full ingest + 4 statistical queries through the
// whole stack (wire codec included) per iteration.
func benchE2E(b *testing.B, gen workload.Generator, interval int64, insecure bool) {
	engine, err := server.New(kv.NewMemStore(), server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	owner := client.NewOwner(&client.InProc{Engine: engine})
	epoch := int64(1_700_000_000_000)
	s, err := owner.CreateStream(context.Background(), client.StreamOptions{
		UUID: "e2e", Epoch: epoch, Interval: interval,
		Spec:     chunk.DigestSpec{Sum: true, Count: true, SumSq: true},
		Insecure: insecure,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the stream so queries have history.
	for i := 0; i < 16; i++ {
		if err := s.AppendChunk(context.Background(), gen.Chunk(uint64(i), epoch, interval)); err != nil {
			b.Fatal(err)
		}
	}
	r := rand.New(rand.NewPCG(4, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := 16 + uint64(i)
		if err := s.AppendChunk(context.Background(), gen.Chunk(idx, epoch, interval)); err != nil {
			b.Fatal(err)
		}
		for q := 0; q < 4; q++ {
			lo := epoch + int64(r.Uint64N(idx))*interval
			hi := epoch + int64(idx+1)*interval
			if _, err := s.StatRange(context.Background(), lo, hi); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(gen.PointsPerChunk()), "records/op")
}

func BenchmarkFig7EndToEnd(b *testing.B) {
	b.Run("mhealth-plaintext", func(b *testing.B) {
		benchE2E(b, workload.NewMHealth(1), 10_000, true)
	})
	b.Run("mhealth-timecrypt", func(b *testing.B) {
		benchE2E(b, workload.NewMHealth(1), 10_000, false)
	})
}

func BenchmarkDevOps(b *testing.B) {
	b.Run("devops-plaintext", func(b *testing.B) {
		benchE2E(b, workload.NewDevOps(1), 60_000, true)
	})
	b.Run("devops-timecrypt", func(b *testing.B) {
		benchE2E(b, workload.NewDevOps(1), 60_000, false)
	})
}

// ---- Fig 8: granularity sweep -----------------------------------------------

func BenchmarkFig8Granularity(b *testing.B) {
	engine, err := server.New(kv.NewMemStore(), server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	owner := client.NewOwner(&client.InProc{Engine: engine})
	epoch := int64(1_700_000_000_000)
	const interval = 10_000
	const chunks = 4320 // half a day at Δ=10s
	s, err := owner.CreateStream(context.Background(), client.StreamOptions{
		UUID: "fig8", Epoch: epoch, Interval: interval,
		Spec: chunk.DigestSpec{Sum: true, Count: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]chunk.Point, 2)
	for i := uint64(0); i < chunks; i++ {
		start := epoch + int64(i)*interval
		pts[0] = chunk.Point{TS: start, Val: 70}
		pts[1] = chunk.Point{TS: start + 5000, Val: 75}
		if err := s.AppendChunk(context.Background(), pts); err != nil {
			b.Fatal(err)
		}
	}
	te := epoch + int64(chunks)*interval
	for _, g := range []struct {
		name   string
		window uint64
	}{{"minute", 6}, {"hour", 360}, {"half-day", chunks}} {
		b.Run(g.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.StatSeries(context.Background(), epoch, te, g.window); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- §6.2: access control -----------------------------------------------------

func BenchmarkAccessControl(b *testing.B) {
	tree, err := core.NewTree(core.NewPRG(core.PRGAES), 30, core.Node{3})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("timecrypt-keystream", func(b *testing.B) {
		r := rand.New(rand.NewPCG(6, 6))
		for i := 0; i < b.N; i++ {
			if _, err := tree.Leaf(r.Uint64N(tree.NumLeaves())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("timecrypt-grant-cover", func(b *testing.B) {
		r := rand.New(rand.NewPCG(6, 7))
		for i := 0; i < b.N; i++ {
			a := r.Uint64N(1 << 29)
			c := a + 1 + r.Uint64N(1<<20)
			if _, err := tree.Cover(a, c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dual-key-regression", func(b *testing.B) {
		dkr, err := core.NewDualKeyRegression(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		r := rand.New(rand.NewPCG(6, 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dkr.KeyAt(r.Uint64N(dkr.N())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("abe-grant", func(b *testing.B) {
		abe, err := abesim.New()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			abe.KeyGen(1)
			abe.Encrypt(1)
		}
	})
	b.Run("abe-decrypt", func(b *testing.B) {
		abe, err := abesim.New()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			abe.Decrypt(1)
		}
	})
}

// ---- Ablations (DESIGN.md §5) ----------------------------------------------

func BenchmarkAblationFanout(b *testing.B) {
	const n = 1 << 14
	for _, k := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("k=%d/query", k), func(b *testing.B) {
			tree, dec := encIndex(b, true, n, k, 0)
			r := rand.New(rand.NewPCG(uint64(k), 1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := r.Uint64N(n / 2)
				c := a + 1 + r.Uint64N(n-a-1)
				vec, err := tree.Query(a, c)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dec.DecryptRange(a, c, vec, vec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationLeafCache(b *testing.B) {
	tree, err := core.NewTree(core.NewPRG(core.PRGAES), 30, core.Node{8})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential-with-walker", func(b *testing.B) {
		w := tree.NewWalker()
		for i := 0; i < b.N; i++ {
			if _, err := w.Leaf(uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential-no-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tree.Leaf(uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationCompression(b *testing.B) {
	gen := workload.NewMHealth(3)
	pts := gen.Chunk(0, 0, 10_000)
	spec := chunk.DigestSpec{Sum: true, Count: true}
	for _, comp := range []chunk.Compression{chunk.CompressionNone, chunk.CompressionZlib} {
		b.Run(comp.String(), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				sealed, err := chunk.SealPlain(spec, comp, 0, 0, 10_000, pts)
				if err != nil {
					b.Fatal(err)
				}
				size = len(sealed.Payload)
			}
			b.ReportMetric(float64(size), "payload-bytes")
		})
	}
}

func BenchmarkAblationCacheBudget(b *testing.B) {
	const n = 1 << 14
	for _, cfg := range []struct {
		name  string
		bytes int64
	}{{"unbounded", 0}, {"1MB", 1 << 20}, {"64KB", 64 << 10}} {
		b.Run(cfg.name, func(b *testing.B) {
			tree, dec := encIndex(b, true, n, 64, cfg.bytes)
			r := rand.New(rand.NewPCG(3, 3))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := r.Uint64N(n / 2)
				c := a + 1 + r.Uint64N(n-a-1)
				vec, err := tree.Query(a, c)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dec.DecryptRange(a, c, vec, vec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- component benches ---------------------------------------------------

func BenchmarkHEACEncryptVector(b *testing.B) {
	tree, _ := core.NewTree(core.NewPRG(core.PRGAES), 30, core.Node{2})
	enc := core.NewEncryptor(tree.NewWalker())
	m := make([]uint64, 19) // default digest: sum+count+sumsq+16 bins
	out := make([]uint64, 19)
	for i := 0; i < b.N; i++ {
		if _, err := enc.EncryptDigest(uint64(i), m, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(19, "digest-elements")
}

func BenchmarkChunkSeal(b *testing.B) {
	tree, _ := core.NewTree(core.NewPRG(core.PRGAES), 30, core.Node{2})
	enc := core.NewEncryptor(tree.NewWalker())
	gen := workload.NewMHealth(1)
	spec := chunk.DefaultSpec()
	for i := 0; i < b.N; i++ {
		pts := gen.Chunk(uint64(i), 0, 10_000)
		start := int64(i) * 10_000
		if _, err := chunk.Seal(enc, spec, chunk.CompressionZlib, uint64(i), start, start+10_000, pts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(500, "records/op")
}

func BenchmarkGrantIssue(b *testing.B) {
	engine, err := server.New(kv.NewMemStore(), server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	owner := timecrypt.NewOwner(timecrypt.NewInProcTransport(engine))
	epoch := int64(1_700_000_000_000)
	s, err := owner.CreateStream(context.Background(), timecrypt.StreamOptions{UUID: "g", Epoch: epoch, Interval: 10_000})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		start := epoch + int64(i)*10_000
		if err := s.AppendChunk(context.Background(), []timecrypt.Point{{TS: start, Val: 1}}); err != nil {
			b.Fatal(err)
		}
	}
	kp, _ := timecrypt.GenerateKeyPair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Grant(context.Background(), kp.PublicBytes(), epoch, epoch+64*10_000, 0); err != nil {
			b.Fatal(err)
		}
	}
}
