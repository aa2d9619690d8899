package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/wire"
)

// benchIngest drives concurrent multi-stream ingest (with the paper's 4:1
// query ratio) against any handler: the head-to-head for one striped
// engine vs a sharded router. Run with:
//
//	go test ./internal/cluster -bench BenchmarkIngest -benchtime 2x
func benchIngest(b *testing.B, handler server.Handler) {
	const streams = 16
	const chunksPerStream = 150
	spec := chunk.DigestSpec{Sum: true, Count: true}
	specBytes, _ := spec.MarshalBinary()
	cfg := wire.StreamConfig{Epoch: 0, Interval: 100, VectorLen: uint32(spec.VectorLen()), Fanout: 8, DigestSpec: specBytes}

	for n := 0; n < b.N; n++ {
		uuidOf := func(s int) string { return fmt.Sprintf("bench-%d-%d", n, s) }
		for s := 0; s < streams; s++ {
			if resp := handler.Handle(context.Background(), &wire.CreateStream{UUID: uuidOf(s), Cfg: cfg}); resp == nil {
				b.Fatal("create failed")
			} else if e, bad := resp.(*wire.Error); bad {
				b.Fatal(e)
			}
		}
		var wg sync.WaitGroup
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func(uuid string) {
				defer wg.Done()
				for i := uint64(0); i < chunksPerStream; i++ {
					start := int64(i) * 100
					sealed, err := chunk.SealPlain(spec, chunk.CompressionNone, i, start, start+100,
						[]chunk.Point{{TS: start, Val: int64(i)}})
					if err != nil {
						b.Error(err)
						return
					}
					if e, bad := handler.Handle(context.Background(), &wire.InsertChunk{UUID: uuid, Chunk: chunk.MarshalSealed(sealed)}).(*wire.Error); bad {
						b.Error(e)
						return
					}
					for q := 0; q < 4; q++ {
						handler.Handle(context.Background(), &wire.StatRange{UUIDs: []string{uuid}, Ts: 0, Te: start + 100})
					}
				}
			}(uuidOf(s))
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.N*streams*chunksPerStream), "chunks")
}

func BenchmarkIngestStripedEngine(b *testing.B) {
	engine, err := server.New(kv.NewMemStore(), server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	benchIngest(b, engine)
}

func BenchmarkIngestSharded4(b *testing.B) {
	var shards []Shard
	for i := 0; i < 4; i++ {
		engine, err := server.New(kv.NewMemStore(), server.Config{})
		if err != nil {
			b.Fatal(err)
		}
		shards = append(shards, Shard{Name: fmt.Sprintf("shard-%d", i), Handler: engine})
	}
	router, err := NewRouter(shards, Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchIngest(b, router)
}

// BenchmarkRebalanceGrow measures one full live membership change: a
// 4-shard router with pre-ingested streams grows to 5, migrating the
// streams whose ownership changed (export, import, freeze, handoff). Run
// with:
//
//	go test ./internal/cluster -bench BenchmarkRebalanceGrow -benchtime 2x
func BenchmarkRebalanceGrow(b *testing.B) {
	spec := chunk.DigestSpec{Sum: true, Count: true}
	specBytes, _ := spec.MarshalBinary()
	cfg := wire.StreamConfig{Epoch: 0, Interval: 100, VectorLen: uint32(spec.VectorLen()), Fanout: 8, DigestSpec: specBytes}
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		var shards []Shard
		for i := 0; i < 4; i++ {
			engine, err := server.New(kv.NewMemStore(), server.Config{})
			if err != nil {
				b.Fatal(err)
			}
			shards = append(shards, Shard{Name: fmt.Sprintf("shard-%d", i), Handler: engine})
		}
		router, err := NewRouter(shards, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < 16; s++ {
			uuid := fmt.Sprintf("grow-%d", s)
			if resp := router.Handle(context.Background(), &wire.CreateStream{UUID: uuid, Cfg: cfg}); !isOK(resp) {
				b.Fatalf("create: %v", resp)
			}
			for c := uint64(0); c < 60; c++ {
				start := int64(c) * 100
				sealed, err := chunk.SealPlain(spec, chunk.CompressionNone, c, start, start+100,
					[]chunk.Point{{TS: start, Val: int64(c + 1)}})
				if err != nil {
					b.Fatal(err)
				}
				if resp := router.Handle(context.Background(), &wire.InsertChunk{UUID: uuid, Chunk: chunk.MarshalSealed(sealed)}); !isOK(resp) {
					b.Fatalf("ingest: %v", resp)
				}
			}
		}
		fifth, err := server.New(kv.NewMemStore(), server.Config{})
		if err != nil {
			b.Fatal(err)
		}
		grown := []Shard{{Name: "shard-0"}, {Name: "shard-1"}, {Name: "shard-2"}, {Name: "shard-3"},
			{Name: "shard-4", Handler: fifth}}
		b.StartTimer()
		report, err := router.Rebalance(context.Background(), grown)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if len(report.Moved) == 0 {
			b.Fatal("grow moved no streams")
		}
	}
}
