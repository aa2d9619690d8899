package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/wire"
)

// loadVia creates a stream through h and ingests n plaintext chunks whose
// values depend on salt, so different streams sum to different digests.
func loadVia(t *testing.T, h server.Handler, spec chunk.DigestSpec, cfg wire.StreamConfig, uuid string, n uint64, salt int64) {
	t.Helper()
	if resp := h.Handle(context.Background(), &wire.CreateStream{UUID: uuid, Cfg: cfg}); !isOK(resp) {
		t.Fatalf("CreateStream(%q) -> %#v", uuid, resp)
	}
	for i := uint64(0); i < n; i++ {
		start := cfg.Epoch + int64(i)*cfg.Interval
		sealed, err := chunk.SealPlain(spec, chunk.CompressionNone, i, start, start+cfg.Interval,
			[]chunk.Point{{TS: start, Val: int64(i) + 1 + 100*salt}})
		if err != nil {
			t.Fatal(err)
		}
		if resp := h.Handle(context.Background(), &wire.InsertChunk{UUID: uuid, Chunk: chunk.MarshalSealed(sealed)}); !isOK(resp) {
			t.Fatalf("InsertChunk(%q, %d) -> %#v", uuid, i, resp)
		}
	}
}

// TestCrossShardQueriesMatchOneEngine: every statistical query answered by
// a router over 1 or 4 shards is byte-identical to the answer of one
// never-sharded engine holding the same streams, and every refusal (a
// geometry mismatch, a missing or empty member, an empty range) carries
// the same error code. Uneven ingest (one member shorter than the rest)
// forces the router's pinned second wave.
func TestCrossShardQueriesMatchOneEngine(t *testing.T) {
	const chunks = 20
	for _, streams := range []int{1, 3, 16} {
		for _, uneven := range []bool{false, true} {
			t.Run(fmt.Sprintf("streams=%d/uneven=%v", streams, uneven), func(t *testing.T) {
				one := newTestCluster(t, 1)
				four := newTestCluster(t, 4)
				engine, err := server.New(kv.NewMemStore(), server.Config{})
				if err != nil {
					t.Fatal(err)
				}
				targets := []struct {
					name string
					h    server.Handler
				}{{"engine", engine}, {"router/1", one.router}, {"router/4", four.router}}

				odd := four.cfg
				odd.Interval = 999
				uuids := make([]string, streams)
				for i := range uuids {
					uuids[i] = fmt.Sprintf("par-%d", i)
					n := uint64(chunks)
					if uneven && i == streams/2 {
						n = 13
					}
					for _, tg := range targets {
						loadVia(t, tg.h, four.spec, four.cfg, uuids[i], n, int64(i))
					}
				}
				for _, tg := range targets {
					loadVia(t, tg.h, four.spec, odd, "par-odd", chunks, 99)
					loadVia(t, tg.h, four.spec, four.cfg, "par-void", 0, 0)
					loadVia(t, tg.h, four.spec, odd, "par-void-odd", 0, 0)
				}

				var queries []wire.Message
				for _, rg := range [][2]int64{{0, chunks * 100}, {250, 1750}} {
					for _, wc := range []uint64{0, 5} {
						queries = append(queries,
							&wire.StatRange{UUIDs: uuids, Ts: rg[0], Te: rg[1], WindowChunks: wc},
							&wire.AggRange{UUIDs: uuids, Ts: rg[0], Te: rg[1], WindowChunks: wc},
							&wire.AggRange{UUIDs: uuids, Ts: rg[0], Te: rg[1], WindowChunks: wc, Elems: []uint32{1, 0}})
					}
				}
				refusals := map[string][]string{
					"geometry mismatch": append(append([]string(nil), uuids...), "par-odd"),
					"missing member":    append(append([]string(nil), uuids...), "par-missing"),
					"empty member":      append(append([]string(nil), uuids...), "par-void"),
					"empty first":       append([]string{"par-void"}, uuids...),
					"empty odd member":  append(append([]string(nil), uuids...), "par-void-odd"),
					"empty range":       uuids,
				}
				for what, members := range refusals {
					ts, te := int64(0), int64(chunks*100)
					if what == "empty range" {
						ts, te = 5000, 6000
					}
					queries = append(queries,
						&wire.StatRange{UUIDs: members, Ts: ts, Te: te},
						&wire.AggRange{UUIDs: members, Ts: ts, Te: te, WindowChunks: 5})
				}

				for _, q := range queries {
					want := engine.Handle(context.Background(), q)
					for _, tg := range targets[1:] {
						got := tg.h.Handle(context.Background(), q)
						if we, isErr := want.(*wire.Error); isErr {
							if ge, ok := got.(*wire.Error); !ok || ge.Code != we.Code {
								t.Errorf("%s %#v: got %#v, want error code %d (%s)", tg.name, q, got, we.Code, we.Msg)
							}
							continue
						}
						if !bytes.Equal(wire.Marshal(got), wire.Marshal(want)) {
							t.Errorf("%s %#v:\n got %#v\nwant %#v", tg.name, q, got, want)
						}
					}
				}
			})
		}
	}
}

// infoCounter counts the StreamInfo requests a shard receives.
type infoCounter struct {
	inner server.Handler
	infos atomic.Int64
}

func (c *infoCounter) Handle(ctx context.Context, req wire.Message) wire.Message {
	if _, ok := req.(*wire.StreamInfo); ok {
		c.infos.Add(1)
	}
	return c.inner.Handle(ctx, req)
}

// TestCrossShardStatRangeIsOneWave: a cross-shard StatRange over evenly
// ingested streams costs one sub-request per shard group and no StreamInfo
// pre-pass; over uneven ingest it costs what an AggRange costs — a wave,
// one StreamInfo per member, and the pinned wave.
func TestCrossShardStatRangeIsOneWave(t *testing.T) {
	tc := newTestCluster(t, 4)
	counters := make([]*infoCounter, len(tc.engines))
	shards := make([]Shard, len(tc.engines))
	for i, e := range tc.engines {
		counters[i] = &infoCounter{inner: e}
		shards[i] = Shard{Name: tc.names[i], Handler: counters[i]}
	}
	router, err := NewRouter(shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc.router = router

	uuids := make([]string, 16)
	groups := map[string]bool{}
	for i := range uuids {
		uuids[i] = fmt.Sprintf("wave-%d", i)
		groups[router.Owner(uuids[i])] = true
		tc.createStream(t, uuids[i])
		tc.ingest(t, uuids[i], 10)
	}
	if len(groups) < 2 {
		t.Fatal("all streams landed on one shard")
	}
	cost := func(q wire.Message) (fanouts, infos int64) {
		t.Helper()
		count := func() (f, n int64) {
			for _, s := range router.Stats() {
				f += int64(s.Fanouts)
			}
			for _, c := range counters {
				n += c.infos.Load()
			}
			return f, n
		}
		f0, n0 := count()
		if e, isErr := router.Handle(context.Background(), q).(*wire.Error); isErr {
			t.Fatalf("%#v -> %s", q, e.Msg)
		}
		f1, n1 := count()
		return f1 - f0, n1 - n0
	}
	g := int64(len(groups))

	if f, n := cost(&wire.StatRange{UUIDs: uuids, Ts: 0, Te: 1000}); f != g || n != 0 {
		t.Errorf("even StatRange cost %d sub-requests and %d StreamInfos, want %d and 0", f, n, g)
	}

	tc.createStream(t, "wave-short")
	tc.ingest(t, "wave-short", 4)
	uneven := append(append([]string(nil), uuids...), "wave-short")
	groups[router.Owner("wave-short")] = true
	g = int64(len(groups))
	want := 2*g + int64(len(uneven))
	for _, q := range []wire.Message{
		&wire.AggRange{UUIDs: uneven, Ts: 0, Te: 1000},
		&wire.StatRange{UUIDs: uneven, Ts: 0, Te: 1000},
	} {
		if f, n := cost(q); f != want || n != int64(len(uneven)) {
			t.Errorf("uneven %T cost %d sub-requests and %d StreamInfos, want %d and %d", q, f, n, want, len(uneven))
		}
	}
}
