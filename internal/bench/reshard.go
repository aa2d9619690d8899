package bench

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// ReshardResult is one phase's ingest latency distribution.
type ReshardResult struct {
	Phase   string
	Ingest  workload.Summary
	Inserts int
	Moved   int // streams migrated (grow phase only)
}

// Reshard measures what live resharding costs the ingest path: the same
// closed-loop multi-stream ingest runs against a 4-shard router in steady
// state and again while the ring grows to 5 shards — every migrating
// stream's chunks are copied, frozen briefly, and handed off under the
// load. The comparison isolates the migration tax: snapshot export/import
// sharing the engines with ingest, plus the per-stream freeze window
// (only writes to the migrating stream wait; the p99 across all streams
// bounds the blip a producer can see).
func Reshard(w io.Writer, opts Options) ([]ReshardResult, error) {
	streams := opts.scaled(24)
	if streams < 8 {
		streams = 8
	}
	baseChunks := opts.scaled(120)
	phaseChunks := opts.scaled(160)
	fmt.Fprintf(w, "Reshard: %d streams x %d base chunks; ingest p99 steady vs during 4->5 grow\n\n",
		streams, baseChunks)

	spec := chunk.DigestSpec{Sum: true, Count: true}
	specBytes, _ := spec.MarshalBinary()
	cfg := wire.StreamConfig{Epoch: 0, Interval: 100, VectorLen: uint32(spec.VectorLen()),
		Fanout: 64, DigestSpec: specBytes}

	shards := make([]cluster.Shard, 4)
	for i := range shards {
		engine, err := server.New(kv.NewMemStore(), server.Config{})
		if err != nil {
			return nil, err
		}
		shards[i] = cluster.Shard{Name: fmt.Sprintf("shard-%d", i), Handler: engine}
	}
	router, err := cluster.NewRouter(shards, cluster.Options{})
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	uuids := make([]string, streams)
	next := make([]uint64, streams)
	for i := range uuids {
		uuids[i] = fmt.Sprintf("reshard-%d", i)
		if resp := router.Handle(ctx, &wire.CreateStream{UUID: uuids[i], Cfg: cfg}); isWireErr(resp) {
			return nil, fmt.Errorf("create %s: %v", uuids[i], resp)
		}
	}
	// Pre-sealed chunk payloads are cheap to rebuild per index, so the
	// measured op is insert only.
	seal := func(idx uint64) []byte {
		start := int64(idx) * 100
		sealed, _ := chunk.SealPlain(spec, chunk.CompressionNone, idx, start, start+100,
			[]chunk.Point{{TS: start, Val: int64(idx%97 + 1)}})
		return chunk.MarshalSealed(sealed)
	}
	for i := range uuids {
		for c := 0; c < baseChunks; c++ {
			if resp := router.Handle(ctx, &wire.InsertChunk{UUID: uuids[i], Chunk: seal(uint64(c))}); isWireErr(resp) {
				return nil, fmt.Errorf("base ingest %s/%d: %v", uuids[i], c, resp)
			}
		}
		next[i] = uint64(baseChunks)
	}

	// Phase 1: steady state — phaseChunks round-robin passes over the
	// streams, one insert per stream per pass, per-op latency recorded.
	steadyRec := &workload.LatencyRecorder{}
	steadyInserts := 0
	for c := 0; c < phaseChunks; c++ {
		n, err := runPhaseInto(steadyRec, uuids, next, seal, router, nil)
		steadyInserts += n
		if err != nil {
			return nil, err
		}
	}
	steady := steadyRec.Summarize()

	// Phase 2: the same load while the ring grows 4 -> 5. The ingest loop
	// runs until the rebalance has finished and the phase has inserted at
	// least as many chunks as the steady phase, so a grow that finishes
	// fast still yields a sample the size of the steady one.
	fifthEngine, err := server.New(kv.NewMemStore(), server.Config{})
	if err != nil {
		return nil, err
	}
	newShards := make([]cluster.Shard, 0, 5)
	for _, name := range router.Shards() {
		newShards = append(newShards, cluster.Shard{Name: name})
	}
	newShards = append(newShards, cluster.Shard{Name: "shard-4", Handler: fifthEngine})

	done := make(chan struct{})
	var report *cluster.RebalanceReport
	var rerr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		report, rerr = router.Rebalance(ctx, newShards)
	}()
	growRec := &workload.LatencyRecorder{}
	growInserts := 0
	for stop := (<-chan struct{})(done); ; {
		n, err := runPhaseInto(growRec, uuids, next, seal, router, stop)
		growInserts += n
		if err != nil {
			wg.Wait()
			return nil, err
		}
		select {
		case <-done:
			stop = nil // the grow is over: each further pass runs whole
		default:
			continue
		}
		if growInserts >= steadyInserts {
			break
		}
	}
	wg.Wait()
	if rerr != nil {
		return nil, rerr
	}
	grow := growRec.Summarize()

	results := []ReshardResult{
		{Phase: "steady 4-shard", Ingest: steady, Inserts: steadyInserts},
		{Phase: "during 4->5 grow", Ingest: grow, Inserts: growInserts, Moved: len(report.Moved)},
	}
	t := &table{header: []string{"Phase", "Inserts", "Moved", "p50", "p99", "max"}}
	for _, r := range results {
		t.add(r.Phase, fmt.Sprintf("%d", r.Inserts), fmt.Sprintf("%d", r.Moved),
			fmtDur(r.Ingest.P50), fmtDur(r.Ingest.P99), fmtDur(r.Ingest.Max))
	}
	t.write(w)
	if steady.P99 > 0 {
		fmt.Fprintf(w, "\ningest p99 during migration: %.2fx steady state (%d streams moved live, zero held writes lost)\n",
			float64(grow.P99)/float64(steady.P99), len(report.Moved))
	}
	for _, r := range results {
		opts.record(Metric{Experiment: "reshard", Name: r.Phase + "/ingest",
			OpsPerSec: opsPerSec(r.Inserts, r.Ingest), P50Ms: ms(r.Ingest.P50), P99Ms: ms(r.Ingest.P99)})
	}
	return results, nil
}

// runPhaseInto is one ingest pass over the streams (one insert each),
// recording per-op latency into rec and stopping early when stop fires.
func runPhaseInto(rec *workload.LatencyRecorder, uuids []string, next []uint64,
	seal func(uint64) []byte, router *cluster.Router, stop <-chan struct{}) (int, error) {
	ctx := context.Background()
	inserts := 0
	for i := range uuids {
		select {
		case <-stop:
			return inserts, nil
		default:
		}
		payload := seal(next[i])
		t0 := time.Now()
		resp := router.Handle(ctx, &wire.InsertChunk{UUID: uuids[i], Chunk: payload})
		rec.Record(time.Since(t0))
		if isWireErr(resp) {
			return inserts, fmt.Errorf("insert %s/%d: %v", uuids[i], next[i], resp)
		}
		next[i]++
		inserts++
	}
	return inserts, nil
}

// opsPerSec derives throughput from a phase's latency sum (closed loop:
// one op in flight).
func opsPerSec(n int, s workload.Summary) float64 {
	if n == 0 || s.Mean <= 0 {
		return 0
	}
	return 1 / s.Mean.Seconds()
}

func isWireErr(m wire.Message) bool {
	_, bad := m.(*wire.Error)
	return bad
}
