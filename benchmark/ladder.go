package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/kv"
	"repro/internal/kv/durable"
	"repro/internal/server"
	"repro/internal/wire"
)

// ladderIters is how many times a ladder stage calls its layer (stages that
// wait for the disk run fewer).
const ladderIters = 20_000

// stage times n calls of fn on this goroutine alone and returns wall
// nanoseconds and allocated bytes per call.
func stage(n int, fn func(i int) error) (nsPerOp, bytesPerOp float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n), nil
}

// runLadder is the traced run's second half: the workload's own generated
// inputs replayed through one layer's public functions at a time, on a
// single goroutine, with nothing else running.
func runLadder(ctx context.Context, cfg *config, replicatedRate float64, res *result) error {
	m := res.metrics
	const batch = 16 // client.WriterOptions default BatchChunks
	gen, interval := newGenerator(cfg.workload, cfg.seed*1_000_003)
	ppc := gen.PointsPerChunk()
	spec := chunk.DefaultSpec()
	specBytes, err := spec.MarshalBinary()
	if err != nil {
		return err
	}
	streamCfg := wire.StreamConfig{Epoch: streamEpoch, Interval: interval,
		VectorLen: uint32(spec.VectorLen()), Fanout: index.DefaultFanout, DigestSpec: specBytes}
	// Stages that seal or open 500-point chunks cost ~100x a 6-point one;
	// keep every stage under about a second.
	iters := ladderIters
	if ppc > 100 {
		iters = ladderIters / 10
	}
	if cfg.size.chunksPerStream > 0 {
		iters = 512 // smoke test
	}

	// workload: the generator.
	var pts [][]chunk.Point
	if m["workload.gen_ns_per_chunk"], _, err = stage(iters, func(i int) error {
		pts = append(pts, gen.Chunk(uint64(i), streamEpoch, interval))
		return nil
	}); err != nil {
		return err
	}

	// core: what sealing a chunk asks of the key stream, and what
	// decrypting one query window asks of it.
	tree, err := core.GenerateTree(core.NewPRG(core.PRGAES), core.DefaultTreeHeight)
	if err != nil {
		return err
	}
	enc := core.NewEncryptor(tree.NewWalker())
	digest := spec.Compute(pts[0], nil)
	scratch := make([]uint64, len(digest))
	if m["core.keystream_ns_per_chunk"], _, err = stage(iters, func(i int) error {
		if _, err := enc.EncryptDigest(uint64(i), digest, scratch); err != nil {
			return err
		}
		_, err := enc.ChunkKeyAt(uint64(i))
		return err
	}); err != nil {
		return err
	}
	elems, err := spec.ElemsFor(chunk.NewStatSet(chunk.StatSum, chunk.StatMean))
	if err != nil {
		return err
	}
	dec := core.NewEncryptor(tree.NewWalker())
	rng := rand.New(rand.NewPCG(cfg.seed, 0x1ADD))
	length := uint64(cfg.size.queryChunks)
	window := make([]uint64, len(elems))
	if m["core.decrypt_ns_per_window"], _, err = stage(iters, func(int) error {
		lo := rng.Uint64N(length)
		hi := lo + 1 + rng.Uint64N(length-lo)
		_, err := dec.DecryptRangeElems(lo, hi, elems, window, window)
		return err
	}); err != nil {
		return err
	}

	// chunk: seal and open.
	enc = core.NewEncryptor(tree.NewWalker())
	sealed := make([][]byte, iters)
	var sealedBytes int
	if m["chunk.seal_ns_per_chunk"], m["chunk.seal_alloc_bytes_per_chunk"], err = stage(iters, func(i int) error {
		start := streamEpoch + int64(i)*interval
		s, err := chunk.Seal(enc, spec, chunk.CompressionZlib, uint64(i), start, start+interval, pts[i])
		if err != nil {
			return err
		}
		sealed[i] = chunk.MarshalSealed(s)
		sealedBytes += len(sealed[i])
		return nil
	}); err != nil {
		return err
	}
	m["chunk.sealed_bytes_per_chunk"] = float64(sealedBytes) / float64(iters)
	walker := tree.NewWalker()
	if m["chunk.open_ns_per_chunk"], _, err = stage(iters, func(i int) error {
		s, err := chunk.UnmarshalSealed(sealed[i])
		if err != nil {
			return err
		}
		_, err = chunk.Open(walker, s)
		return err
	}); err != nil {
		return err
	}

	// wire: one 16-insert Batch request, framed and parsed.
	batches := iters / batch
	requests := make([]*wire.Batch, batches)
	for b := range requests {
		reqs := make([]wire.Message, batch)
		for i := range reqs {
			reqs[i] = &wire.InsertChunk{UUID: "ladder", Chunk: sealed[b*batch+i]}
		}
		requests[b] = &wire.Batch{Reqs: reqs}
	}
	var framed bytes.Buffer
	framed.Grow(sealedBytes + iters*32)
	if m["wire.encode_ns_per_batch"], _, err = stage(batches, func(b int) error {
		return wire.WriteRequest(&framed, uint64(b+1), 60_000, requests[b])
	}); err != nil {
		return err
	}
	m["wire.bytes_per_chunk"] = float64(framed.Len()) / float64(batches*batch)
	reader := bufio.NewReaderSize(bytes.NewReader(framed.Bytes()), 64<<10)
	if m["wire.decode_ns_per_batch"], _, err = stage(batches, func(int) error {
		fb, err := wire.ReadFrameBuf(reader)
		if err != nil {
			return err
		}
		_, _, _, _, err = wire.DecodeRequest(fb.Bytes())
		fb.Release()
		return err
	}); err != nil {
		return err
	}

	// kv: the in-memory store's batch path, with the engine's key and
	// value sizes.
	mem := kv.NewMemStore()
	ops := make([]kv.Op, batch)
	if m["kv.batch_ns_per_op"], _, err = stage(batches, func(b int) error {
		for i := range ops {
			ops[i] = kv.Op{Kind: kv.OpPut, Key: fmt.Sprintf("c/ladder/%016x", b*batch+i), Value: sealed[b*batch+i]}
		}
		return mem.Batch(ops)
	}); err != nil {
		return err
	}
	m["kv.batch_ns_per_op"] /= batch

	// index: append in batches of 16, then query at the workload's stream
	// length under the workload's cache budget.
	digests := make([][]uint64, iters)
	for i := range digests {
		s, err := chunk.UnmarshalSealed(sealed[i])
		if err != nil {
			return err
		}
		digests[i] = s.Digest
	}
	cache := int64(0)
	if cfg.workload == wQueryRange {
		cache = cfg.size.cacheBytes
	}
	idx, err := index.Open(kv.NewMemStore(), "ladder", index.Config{VectorLen: spec.VectorLen(), CacheBytes: cache})
	if err != nil {
		return err
	}
	if m["index.append_ns_per_chunk"], _, err = stage(batches, func(b int) error {
		return idx.AppendBatch(uint64(b*batch), digests[b*batch:(b+1)*batch])
	}); err != nil {
		return err
	}
	m["index.append_ns_per_chunk"] /= batch
	if have := uint64(batches * batch); length > have {
		length = have
	}
	hits0, misses0, _, _ := idx.CacheStats()
	if m["index.query_ns"], _, err = stage(iters, func(int) error {
		lo := rng.Uint64N(length)
		_, err := idx.Query(lo, lo+1+rng.Uint64N(length-lo))
		return err
	}); err != nil {
		return err
	}
	hits, misses, _, _ := idx.CacheStats()
	m["index.cache_hit_ratio"] = ratio(float64(hits-hits0), float64(hits-hits0+misses-misses0))

	// server: the engine's batched insert on a MemStore, and the
	// cross-stream windowed aggregate.
	store := kv.NewMemStore()
	engine, err := server.New(store, server.Config{CacheBytes: cache})
	if err != nil {
		return err
	}
	if err := engine.CreateStream("ladder", streamCfg); err != nil {
		return err
	}
	blobs := make([][]byte, batch)
	if m["server.insert_ns_per_chunk"], m["server.insert_alloc_bytes_per_chunk"], err = stage(batches, func(b int) error {
		copy(blobs, sealed[b*batch:(b+1)*batch])
		for _, err := range engine.InsertChunkBatch("ladder", blobs) {
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["server.insert_ns_per_chunk"] /= batch
	m["server.insert_alloc_bytes_per_chunk"] /= batch
	m["kv.puts_per_chunk"] = float64(store.Stats().Puts) / float64(batches*batch)

	// The aggregate needs aggStreams streams of aggWidth chunks; their
	// digests may repeat, the index does not care.
	sz := cfg.size
	width := sz.aggWidth
	if have := uint64(batches * batch); width > have {
		width = have / sz.aggWindow * sz.aggWindow
	}
	if width > 0 {
		uuids := make([]string, sz.aggStreams)
		for s := range uuids {
			uuids[s] = fmt.Sprintf("agg-%d", s)
			if err := engine.CreateStream(uuids[s], streamCfg); err != nil {
				return err
			}
			for b := 0; b < int(width)/batch; b++ {
				for _, err := range engine.InsertChunkBatch(uuids[s], sealed[b*batch:(b+1)*batch]) {
					if err != nil {
						return err
					}
				}
			}
		}
		aggIters := iters / 100
		if aggIters < 20 {
			aggIters = 20
		}
		ns, _, err := stage(aggIters, func(int) error {
			_, err := engine.AggRange(ctx, uuids, streamEpoch, streamEpoch+int64(width)*interval, sz.aggWindow, elems)
			return err
		})
		if err != nil {
			return err
		}
		m["server.aggrange_us"] = ns / 1e3
	}

	if cfg.workload != wIngestRepl {
		return nil
	}

	// durable: one writer, one batch per commit: this box's raw fsync.
	dir, err := os.MkdirTemp(cfg.tmp, "ladder-")
	if err != nil {
		return err
	}
	st, err := durable.Open(dir, durable.Options{Sync: durable.SyncAlways})
	if err != nil {
		return err
	}
	syncs := 200
	if cfg.size.chunksPerStream > 0 {
		syncs = 10
	}
	ns, _, err := stage(syncs, func(b int) error {
		for i := range ops {
			ops[i] = kv.Op{Kind: kv.OpPut, Key: fmt.Sprintf("c/ladder/%016x", b*batch+i), Value: sealed[(b*batch+i)%len(sealed)]}
		}
		return st.Batch(ops)
	})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m["durable.batch_ns_per_op"] = ns / batch

	// replica: the same producers against one un-replicated durable
	// engine, closed loop; its rate over this workload's rate is the
	// replication tax.
	return replicaTax(ctx, cfg, replicatedRate, res)
}

// replicaTax measures replica.tax_ratio's numerator, the ingest rate without
// replication, and divides it by the replicated deployment's untraced rate.
func replicaTax(ctx context.Context, cfg *config, replicatedRate float64, res *result) error {
	single := *cfg
	single.workload = wIngestMem // same streams, same shape
	dep, err := deployDurableSingle(cfg.tmp)
	if err != nil {
		return err
	}
	e, err := attach(ctx, &single, dep, nil)
	if err != nil {
		return err
	}
	defer e.close()
	plan := ingestPlan{stop: new(atomic.Bool), chunksPerStream: cfg.size.chunksPerStream}
	done := make(chan error, 1)
	go func() { done <- e.ingestClosedLoop(ctx, plan) }()
	var seg segment
	if plan.chunksPerStream == 0 {
		time.Sleep(cfg.warmup())
		seg.start = time.Now()
		time.Sleep(cfg.dur(0.3))
		seg.end = time.Now()
		plan.stop.Store(true)
	} else {
		seg.start = time.Now()
	}
	if err := <-done; err != nil {
		return err
	}
	if plan.chunksPerStream > 0 {
		seg.end = time.Now()
	}
	unreplicated := summarize(goodAcks(e.takeAcks()), seg.start, seg.end, 1).perS
	res.metrics["replica.tax_ratio"] = ratio(unreplicated, replicatedRate)
	return nil
}
