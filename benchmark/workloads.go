package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
	"repro/internal/client"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Workload names are fixed; later issues refer to them.
const (
	wIngestMem  = "ingest-mem"
	wIngestRepl = "ingest-repl-durable"
	wQueryRange = "query-range"
	wMixed      = "mixed-fig7"
)

var workloadNames = []string{wIngestMem, wIngestRepl, wQueryRange, wMixed}

// mixedInsertsPerSec is the open-loop schedule of mixed-fig7: this many
// chunk inserts per second and four times as many StatRange queries, as
// Poisson arrivals. It is the largest round number not above 40 % of the
// deployment's closed-loop capacity on the 2-core reference box (measured
// once with -calibrate, see README.md) and is never tuned at run time.
const mixedInsertsPerSec = 1200

const queriesPerInsert = 4 // the paper's Fig. 7 read:write ratio

// sizing is everything about a workload's size that is not its definition.
// fullSize is the benchmark; the smoke test shrinks it.
type sizing struct {
	producers          int // client workers = connections; never more than 2
	streamsPerProducer int // closed-loop ingest workloads
	mixedStreamsPerCon int
	mixedPreload       int // chunks each stream of mixed-fig7 holds at the start
	queryStreams       int // preloaded streams of query-range
	queryChunks        int // chunks preloaded per stream
	cacheBytes         int64
	shards             int
	aggStreams         int
	aggWindow          uint64 // chunks per window of the cross-shard plan
	aggWidth           uint64 // chunks per plan (aggWidth/aggWindow windows)
	pointsChunks       uint64 // consecutive chunks a Points op retrieves
	subWindows         int    // the measured window is split; medians are reported
	mixedRate          float64
	// chunksPerStream, when > 0, ends closed-loop ingest after that many
	// chunks per stream instead of after a time: the smoke test's exact
	// counts need a fixed amount of work.
	chunksPerStream int
	setupBudget     time.Duration // repeat set-up until this much time is spent
	setupMin        int           // but at least this many times
	setupMax        int
}

var fullSize = sizing{
	producers:          2,
	streamsPerProducer: maxOpenWriters,
	mixedStreamsPerCon: 64,
	mixedPreload:       128,
	queryStreams:       16,
	queryChunks:        1024,
	cacheBytes:         48 << 10,
	shards:             4,
	aggStreams:         8,
	aggWindow:          64,
	aggWidth:           1024,
	pointsChunks:       4,
	subWindows:         15,
	mixedRate:          mixedInsertsPerSec,
	setupBudget:        2 * time.Second,
	setupMin:           3,
	setupMax:           31,
}

// maxOpenWriters is how many pipelined client.Writers a producer keeps open
// on its connection at a time, and maxOutstanding how many operations the
// open-loop generator keeps on a connection. Both keep a connection well
// under the 64 requests in flight that are the client session's window and
// the server's per-connection cap: a Writer has up to six batches on the wire
// (four queued for harvest, one being harvested, one just issued), so eight
// Writers have at most 48. At a full window the server sometimes refuses a
// request (CodeBusy, "connection has 64 requests in flight"), because it sends
// a response before it frees the request's slot and the client may reuse its
// own slot sooner; how much sooner grows with the load on the box. Sixteen
// Writers waiting for fsyncs keep the window full, and failed about one run
// in twenty that way. See README.md.
const (
	maxOpenWriters = 8
	maxOutstanding = 32
)

// readShare of the measured time of a write workload goes to the read-back
// phase that follows the write window (see README.md: every end-to-end
// metric is reported on every workload).
const readShare = 0.25

const streamEpoch = int64(1_700_000_000_000)

// config is one run's arguments.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	tmp      string // directory for data dirs and crash images
	size     sizing
	spans    string // traced runs: write the spans here
}

func (c *config) warmup() time.Duration {
	w := time.Duration(c.seconds * 0.1 * float64(time.Second))
	if w < 300*time.Millisecond {
		w = 300 * time.Millisecond
	}
	return w
}

func (c *config) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// stream is one owned stream plus the benchmark's plaintext reference for
// it: prefix[i] is the sum of the values of chunks [0, i), written by the
// stream's single producer and published through visible.
type stream struct {
	os   *client.OwnerStream
	tr   *timedTransport
	uuid string
	gen  workload.Generator

	prefix  []int64
	visible atomic.Uint64 // chunks acknowledged and safe to query

	// mixed-fig7: inserts of one stream are chained so they reach the
	// client in schedule order.
	turn chan struct{}
}

func (s *stream) chunkStart(i uint64, interval int64) int64 { return streamEpoch + int64(i)*interval }

// generate returns chunk i's points and extends the reference by them
// (producer side).
func (s *stream) generate(i uint64, interval int64) []chunk.Point {
	pts := s.gen.Chunk(i, streamEpoch, interval)
	var sum int64
	for _, p := range pts {
		sum += p.Val
	}
	if int(i)+1 < len(s.prefix) {
		s.prefix[i+1] = s.prefix[i] + sum
	} else {
		s.prefix = append(s.prefix, s.prefix[i]+sum)
	}
	return pts
}

// env is a built deployment with its clients and streams.
type env struct {
	cfg      *config
	dep      *deployment
	conns    []*timedTransport
	streams  []*stream
	interval int64
	ppc      int // points per chunk
}

// takeAcks returns and clears the ingest batches acknowledged so far on
// every connection.
func (e *env) takeAcks() []ackSample {
	var acks []ackSample
	for _, c := range e.conns {
		acks = append(acks, c.takeAcks()...)
	}
	return acks
}

func (e *env) close() {
	for _, c := range e.conns {
		c.Close()
	}
	if e.dep != nil {
		e.dep.close()
	}
}

// newGenerator returns a stream's generator and chunk interval (ms):
// query-range's streams are mHealth-shaped (500 points per 10 s chunk), the
// others DevOps-shaped (6 points per minute).
func newGenerator(w string, seed uint64) (workload.Generator, int64) {
	if w == wQueryRange {
		return workload.NewMHealth(seed), 10_000
	}
	return workload.NewDevOps(seed), 60_000
}

// setup builds the workload's deployment, dials the clients, creates the
// streams and (query-range, mixed-fig7) loads the data the workload starts
// from. Everything it does is counted in setup_s.
func setup(ctx context.Context, cfg *config, tr *tracer) (*env, error) {
	sz := cfg.size
	var dep *deployment
	var err error
	switch cfg.workload {
	case wIngestMem:
		dep, err = deploySingle(tr)
	case wIngestRepl:
		dep, err = deployReplicated(tr, cfg.tmp)
	case wQueryRange:
		dep, err = deploySharded(tr, sz.shards, sz.cacheBytes)
	case wMixed:
		dep, err = deploySharded(tr, sz.shards, 0)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	return attach(ctx, cfg, dep, tr)
}

// attach dials the clients of a built deployment, creates the workload's
// streams on it and loads the data the workload starts from. It closes the
// deployment if it fails.
func attach(ctx context.Context, cfg *config, dep *deployment, tr *tracer) (*env, error) {
	sz := cfg.size
	nStreams := sz.producers * sz.streamsPerProducer
	switch cfg.workload {
	case wQueryRange:
		nStreams = sz.queryStreams
	case wMixed:
		nStreams = sz.producers * sz.mixedStreamsPerCon
	}
	e := &env{cfg: cfg, dep: dep}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	for c := 0; c < sz.producers; c++ {
		tcp, err := client.DialTCP(dep.addr)
		if err != nil {
			return nil, err
		}
		e.conns = append(e.conns, newTimedTransport(tcp, tr, c))
	}
	perConn := nStreams / sz.producers
	for i := 0; i < nStreams; i++ {
		conn := e.conns[i/perConn]
		gen, interval := newGenerator(cfg.workload, cfg.seed*1_000_003+uint64(i))
		e.interval, e.ppc = interval, gen.PointsPerChunk()
		// Names do not depend on the seed: they decide which shard and
		// stripe a stream lands on, which is part of the workload's
		// definition, not of its data.
		uuid := fmt.Sprintf("%s-%03d", cfg.workload, i)
		// Product defaults: 19-element digest, zlib, fanout 64, height 30, AES PRG.
		os, err := client.NewOwner(conn).CreateStream(ctx, client.StreamOptions{
			UUID: uuid, Epoch: streamEpoch, Interval: interval,
		})
		if err != nil {
			return nil, fmt.Errorf("creating %s: %w", uuid, err)
		}
		e.streams = append(e.streams, &stream{os: os, tr: conn, uuid: uuid, gen: gen, prefix: make([]int64, 1, 64)})
	}
	switch cfg.workload {
	case wQueryRange:
		if err := e.ingestClosedLoop(ctx, ingestPlan{chunksPerStream: sz.queryChunks}); err != nil {
			return nil, err
		}
	case wMixed:
		// The store starts with mixedPreload chunks per stream, like a
		// server that has been running: every query has a range, and the
		// collector's marking — which the latency tail follows — takes as
		// long at the start of the window as at its end. The reference
		// has a fixed length because queries read it while inserts extend
		// it.
		capacity := sz.mixedPreload + 64 + int(4*cfg.seconds*sz.mixedRate)/nStreams
		for _, s := range e.streams {
			s.prefix = make([]int64, capacity)
			s.turn = make(chan struct{}, 1)
			s.turn <- struct{}{}
		}
		if err := e.ingestClosedLoop(ctx, ingestPlan{chunksPerStream: sz.mixedPreload}); err != nil {
			return nil, err
		}
	}
	ok = true
	return e, nil
}

// ingestPlan says when closed-loop producers stop: after chunksPerStream
// chunks per stream, or when stop is set.
type ingestPlan struct {
	chunksPerStream int
	stop            *atomic.Bool
	appendNS        *atomic.Int64 // traced runs: wall time inside Writer.AppendChunk
	appends         *atomic.Int64
}

// ingestClosedLoop runs one producer per connection. Each owns its
// connection's streams, has one pipelined client.Writer per stream (product
// defaults: 16 chunks per batch, 4 batches in flight) and appends one chunk
// to each in turn, so the only thing that paces it is backpressure. A
// producer with more than maxOpenWriters streams (a preload) takes them that
// many at a time. It returns after every writer has been closed, i.e. after
// the last acknowledgement.
func (e *env) ingestClosedLoop(ctx context.Context, plan ingestPlan) error {
	perConn := len(e.streams) / len(e.conns)
	if plan.chunksPerStream == 0 && perConn > maxOpenWriters {
		return fmt.Errorf("closed-loop ingest until stopped takes at most %d streams per producer, not %d", maxOpenWriters, perConn)
	}
	errs := make([]error, len(e.conns))
	var wg sync.WaitGroup
	for p := range e.conns {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			mine := e.streams[p*perConn : (p+1)*perConn]
			for len(mine) > 0 && errs[p] == nil {
				n := min(len(mine), maxOpenWriters)
				errs[p] = e.produce(ctx, plan, mine[:n])
				mine = mine[n:]
			}
		}(p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// produce appends to the given streams of one connection in turn until the
// plan says stop, then closes their writers.
func (e *env) produce(ctx context.Context, plan ingestPlan, mine []*stream) (err error) {
	writers := make([]*client.Writer, 0, len(mine))
	defer func() {
		for i, w := range writers {
			if cerr := w.Close(); cerr != nil && err == nil {
				err = cerr
			}
			mine[i].visible.Store(mine[i].os.Count())
		}
	}()
	next := make([]uint64, len(mine))
	for i, s := range mine {
		w, err := s.os.Writer(ctx, client.WriterOptions{})
		if err != nil {
			return err
		}
		writers = append(writers, w)
		next[i] = s.os.Count()
	}
	first := next[0]
	for {
		for i, s := range mine {
			if plan.stop != nil && plan.stop.Load() {
				return nil
			}
			pts := s.generate(next[i], e.interval)
			var t0 time.Time
			if plan.appendNS != nil {
				t0 = time.Now()
			}
			if err := writers[i].AppendChunk(pts); err != nil {
				return err
			}
			if plan.appendNS != nil {
				plan.appendNS.Add(int64(time.Since(t0)))
				plan.appends.Add(1)
			}
			next[i]++
		}
		if plan.chunksPerStream > 0 && int(next[0]-first) >= plan.chunksPerStream {
			return nil
		}
	}
}

// streamCount asks the server how many chunks it holds for a stream.
func streamCount(ctx context.Context, s *stream) (uint64, error) {
	resp, err := s.tr.RoundTrip(ctx, &wire.StreamInfo{UUID: s.uuid})
	if err != nil {
		return 0, err
	}
	info, ok := resp.(*wire.StreamInfoResp)
	if !ok {
		return 0, fmt.Errorf("stream info for %s: %v", s.uuid, resp)
	}
	return info.Count, nil
}
