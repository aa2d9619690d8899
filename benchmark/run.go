package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/kv/durable"
	"repro/internal/wire"
)

// workloadDeadline fails a run instead of letting it hang.
const workloadDeadline = 150 * time.Second

// result is what one run reports.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // why the run is not correct, if it is not
	notes     []string // what a reader should know about the numbers
}

func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	r.problem(fmt.Errorf(format, args...))
}

func (r *result) problem(err error) {
	if err != nil && len(r.problems) < 8 {
		r.problems = append(r.problems, err.Error())
	}
}

// counters are the public counters of the deployment, the runtime and the
// benchmark's decorators, read at a segment's edges.
type counters struct {
	mem      runtime.MemStats
	kvGets   uint64
	durable  durable.Stats // the leader's store
	walBytes int64
	shards   []cluster.ShardStats
	idxGets  uint64 // index-node gets that reached a store
	inflSum  uint64
	inflN    uint64
	appendNS int64
	appends  int64
}

func (e *env) readCounters(plan *ingestPlan) counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	d := e.dep
	if d.mem != nil {
		c.kvGets = d.mem.Stats().Gets
	}
	if len(d.stores) > 0 {
		c.kvGets = d.stores[0].MemStats().Gets
		c.durable = d.stores[0].Stats()
		c.walBytes, _ = dirBytes(d.dirs[0])
	}
	if d.router != nil {
		c.shards = d.router.Stats()
	}
	for _, ts := range d.tstores {
		c.idxGets += ts.indexGets.Load()
	}
	for _, conn := range e.conns {
		s, n := conn.inflightTotals()
		c.inflSum += s
		c.inflN += n
	}
	if plan != nil && plan.appendNS != nil {
		c.appendNS, c.appends = plan.appendNS.Load(), plan.appends.Load()
	}
	return c
}

// segment is one stretch of load, measured on its own.
type segment struct {
	d      time.Duration
	traced bool

	start, end    time.Time
	before, after counters
}

func (s *segment) seconds() float64 { return s.end.Sub(s.start).Seconds() }

// measure runs load for the segment's duration with the tracer switched as
// the segment says, reading the counters before and after.
func (e *env) measure(s *segment, tr *tracer, plan *ingestPlan, load func(d time.Duration)) {
	if tr != nil {
		tr.on.Store(s.traced)
	}
	s.before, s.start = e.readCounters(plan), time.Now()
	load(s.d)
	s.end, s.after = time.Now(), e.readCounters(plan)
	if tr != nil {
		tr.on.Store(false)
	}
}

// mainSegments lays out the main load. An untraced run has one segment. A
// traced run alternates short untraced and traced stretches as U T T U,
// three times over: ingest speeds up as the heap grows, and in this order
// the drift weighs on both kinds alike, so trace.overhead_ratio compares
// like with like.
func mainSegments(cfg *config) []*segment {
	if !cfg.traced {
		share := 1 - readShare
		if cfg.workload == wQueryRange {
			share = 1
		}
		return []*segment{{d: cfg.dur(share)}}
	}
	var segs []*segment
	for i := 0; i < 12; i++ {
		segs = append(segs, &segment{d: cfg.dur(0.7 / 12), traced: i%4 == 1 || i%4 == 2})
	}
	return segs
}

// minLatencySamples is how many samples a sub-window needs before its p99
// means something (ten of them lie beyond it).
const minLatencySamples = 1000

// timed is one successful operation for the window statistics: when it
// completed, how long it took, and how many units of work it carried (the
// chunks of an ingest batch; 1 otherwise).
type timed struct {
	at time.Time
	ms float64
	n  int
}

func goodAcks(acks []ackSample) []timed {
	out := make([]timed, 0, len(acks))
	for _, a := range acks {
		if !a.failed {
			out = append(out, timed{at: a.at, ms: float64(a.latency) / 1e6, n: a.chunks})
		}
	}
	return out
}

func goodOps(ops []opSample, kinds ...opKind) []timed {
	var out []timed
	for _, s := range ops {
		for _, k := range kinds {
			if s.kind == k && !s.failed {
				out = append(out, timed{at: s.at, ms: float64(s.latency) / 1e6, n: 1})
			}
		}
	}
	return out
}

// subWindowMedian splits [start, end) into k sub-windows, evaluates f on
// the samples of each, and returns the median of the k values.
func subWindowMedian(samples []timed, start, end time.Time, k int, f func(in []timed, seconds float64) float64) float64 {
	if k < 1 {
		k = 1
	}
	buckets := make([][]timed, k)
	width := end.Sub(start)
	for _, s := range samples {
		if s.at.Before(start) || !s.at.Before(end) {
			continue
		}
		i := int(int64(k) * int64(s.at.Sub(start)) / int64(width))
		buckets[i] = append(buckets[i], s)
	}
	vals := make([]float64, 0, k)
	for _, b := range buckets {
		// A sub-window without samples has a rate (0) but no latency.
		if v := f(b, width.Seconds()/float64(k)); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	return median(vals)
}

func latencyQuantile(p float64) func([]timed, float64) float64 {
	return func(in []timed, _ float64) float64 {
		ms := make([]float64, len(in))
		for i, s := range in {
			ms[i] = s.ms
		}
		return quantiles(ms, p)[0]
	}
}

// windowStats is a window's throughput and latency, each the median over the
// window's sub-windows, with the counts behind them.
type windowStats struct {
	perS, p50, p99 float64
	units, samples int // work done (chunks, operations) and timed samples (batches, operations)
}

// summarize takes throughput over k sub-windows of [start, end) and the
// latency percentiles over as many of them as leave each minLatencySamples
// samples (at least one: the whole window).
func summarize(samples []timed, start, end time.Time, k int) windowStats {
	var out windowStats
	for _, s := range samples {
		if !s.at.Before(start) && s.at.Before(end) {
			out.units += s.n
			out.samples++
		}
	}
	out.perS = subWindowMedian(samples, start, end, k, func(in []timed, sec float64) float64 {
		n := 0
		for _, s := range in {
			n += s.n
		}
		return float64(n) / sec
	})
	if n := out.samples / minLatencySamples; n < k {
		k = n
	}
	out.p50 = subWindowMedian(samples, start, end, k, latencyQuantile(0.5))
	out.p99 = subWindowMedian(samples, start, end, k, latencyQuantile(0.99))
	return out
}

// liveHeap is HeapAlloc after two forced collections, without the ballast.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) - float64(len(gcBallast))
}

// observed is what a run saw, before it is turned into metrics.
type observed struct {
	cfg      *config
	e        *env
	segs     []*segment // the main load
	readback *segment   // write workloads: the read-back phase
	acks     []ackSample
	ops      []opSample
	preloads []windowStats // query-range: one per set-up
	resident uint64        // chunks the deployment holds
	heap     float64
	stored   int64
}

// runWorkload is one whole run: repeated set-up, warm-up, the measured
// window(s), the oracle, and (traced) the per-layer numbers.
func runWorkload(parent context.Context, cfg *config) (*result, error) {
	ctx, cancel := context.WithTimeout(parent, workloadDeadline)
	defer cancel()
	res := &result{metrics: map[string]float64{}}
	sz := cfg.size
	ob := &observed{cfg: cfg}

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}

	// Set-up, several times: the median is steadier than one sample. The
	// last deployment built is the one measured.
	var setups []float64
	var spent time.Duration
	for rep := 0; rep < sz.setupMax; rep++ {
		if ob.e != nil {
			ob.e.close()
		}
		t0 := time.Now()
		e, err := setup(ctx, cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		ob.e = e
		setups = append(setups, took.Seconds())
		// What the set-up ingested (query-range's preload is that
		// workload's ingest) is summarized over the set-up itself.
		if preload := goodAcks(e.takeAcks()); cfg.workload == wQueryRange {
			ob.preloads = append(ob.preloads, summarize(preload, t0, t0.Add(took), 1))
		}
		spent += took
		if cfg.traced || rep+1 >= sz.setupMin && spent >= sz.setupBudget {
			break
		}
	}
	e := ob.e
	defer e.close()
	res.metrics["setup_s"] = median(setups)

	// The main load.
	ob.segs = mainSegments(cfg)
	switch cfg.workload {
	case wIngestMem, wIngestRepl:
		plan := ingestPlan{stop: new(atomic.Bool), chunksPerStream: sz.chunksPerStream}
		if cfg.traced {
			plan.appendNS, plan.appends = new(atomic.Int64), new(atomic.Int64)
		}
		done := make(chan error, 1)
		go func() { done <- e.ingestClosedLoop(ctx, plan) }()
		var err error
		if sz.chunksPerStream > 0 {
			// A fixed amount of work: one segment, as long as it takes.
			ob.segs = []*segment{{traced: cfg.traced}}
			e.measure(ob.segs[0], tr, &plan, func(time.Duration) { err = <-done })
		} else {
			time.Sleep(cfg.warmup())
			for _, s := range ob.segs {
				e.measure(s, tr, &plan, time.Sleep)
			}
			plan.stop.Store(true)
			err = <-done // returns after the last acknowledgement
		}
		if err != nil {
			res.fail(1, "ingest: %v", err)
		}
		ob.acks = e.takeAcks()
	case wQueryRange:
		limit := e.minVisible()
		e.runAnalysts(ctx, cfg.warmup(), limit)
		for _, s := range ob.segs {
			e.measure(s, tr, nil, func(d time.Duration) {
				log := e.runAnalysts(ctx, d, limit)
				ob.ops = append(ob.ops, log.samples...)
				res.problem(log.firstErr)
			})
		}
	case wMixed:
		e.runOpenLoop(ctx, cfg.warmup())
		var lag []float64
		for _, s := range ob.segs {
			e.measure(s, tr, nil, func(d time.Duration) {
				log, lagMS, unfinished := e.runOpenLoop(ctx, d)
				ob.ops = append(ob.ops, log.samples...)
				lag = append(lag, lagMS...)
				res.problem(log.firstErr)
				if unfinished > 0 {
					res.fail(unfinished, "%d open-loop operations unfinished %s after the window", unfinished, lateGrace)
				}
			})
			// Operations that finish late belong to no window.
			s.end = s.start.Add(s.d)
		}
		lagP99 := quantiles(lag, 0.99)[0]
		res.metrics["workload.sched_lag_p99_ms"] = lagP99
		if lagP99 >= schedLagLimitMS {
			res.notes = append(res.notes, fmt.Sprintf("INVALID as an open-loop measurement: the generator issued operations %.2f ms late at p99 (limit %g ms); the latencies include that wait",
				lagP99, float64(schedLagLimitMS)))
		}
	}

	// The crash image is taken now: the last acknowledgement has arrived
	// and nothing has been closed.
	var img *crashImages
	if cfg.workload == wIngestRepl {
		var err error
		if img, err = e.takeCrashImages(ctx); err != nil {
			res.fail(1, "crash image: %v", err)
		}
	}

	// The oracle's check of the write side.
	if cfg.workload != wQueryRange {
		checks, failed, err := e.verifyIngest(ctx)
		res.attempted += checks
		if failed > 0 {
			res.fail(failed, "after ingest: %v", err)
		}
	}
	if img != nil {
		reopen, err := img.verify(ctx, e)
		res.attempted++
		if err != nil {
			res.fail(1, "crash image: %v", err)
		}
		res.metrics["durable.reopen_s"] = reopen
	}
	if e.dep.group != nil {
		res.attempted++
		if err := e.checkGroupSteady(res); err != nil {
			res.fail(1, "%v", err)
		}
	}

	for _, s := range e.streams {
		ob.resident += s.visible.Load()
	}
	ob.heap = liveHeap()
	var err error
	if ob.stored, err = e.dep.storedBytes(); err != nil {
		return nil, err
	}

	// The read-back phase of a write workload: the analysts' mix over what
	// was just ingested.
	if cfg.workload != wQueryRange {
		limit := e.minVisible()
		if limit == 0 {
			return nil, errors.New("a stream holds no chunk after the write window")
		}
		ob.readback = &segment{d: cfg.dur(readShare), traced: cfg.traced}
		e.measure(ob.readback, tr, nil, func(d time.Duration) {
			log := e.runAnalysts(ctx, d, limit)
			ob.ops = append(ob.ops, log.samples...)
			res.problem(log.firstErr)
		})
	}

	for _, a := range ob.acks {
		res.attempted += a.chunks
		if a.failed {
			res.failed += a.chunks
		}
	}
	res.attempted += len(ob.ops)
	for _, s := range ob.ops {
		if s.failed {
			res.failed++
		}
	}

	if !cfg.traced {
		ob.endToEnd(res)
		return res, nil
	}
	spans := tr.take()
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, spans); err != nil {
			return nil, err
		}
	}
	replicated := ob.layers(res, spans)
	if err := runLadder(ctx, cfg, replicated, res); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	finishLayers(res)
	return res, nil
}

// schedLagLimitMS is how late (p99) the open-loop generator may issue
// operations before the run stops counting as an open-loop measurement. The
// generator shares two cores and one collector with the system it loads: a
// mark phase holds up both, and on the reference box the lag is 3 ms at p99
// (README.md). The limit flags a box too busy to keep the schedule at all.
const schedLagLimitMS = 5

// windows summarizes what the run's load phases completed: the write side
// (in), single-stream StatRange (stat), all reads together, the cross-shard
// plans and the raw retrievals. README.md says which phase of each workload
// a number comes from. A traced run's main load is summarized from its first
// segment's start to its last one's end.
func (ob *observed) windows() (in, stat, reads, agg, points windowStats) {
	cfg := ob.cfg
	k := cfg.size.subWindows
	start, end := ob.segs[0].start, ob.segs[len(ob.segs)-1].end
	read := &segment{start: start, end: end} // where the analysts' mix ran
	switch cfg.workload {
	case wIngestMem, wIngestRepl:
		in = summarize(goodAcks(ob.acks), start, end, k)
		read = ob.readback
	case wQueryRange:
		// The preload is this workload's ingest: medians over the set-ups.
		var r, a, b []float64
		for _, p := range ob.preloads {
			r, a, b = append(r, p.perS), append(a, p.p50), append(b, p.p99)
		}
		in = ob.preloads[len(ob.preloads)-1]
		in.perS, in.p50, in.p99 = median(r), median(a), median(b)
	case wMixed:
		in = summarize(goodOps(ob.ops, opInsert), start, end, k)
		read = ob.readback
	}
	readK := k
	if read == ob.readback {
		readK = k / 3 // the read-back phase is a third as long as the write window
	}
	stat = summarize(goodOps(ob.ops, opStat), read.start, read.end, readK)
	reads = summarize(goodOps(ob.ops, opStat, opAgg, opPoints), read.start, read.end, readK)
	if cfg.workload == wMixed {
		stat = summarize(goodOps(ob.ops, opStat), start, end, k)
		reads = stat
	}
	agg = summarize(goodOps(ob.ops, opAgg), read.start, read.end, readK)
	points = summarize(goodOps(ob.ops, opPoints), read.start, read.end, readK)
	return in, stat, reads, agg, points
}

// endToEnd turns an untraced run into the end-to-end metrics. Every workload
// reports every metric.
func (ob *observed) endToEnd(res *result) {
	in, stat, reads, agg, points := ob.windows()
	m := res.metrics
	m["ingest_chunks_per_s"] = in.perS
	m["ingest_ack_p50_ms"] = in.p50
	m["query_per_s"] = reads.perS
	m["query_p50_ms"] = stat.p50
	m["agg_p50_ms"] = agg.p50
	m["points_p50_ms"] = points.p50
	m["stored_bytes_per_user_byte"] = float64(ob.stored) / (16 * float64(ob.resident) * float64(ob.e.ppc))
	m["live_heap_bytes_per_chunk"] = ob.heap / float64(ob.resident)
	res.notes = append(res.notes, fmt.Sprintf(
		"samples inside the windows: %d chunks in %d acknowledged batches; %d StatRange, %d plans, %d retrievals; %d chunks resident; tails: ack p99 %.4g ms, StatRange p99 %.4g ms",
		in.units, in.samples, stat.samples, agg.samples, points.samples, ob.resident, in.p99, stat.p99))
}

// checkGroupSteady makes sure the replication group is the one the run
// started with — no promotion, no epoch change — and that every follower
// has caught up with the leader.
func (e *env) checkGroupSteady(res *result) error {
	d := e.dep
	role, leaderEpoch, leaderWM := d.nodes[0].Status()
	addr, epoch := d.group.Leader()
	if role != wire.ReplLeader || leaderEpoch != 1 || epoch != 1 {
		return fmt.Errorf("replication group changed during the run (leader %s, role %d, epoch %d/%d): run invalid", addr, role, leaderEpoch, epoch)
	}
	// A quorum write is acknowledged once two of three members hold it;
	// give the third a moment to apply what it was already sent.
	var lag uint64
	for wait := 0; wait < 400; wait++ {
		lag = 0
		for _, n := range d.nodes[1:] {
			if _, _, wm := n.Status(); leaderWM > wm && leaderWM-wm > lag {
				lag = leaderWM - wm
			}
		}
		if lag == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	res.metrics["replica.watermark_lag_end"] = float64(lag)
	if lag != 0 {
		return fmt.Errorf("a follower is %d records behind the leader after the drain", lag)
	}
	return nil
}

// tmpRoot makes the run's scratch directory inside the working directory
// (the checkout): data directories and crash images go there.
func tmpRoot() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}
