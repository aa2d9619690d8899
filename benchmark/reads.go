package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
)

// opKind names what a timed operation was.
type opKind uint8

const (
	opStat   opKind = iota // OwnerStream.StatRange, one stream, one range
	opAgg                  // cross-shard windowed plan over aggStreams streams
	opPoints               // OwnerStream.Points over pointsChunks chunks
	opInsert               // mixed-fig7: synchronous OwnerStream.AppendChunk
	nOpKinds
)

// opSample is one completed operation. In an open loop latency runs from
// the moment the operation was due, not from when it was issued.
type opSample struct {
	kind    opKind
	at      time.Time // completion
	latency time.Duration
	failed  bool
}

// oracle checks decrypted answers against the plaintext reference.
type oracle struct {
	e *env
}

func (o oracle) checkStat(s *stream, a, b uint64, got client.StatResult) error {
	wantSum := s.prefix[b] - s.prefix[a]
	wantCount := (b - a) * uint64(o.e.ppc)
	if got.FromChunk != a || got.ToChunk != b {
		return fmt.Errorf("%s: asked chunks [%d,%d), answered [%d,%d)", s.uuid, a, b, got.FromChunk, got.ToChunk)
	}
	if got.Sum != wantSum || got.Count != wantCount {
		return fmt.Errorf("%s [%d,%d): sum %d count %d, reference %d and %d", s.uuid, a, b, got.Sum, got.Count, wantSum, wantCount)
	}
	if wantMean := float64(wantSum) / float64(wantCount); math.Abs(got.Mean-wantMean) > 1e-9*math.Max(1, math.Abs(wantMean)) {
		return fmt.Errorf("%s [%d,%d): mean %g, reference %g", s.uuid, a, b, got.Mean, wantMean)
	}
	return nil
}

// statRange runs and checks one single-stream statistical query.
func (o oracle) statRange(ctx context.Context, s *stream, a, b uint64) error {
	got, err := s.os.StatRange(ctx, s.chunkStart(a, o.e.interval), s.chunkStart(b, o.e.interval))
	if err != nil {
		return err
	}
	return o.checkStat(s, a, b, got)
}

// aggregate runs and checks one cross-shard windowed plan: every window's
// sum, count and mean over all member streams.
func (o oracle) aggregate(ctx context.Context, members []*stream, a, b, window uint64) error {
	anchor := members[0]
	others := make([]client.Queryable, len(members)-1)
	for i, m := range members[1:] {
		others[i] = m.os
	}
	aggs, err := anchor.os.Query().Streams(others...).
		Range(anchor.chunkStart(a, o.e.interval), anchor.chunkStart(b, o.e.interval)).
		Window(window).Stats(client.Sum, client.Mean).Aggs(ctx)
	if err != nil {
		return err
	}
	if want := int((b - a) / window); len(aggs) != want {
		return fmt.Errorf("plan over [%d,%d): %d windows, expected %d", a, b, len(aggs), want)
	}
	for w, agg := range aggs {
		lo := a + uint64(w)*window
		var wantSum int64
		for _, m := range members {
			wantSum += m.prefix[lo+window] - m.prefix[lo]
		}
		wantCount := window * uint64(o.e.ppc) * uint64(len(members))
		if agg.Sum() != wantSum || agg.Count() != wantCount {
			return fmt.Errorf("plan window %d: sum %d count %d, reference %d and %d", w, agg.Sum(), agg.Count(), wantSum, wantCount)
		}
		if wantMean := float64(wantSum) / float64(wantCount); math.Abs(agg.Mean()-wantMean) > 1e-9*math.Max(1, math.Abs(wantMean)) {
			return fmt.Errorf("plan window %d: mean %g, reference %g", w, agg.Mean(), wantMean)
		}
	}
	return nil
}

// points runs and checks one raw retrieval: every point of every chunk.
func (o oracle) points(ctx context.Context, s *stream, a, b uint64) (func() error, error) {
	got, err := s.os.Points(ctx, s.chunkStart(a, o.e.interval), s.chunkStart(b, o.e.interval))
	if err != nil {
		return nil, err
	}
	return func() error {
		i := 0
		for c := a; c < b; c++ {
			for _, want := range s.gen.Chunk(c, streamEpoch, o.e.interval) {
				if i >= len(got) || got[i] != want {
					return fmt.Errorf("%s chunk %d: point %d differs from the reference", s.uuid, c, i)
				}
				i++
			}
		}
		if i != len(got) {
			return fmt.Errorf("%s [%d,%d): %d points, reference has %d", s.uuid, a, b, len(got), i)
		}
		return nil
	}, nil
}

// opLog collects samples from concurrent workers.
type opLog struct {
	mu       sync.Mutex
	samples  []opSample
	firstErr error
}

func (l *opLog) add(s opSample, err error) {
	noteBusy(err)
	l.mu.Lock()
	l.samples = append(l.samples, s)
	if err != nil && l.firstErr == nil {
		l.firstErr = err
	}
	l.mu.Unlock()
}

// runAnalysts is the closed-loop read load: one analyst per connection, each
// issuing its next operation when the previous one has been answered and
// checked. The mix is drawn from the seed: 70 % StatRange over a uniformly
// random chunk-aligned range of a random stream, 20 % cross-shard windowed
// plan, 10 % raw retrieval. Ranges lie inside the first limit chunks, which
// every stream holds.
func (e *env) runAnalysts(ctx context.Context, d time.Duration, limit uint64) *opLog {
	sz := e.cfg.size
	log := &opLog{}
	o := oracle{e}
	aggWidth := sz.aggWidth
	if max := limit / sz.aggWindow * sz.aggWindow; aggWidth > max {
		aggWidth = max
	}
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for a := range e.conns {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(e.cfg.seed, 0xA11A+uint64(a)))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				draw := rng.Float64()
				s := e.streams[rng.IntN(len(e.streams))]
				var kind opKind
				var err error
				start := time.Now()
				var end time.Time
				switch {
				case draw < 0.7 || (draw < 0.9 && aggWidth == 0):
					kind = opStat
					lo := uint64(rng.Uint64N(limit))
					hi := lo + 1 + rng.Uint64N(limit-lo)
					err = o.statRange(ctx, s, lo, hi)
					end = time.Now()
				case draw < 0.9:
					kind = opAgg
					first := rng.IntN(len(e.streams))
					members := make([]*stream, sz.aggStreams)
					for i := range members {
						members[i] = e.streams[(first+i)%len(e.streams)]
					}
					lo := sz.aggWindow * rng.Uint64N((limit-aggWidth)/sz.aggWindow+1)
					err = o.aggregate(ctx, members, lo, lo+aggWidth, sz.aggWindow)
					end = time.Now()
				default:
					kind = opPoints
					n := sz.pointsChunks
					if n > limit {
						n = limit
					}
					lo := rng.Uint64N(limit - n + 1)
					var check func() error
					check, err = o.points(ctx, s, lo, lo+n)
					end = time.Now()
					if err == nil {
						err = check()
					}
				}
				log.add(opSample{kind: kind, at: end, latency: end.Sub(start), failed: err != nil}, err)
			}
		}(a)
	}
	wg.Wait()
	return log
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep parks
// the goroutine on the runtime's timers, which an idle scheduler polls with
// millisecond granularity: at a few thousand arrivals per second that alone
// would make the generator late by most of an inter-arrival time.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) // an early return (EINTR) only makes the next wait longer
}

// lateGrace is how long after the window an open-loop operation may still
// finish; one still running then counts as failed.
const lateGrace = time.Second

// runOpenLoop is mixed-fig7's load: Poisson arrivals at a fixed rate, one
// chunk insert to four StatRange queries, each operation on a goroutine of
// its own and timed from the moment it was due. The generator never waits
// for the system, so a slow system gets a queue, not less load; beyond
// maxOutstanding operations on one connection that queue is the generator's
// own rather than the client session's window (the operation's clock runs
// either way). It returns the samples, how late the generator issued each
// operation, and how many operations had not finished lateGrace after the
// window.
func (e *env) runOpenLoop(ctx context.Context, d time.Duration) (log *opLog, lagMS []float64, unfinished int) {
	log = &opLog{}
	o := oracle{e}
	rate := e.cfg.size.mixedRate * (1 + queriesPerInsert)
	rng := rand.New(rand.NewPCG(e.cfg.seed, 0x09E7))
	var wg sync.WaitGroup
	var running atomic.Int64
	slots := make(map[*timedTransport]chan struct{}, len(e.conns))
	for _, c := range e.conns {
		slots[c] = make(chan struct{}, maxOutstanding)
	}
	nextStream := 0
	start := time.Now()
	end := start.Add(d)
	due := start
	for {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if due.After(end) || ctx.Err() != nil {
			break
		}
		if wait := time.Until(due); wait > 0 {
			preciseSleep(wait)
		}
		lagMS = append(lagMS, float64(time.Since(due))/1e6)
		opDue := due
		running.Add(1)
		wg.Add(1)
		if rng.IntN(1+queriesPerInsert) == 0 {
			s := e.streams[nextStream%len(e.streams)]
			nextStream++
			go func() {
				defer wg.Done()
				defer running.Add(-1)
				<-s.turn
				slots[s.tr] <- struct{}{}
				i := s.visible.Load()
				var err error
				if int(i)+1 >= len(s.prefix) {
					err = fmt.Errorf("%s: reference full at chunk %d", s.uuid, i)
				} else if err = s.os.AppendChunk(ctx, s.generate(i, e.interval)); err == nil {
					s.visible.Store(i + 1)
				}
				done := time.Now()
				<-slots[s.tr]
				s.turn <- struct{}{}
				log.add(opSample{kind: opInsert, at: done, latency: done.Sub(opDue), failed: err != nil}, err)
			}()
			continue
		}
		s := e.streams[rng.IntN(len(e.streams))]
		n := s.visible.Load()
		lo := rng.Uint64N(n)
		hi := lo + 1 + rng.Uint64N(n-lo)
		go func() {
			defer wg.Done()
			defer running.Add(-1)
			slots[s.tr] <- struct{}{}
			err := o.statRange(ctx, s, lo, hi)
			done := time.Now()
			<-slots[s.tr]
			log.add(opSample{kind: opStat, at: done, latency: done.Sub(opDue), failed: err != nil}, err)
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(lateGrace):
		unfinished = int(running.Load())
		<-finished // the caller's deadline bounds this
	}
	return log, lagMS, unfinished
}

// verifyIngest is the oracle's check after a write window: the server holds
// exactly the acknowledged chunks of every stream, and a query over all of
// them equals the reference.
func (e *env) verifyIngest(ctx context.Context) (checks, failed int, firstErr error) {
	o := oracle{e}
	for _, s := range e.streams {
		checks++
		acked := s.os.Count()
		stored, err := streamCount(ctx, s)
		if err == nil && stored != acked {
			err = fmt.Errorf("%s: server holds %d chunks, %d were acknowledged", s.uuid, stored, acked)
		}
		if err == nil && acked > 0 {
			err = o.statRange(ctx, s, 0, acked)
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return checks, failed, firstErr
}

// minVisible is the number of chunks every stream holds.
func (e *env) minVisible() uint64 {
	min := uint64(math.MaxUint64)
	for _, s := range e.streams {
		if v := s.visible.Load(); v < min {
			min = v
		}
	}
	return min
}

// calibrate measures the closed-loop capacity of mixed-fig7's deployment at
// the paper's 1:4 ratio: workers that each insert a chunk, run four
// StatRange queries and start over, as fast as they are answered. The fixed
// open-loop rate in workloads.go is 40 % of what this prints on the
// reference box, rounded down.
func calibrate(ctx context.Context, cfg *config) error {
	cfg.workload = wMixed
	e, err := setup(ctx, cfg, nil)
	if err != nil {
		return err
	}
	defer e.close()
	o := oracle{e}
	const workersPerConn = 4
	perWorker := len(e.streams) / (len(e.conns) * workersPerConn)
	var inserts atomic.Int64
	deadline := time.Now().Add(cfg.dur(1))
	var wg sync.WaitGroup
	errs := make([]error, len(e.conns)*workersPerConn)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(cfg.seed, uint64(w)))
			mine := e.streams[w*perWorker : (w+1)*perWorker]
			for time.Now().Before(deadline) {
				for _, s := range mine {
					i := s.visible.Load()
					if int(i)+1 >= len(s.prefix) {
						return
					}
					if errs[w] = s.os.AppendChunk(ctx, s.generate(i, e.interval)); errs[w] != nil {
						return
					}
					s.visible.Store(i + 1)
					inserts.Add(1)
					for q := 0; q < queriesPerInsert; q++ {
						lo := rng.Uint64N(i + 1)
						if errs[w] = o.statRange(ctx, s, lo, lo+1+rng.Uint64N(i+1-lo)); errs[w] != nil {
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	perS := float64(inserts.Load()) / cfg.seconds
	fmt.Printf("closed-loop capacity: %.0f inserts/s + %.0f queries/s with %d workers; 40%% is %.0f inserts/s\n",
		perS, perS*queriesPerInsert, len(errs), 0.4*perS)
	return nil
}
