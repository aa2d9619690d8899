package main

import (
	"errors"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// busyRefusals counts wire.CodeBusy answers any client of this run saw.
var busyRefusals atomic.Int64

func noteBusy(err error) {
	var we *wire.Error
	if errors.As(err, &we) && we.Code == wire.CodeBusy {
		busyRefusals.Add(1)
	}
}

// durs is a bag of span durations in microseconds.
type durs struct {
	us  []float64
	sum float64
	sub float64 // sub-requests carried (chunks of ingest batches)
}

func (d *durs) add(us float64, n uint32) {
	d.us = append(d.us, us)
	d.sum += us
	d.sub += float64(n)
}

func (d *durs) count() float64 { return float64(len(d.us)) }

func (d *durs) q(p float64) float64 {
	if len(d.us) == 0 {
		return 0
	}
	return quantiles(d.us, p)[0]
}

// bags are span durations by request kind; a kind never seen is an empty bag.
type bags map[wire.MsgType]*durs

func (b bags) of(k wire.MsgType) *durs {
	d := b[k]
	if d == nil {
		d = &durs{}
		b[k] = d
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// pick returns the segments that are (or are not) traced.
func pick(segs []*segment, traced bool) []*segment {
	var out []*segment
	for _, s := range segs {
		if s != nil && s.traced == traced {
			out = append(out, s)
		}
	}
	return out
}

// delta sums a counter's growth over segments.
func delta(segs []*segment, f func(c *counters) float64) float64 {
	var sum float64
	for _, s := range segs {
		sum += f(&s.after) - f(&s.before)
	}
	return sum
}

func seconds(segs []*segment) float64 {
	var sum float64
	for _, s := range segs {
		sum += s.seconds()
	}
	return sum
}

func inAny(segs []*segment, t time.Time) bool {
	for _, s := range segs {
		if !t.Before(s.start) && t.Before(s.end) {
			return true
		}
	}
	return false
}

// pooled is the load completed inside a set of segments.
type pooled struct {
	seconds float64
	chunks  float64 // acknowledged (closed loop) or inserted (open loop)
	n       [nOpKinds]float64
	lat     [nOpKinds][]float64 // ms
}

func (ob *observed) pool(segs []*segment) pooled {
	p := pooled{seconds: seconds(segs)}
	for _, a := range ob.acks {
		if !a.failed && inAny(segs, a.at) {
			p.chunks += float64(a.chunks)
		}
	}
	for _, s := range ob.ops {
		if !s.failed && inAny(segs, s.at) {
			p.n[s.kind]++
			p.lat[s.kind] = append(p.lat[s.kind], float64(s.latency)/1e6)
		}
	}
	p.chunks += p.n[opInsert]
	return p
}

func (p pooled) reads() float64 { return p.n[opStat] + p.n[opAgg] + p.n[opPoints] }

func (p pooled) p50(k opKind) float64 {
	if len(p.lat[k]) == 0 {
		return 0
	}
	return median(p.lat[k])
}

// layers computes the in-situ (S) and counter (C) per-layer metrics of a
// traced run from its spans, its samples and the counters read at the
// segments' edges. Layers the workload does not have leave their metrics
// unset; finishLayers reports those as 0. It returns the untraced ingest
// rate, which the ladder's replica.tax_ratio is relative to.
func (ob *observed) layers(res *result, spans []span) (untracedChunksPerS float64) {
	m := res.metrics
	cfg, e, d := ob.cfg, ob.e, ob.e.dep
	origin := d.tr.origin

	tracedMain := pick(ob.segs, true)
	tracedRead := tracedMain // where the analysts' mix ran under tracing
	if ob.readback != nil {
		tracedRead = []*segment{ob.readback}
	}
	tracedAll := append(append([]*segment(nil), tracedMain...), pick([]*segment{ob.readback}, true)...)
	write, read, plain := ob.pool(tracedMain), ob.pool(tracedRead), ob.pool(pick(ob.segs, false))
	if plain.seconds == 0 {
		plain = write // a fixed amount of work runs as one traced segment
	}

	// Sort the spans into bags per boundary and join each client span to
	// the front-end span of the same request.
	type reqID struct {
		kind wire.MsgType
		key  uint64
	}
	front, shard, follower := bags{}, bags{}, bags{}
	storeWrites := map[uint8]*durs{}
	frontByReq := map[reqID][]float64{}
	var replAppends, replRecords float64
	inTraced := func(s span) bool {
		return inAny(tracedAll, origin.Add(time.Duration(s.start))) && inAny(tracedAll, origin.Add(time.Duration(s.end-1)))
	}
	for _, s := range spans {
		if !inTraced(s) {
			continue
		}
		us := float64(s.end-s.start) / 1e3
		switch s.b {
		case bFront:
			front.of(s.kind).add(us, s.n)
			id := reqID{s.kind, s.key}
			frontByReq[id] = append(frontByReq[id], us)
		case bShard:
			shard.of(s.kind).add(us, s.n)
		case bFollower:
			follower.of(s.kind).add(us, s.n)
			if s.kind == wire.TReplAppend && s.n > 0 { // heartbeats carry no records
				replAppends++
				replRecords += float64(s.n)
			}
		case bStore:
			w := storeWrites[s.owner]
			if w == nil {
				w = &durs{}
				storeWrites[s.owner] = w
			}
			w.add(us, s.n)
		}
	}
	var clientUS, matchedUS float64
	readStat := &durs{}            // client spans of StatRange while the analysts' mix ran
	transitKind := wire.TStatRange // the request the workload is about
	if cfg.workload == wIngestMem || cfg.workload == wIngestRepl {
		transitKind = wire.TBatch
	}
	var transit []float64
	for _, s := range spans {
		if s.b != bClient || !inTraced(s) {
			continue
		}
		us := float64(s.end-s.start) / 1e3
		clientUS += us
		if s.kind == wire.TStatRange && inAny(tracedRead, origin.Add(time.Duration(s.start))) {
			readStat.add(us, s.n)
		}
		id := reqID{s.kind, s.key}
		if f := frontByReq[id]; len(f) > 0 {
			matchedUS += us
			if s.kind == transitKind {
				transit = append(transit, us-f[0])
			}
			frontByReq[id] = f[1:]
		}
	}

	// wire, client
	if len(transit) > 0 {
		m["wire.transit_us_per_req"] = median(transit)
	}
	m["trace.unattributed_share"] = 1 - ratio(matchedUS, clientUS)
	if n := delta(tracedMain, func(c *counters) float64 { return float64(c.appends) }); n > 0 {
		m["client.append_ns_per_chunk"] = delta(tracedMain, func(c *counters) float64 { return float64(c.appendNS) }) / n
	}
	m["client.batches_inflight_mean"] = ratio(
		delta(tracedMain, func(c *counters) float64 { return float64(c.inflSum) }),
		delta(tracedMain, func(c *counters) float64 { return float64(c.inflN) }))
	if readStat.count() > 0 {
		// The closed-loop analysts' call-to-answer time minus what the
		// transport saw of it: planning, decryption, interpretation.
		m["client.query_self_us"] = read.p50(opStat)*1e3 - readStat.q(0.5)
	}
	if read.n[opAgg] > 0 {
		width := math.Min(float64(cfg.size.aggWidth), float64(e.minVisible()/cfg.size.aggWindow*cfg.size.aggWindow))
		pages := math.Ceil(width / float64(cfg.size.aggWindow) / 64) // the cursor's default page: 64 windows
		m["client.agg_page_ms"] = ratio(read.p50(opAgg), pages)
	}

	// server: the engine's own handler is the front end on ingest-mem and a
	// shard behind the router elsewhere. Inside a replication group the
	// node builds its engine itself, so there is no boundary to time.
	engine := shard
	if d.router == nil {
		engine = front
	}
	if d.group == nil {
		ins := engine.of(wire.TBatch)
		if cfg.workload == wMixed {
			ins = engine.of(wire.TInsertChunk)
		}
		if ins.count() > 0 {
			var storeUS float64
			for _, w := range storeWrites {
				storeUS += w.sum
			}
			m["server.handle_us_per_batch"] = ins.sum / ins.count()
			m["server.self_us_per_chunk"] = ratio(ins.sum-storeUS, ins.sub)
		}
	}
	m["server.busy_refusals"] = float64(busyRefusals.Load())

	// index, kv: store reads per query while the analysts' mix ran.
	m["index.store_gets_per_query"] = ratio(
		delta(tracedRead, func(c *counters) float64 { return float64(c.idxGets) }), read.n[opStat]+read.n[opAgg])
	m["kv.gets_per_query"] = ratio(delta(tracedRead, func(c *counters) float64 { return float64(c.kvGets) }), read.reads())
	m["kv.store_bytes_per_chunk"] = ratio(float64(ob.stored), float64(ob.resident))

	// durable, replica
	if d.group != nil {
		leaderWrites := storeWrites[0]
		if leaderWrites == nil {
			leaderWrites = &durs{}
		}
		m["durable.commit_wait_p50_ms"] = leaderWrites.q(0.5) / 1e3
		m["durable.commit_wait_p99_ms"] = leaderWrites.q(0.99) / 1e3
		fsyncs := delta(tracedMain, func(c *counters) float64 { return float64(c.durable.Fsyncs) })
		m["durable.records_per_fsync"] = ratio(delta(tracedMain, func(c *counters) float64 { return float64(c.durable.Records) }), fsyncs)
		m["durable.fsyncs_per_chunk"] = ratio(fsyncs, write.chunks)
		m["durable.wal_bytes_per_user_byte"] = ratio(
			delta(tracedMain, func(c *counters) float64 { return float64(c.walBytes) }), 16*write.chunks*float64(e.ppc))
		if lead := shard.of(wire.TBatch); lead.count() > 0 {
			m["replica.leader_handle_p50_ms"] = lead.q(0.5) / 1e3
			// What is left of the leader's span after its own store's
			// commits: applying, shipping, waiting for the quorum.
			m["replica.self_ms_per_batch"] = (lead.sum - leaderWrites.sum) / lead.count() / 1e3
			m["replica.appends_per_batch"] = ratio(replAppends/float64(len(d.nodes)-1), lead.count())
		}
		m["replica.follower_apply_p50_ms"] = follower.of(wire.TReplAppend).q(0.5) / 1e3
		m["replica.records_per_append"] = ratio(replRecords, replAppends)
	}

	// cluster
	if d.router != nil && d.group == nil {
		// Requests for one stream go to one shard: the router's span minus
		// the shard's is what routing cost.
		var over, n float64
		for _, kind := range []wire.MsgType{wire.TStatRange, wire.TBatch, wire.TInsertChunk, wire.TGetRange} {
			f, s := front.of(kind), shard.of(kind)
			if f.count() > 0 && f.count() == s.count() {
				over += f.sum - s.sum
				n += f.count()
			}
		}
		m["cluster.route_overhead_us_per_req"] = ratio(over, n)
		// Legs: sub-requests the router fanned out while the plans ran (a
		// plan first asks each member's shard how far it has ingested;
		// those legs count too).
		m["cluster.legs_per_agg"] = ratio(delta(tracedRead, func(c *counters) float64 {
			var n uint64
			for _, s := range c.shards {
				n += s.Fanouts
			}
			return float64(n)
		}), read.n[opAgg])
		var max, sum float64
		last := ob.segs[len(ob.segs)-1].after.shards
		if ob.readback != nil {
			last = ob.readback.after.shards
		}
		for _, s := range last {
			load := float64(s.Requests + s.Fanouts)
			sum += load
			max = math.Max(max, load)
		}
		m["cluster.shard_skew"] = ratio(max, sum/float64(len(last)))
	}

	// tails: the p99s beside the end-to-end medians (see README.md for why
	// they are not end-to-end metrics themselves).
	in, stat, _, _, _ := ob.windows()
	m["tail.ingest_ack_p99_ms"] = in.p99
	m["tail.query_p99_ms"] = stat.p99

	// runtime
	done := write.chunks + write.reads()
	m["runtime.alloc_bytes_per_op"] = ratio(delta(tracedMain, func(c *counters) float64 { return float64(c.mem.TotalAlloc) }), done)
	m["runtime.gc_pause_total_ms"] = delta(tracedMain, func(c *counters) float64 { return float64(c.mem.PauseTotalNs) }) / 1e6
	m["runtime.gc_cycles"] = delta(tracedMain, func(c *counters) float64 { return float64(c.mem.NumGC) })

	// trace: the same load with the decorators on and off.
	tracedRate, plainRate := write.chunks/write.seconds, plain.chunks/plain.seconds
	switch cfg.workload {
	case wQueryRange:
		tracedRate, plainRate = write.reads()/write.seconds, plain.reads()/plain.seconds
	case wMixed:
		// The schedule pins the rate; what tracing can move is latency.
		tracedRate, plainRate = 1/write.p50(opStat), 1/plain.p50(opStat)
	}
	m["trace.overhead_ratio"] = 1 - ratio(tracedRate, plainRate)
	return plain.chunks / plain.seconds
}

// finishLayers derives the metric that combines a ladder stage with an
// in-situ number, and reports 0 for the metrics of layers the workload does
// not have.
func finishLayers(res *result) {
	m := res.metrics
	if app := m["client.append_ns_per_chunk"]; app > 0 {
		m["client.backpressure_share"] = math.Max(0, (app-m["chunk.seal_ns_per_chunk"])/app)
	}
	for _, def := range perLayer {
		if _, ok := m[def.name]; !ok {
			m[def.name] = 0
		}
	}
}
