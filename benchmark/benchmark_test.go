package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/wire"
)

// tinySize runs every workload, the tracer and the ladder in about a second
// each: two streams per producer and a fixed number of chunks, so that exact
// counts can be compared between runs.
var tinySize = sizing{
	producers:          2,
	streamsPerProducer: 2,
	mixedStreamsPerCon: 2,
	mixedPreload:       16,
	queryStreams:       4,
	queryChunks:        96,
	cacheBytes:         8 << 10,
	shards:             4,
	aggStreams:         3,
	aggWindow:          8,
	aggWidth:           32,
	pointsChunks:       2,
	subWindows:         2,
	mixedRate:          200,
	chunksPerStream:    64,
	setupMin:           1,
	setupMax:           1,
}

func runTiny(t *testing.T, workload string, seed uint64, traced bool) (*result, summary) {
	t.Helper()
	tmp, err := tmpRoot()
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	cfg := &config{workload: workload, seed: seed, seconds: 0.6, traced: traced, tmp: tmp, size: tinySize}
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	return res, report(cfg, stamp{}, res)
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONNamesWhatTheProgramEmits keeps BENCHMARK.json and the
// program's metric tables in step.
func TestBenchmarkJSONNamesWhatTheProgramEmits(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadNames[i])
		}
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %s [%s], the program %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %s [%s], the program %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs the four workloads untraced and
// traced and checks that each run is correct, reports every metric of its
// mode once with a finite value and a unit, and measures nothing unnamed.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	named := map[string]bool{}
	for _, d := range endToEnd {
		named[d.name] = true
	}
	for _, d := range perLayer {
		named[d.name] = true
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, sum := runTiny(t, w, 1, traced)
			if !sum.Correct {
				t.Errorf("%s traced=%v is not correct: %v (failed %d of %d)", w, traced, sum.Problems, sum.Failed, sum.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(sum.Metrics) != len(defs) {
				t.Errorf("%s traced=%v reports %d metrics, want %d", w, traced, len(sum.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := sum.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", w, traced, d.name, v)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g; it must never be 0", w, d.name, v.Value)
				}
			}
			for name := range res.metrics {
				if !named[name] {
					t.Errorf("%s traced=%v measured %s, which no table names", w, traced, name)
				}
			}
			if traced && w == wIngestRepl {
				for _, name := range []string{"durable.reopen_s", "durable.commit_wait_p50_ms", "replica.leader_handle_p50_ms", "replica.tax_ratio", "replica.records_per_append"} {
					if sum.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %g, want > 0", w, name, sum.Metrics[name].Value)
					}
				}
				if lag := sum.Metrics["replica.watermark_lag_end"].Value; lag != 0 {
					t.Errorf("followers end %g records behind the leader", lag)
				}
			}
			if traced && w == wIngestMem {
				if v := sum.Metrics["trace.unattributed_share"].Value; v > 0.2 {
					t.Errorf("trace.unattributed_share = %g: client spans are not matched by server spans", v)
				}
				for _, name := range []string{"durable.commit_wait_p50_ms", "replica.leader_handle_p50_ms", "cluster.legs_per_agg"} {
					if sum.Metrics[name].Value != 0 {
						t.Errorf("%s reports %s = %g for a layer it does not have", w, name, sum.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestLoadStaysUnderTheConnectionWindow: a connection whose window is full
// gets requests refused with CodeBusy now and then (README.md, ground rules),
// so the load generator must not be able to fill it: a pipelined Writer has
// up to MaxInFlight + 2 batches on the wire.
func TestLoadStaysUnderTheConnectionWindow(t *testing.T) {
	window := min(client.DefaultWindow, server.DefaultMaxConnInFlight)
	const writerOnWire = 4 + 2 // WriterOptions{}: MaxInFlight 4
	if n := maxOpenWriters * writerOnWire; n > window*3/4 {
		t.Errorf("%d open writers can have %d batches on the wire; the window is %d", maxOpenWriters, n, window)
	}
	if maxOutstanding > window/2 {
		t.Errorf("the open loop keeps %d operations on a connection; the window is %d", maxOutstanding, window)
	}
	if fullSize.streamsPerProducer > maxOpenWriters {
		t.Errorf("%d streams per producer, but a producer keeps %d writers open", fullSize.streamsPerProducer, maxOpenWriters)
	}
	// A preload of more streams than that goes through them in groups.
	size := tinySize
	size.mixedStreamsPerCon = maxOpenWriters + 3
	tmp, err := tmpRoot()
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	e, err := setup(context.Background(), &config{workload: wMixed, seed: 1, seconds: 0.6, tmp: tmp, size: size}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for _, s := range e.streams {
		if got := s.visible.Load(); got != uint64(size.mixedPreload) {
			t.Errorf("%s holds %d chunks after the preload, want %d", s.uuid, got, size.mixedPreload)
		}
	}
}

// slowHandler makes every ingest batch take a while, so that a pipelining
// Writer has several in flight.
type slowHandler struct{ inner server.Handler }

func (h slowHandler) Handle(ctx context.Context, req wire.Message) wire.Message {
	if _, ok := req.(*wire.Batch); ok {
		time.Sleep(3 * time.Millisecond)
	}
	return h.inner.Handle(ctx, req)
}

// TestTransportDecoratorKeepsPipelining: the Writer pipelines only through
// a transport that is a client.Doer, and cursors stream only through a
// client.Streamer. If the decorator stopped forwarding them the Writer would
// silently fall back to one batch at a time, and client.batches_inflight_mean
// would read exactly 1.
func TestTransportDecoratorKeepsPipelining(t *testing.T) {
	var _ client.Doer = (*timedTransport)(nil)
	var _ client.Streamer = (*timedTransport)(nil)

	tr := newTracer()
	d := &deployment{tr: tr, mem: kv.NewMemStore()}
	defer d.close()
	engine, err := server.New(d.mem, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.serve(slowHandler{engine})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := client.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := newTimedTransport(tcp, tr, 0)
	defer conn.Close()
	ctx := context.Background()
	gen, interval := newGenerator(wIngestMem, 1)
	os, err := client.NewOwner(conn).CreateStream(ctx, client.StreamOptions{UUID: "pipelined", Epoch: streamEpoch, Interval: interval})
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.Writer(ctx, client.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr.on.Store(true)
	for i := uint64(0); i < 256; i++ {
		if err := w.AppendChunk(gen.Chunk(i, streamEpoch, interval)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sum, n := conn.inflightTotals()
	if n == 0 || float64(sum)/float64(n) <= 1 {
		t.Errorf("%d batches, %g in flight on average: the Writer is not pipelining through the decorator", n, float64(sum)/float64(n))
	}
	for _, a := range conn.takeAcks() {
		if a.failed {
			t.Errorf("a batch failed")
		}
	}
}

// TestExactCountsRepeat checks that the metrics that are counts of bytes or
// operations, not times, come out the same for the same seed, and move with
// the seed only where the data does.
func TestExactCountsRepeat(t *testing.T) {
	exact := []string{"chunk.sealed_bytes_per_chunk", "wire.bytes_per_chunk", "kv.puts_per_chunk"}
	_, a := runTiny(t, wIngestMem, 7, true)
	_, b := runTiny(t, wIngestMem, 7, true)
	_, c := runTiny(t, wIngestMem, 8, true)
	for _, name := range exact {
		if a.Metrics[name].Value != b.Metrics[name].Value {
			t.Errorf("%s: %v then %v for the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	if a.Metrics["kv.puts_per_chunk"].Value != c.Metrics["kv.puts_per_chunk"].Value {
		t.Errorf("kv.puts_per_chunk moved with the seed: %v, %v", a.Metrics["kv.puts_per_chunk"].Value, c.Metrics["kv.puts_per_chunk"].Value)
	}
	if a.Metrics["chunk.sealed_bytes_per_chunk"].Value == c.Metrics["chunk.sealed_bytes_per_chunk"].Value {
		t.Errorf("chunk.sealed_bytes_per_chunk did not move with the seed (%v): other data should compress differently", a.Metrics["chunk.sealed_bytes_per_chunk"].Value)
	}
	_, u1 := runTiny(t, wIngestMem, 7, false)
	_, u2 := runTiny(t, wIngestMem, 7, false)
	if x, y := u1.Metrics["stored_bytes_per_user_byte"].Value, u2.Metrics["stored_bytes_per_user_byte"].Value; x != y {
		t.Errorf("stored_bytes_per_user_byte: %v then %v for the same seed", x, y)
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	ref := stamp{CPU: "cpu a", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}
	same := []summary{{Stamp: ref}, {Stamp: ref}}
	if err := sameMachine(same); err != nil {
		t.Errorf("runs of one machine refused: %v", err)
	}
	for _, other := range []stamp{
		{CPU: "cpu b", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"},
		{CPU: "cpu a", NProc: 4, GOMAXPROCS: 2, GoVersion: "go1.24.0"},
		{CPU: "cpu a", NProc: 2, GOMAXPROCS: 1, GoVersion: "go1.24.0"},
		{CPU: "cpu a", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.25.0"},
	} {
		err := sameMachine([]summary{{Stamp: ref}, {Stamp: other}})
		if err == nil || !strings.Contains(err.Error(), "REFUSING") {
			t.Errorf("runs stamped %+v and %+v compared: %v", ref, other, err)
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		a, b, spread, bound float64
		better, want        string
	}{
		{100, 105, 0.02, 0.10, "lower", "ok"},
		{100, 115, 0.02, 0.10, "lower", "regressed"},
		{100, 85, 0.02, 0.10, "lower", "ok"},
		{100, 85, 0.02, 0.10, "higher", "regressed"},
		{100, 115, 0.02, 0.10, "higher", "ok"},
		{100, 101, 0.30, 0.10, "lower", "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.spread, c.bound, c.better); got != c.want {
			t.Errorf("verdict(%v, %v, spread %v, bound %v, %s) = %s, want %s", c.a, c.b, c.spread, c.bound, c.better, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins iqrShare to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,20], n=4) == [2.75, 5.5, 8.25]
	got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 20})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestSmokeIsQuick(t *testing.T) {
	// The deadline that fails a hung run must leave the driver's 180 s.
	if workloadDeadline > 170*time.Second {
		t.Errorf("workloadDeadline %s leaves no room under the driver's limit", workloadDeadline)
	}
}
