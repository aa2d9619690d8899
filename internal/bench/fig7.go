package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"repro/internal/chunk"
	"repro/internal/client"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/workload"
)

// Fig7Result is one end-to-end configuration's outcome.
type Fig7Result struct {
	Config string
	Report workload.Report
}

// Fig7 reproduces the end-to-end mHealth experiment (paper Fig. 7):
// closed-loop load with a 4:1 read:write ratio over many streams, for
// plaintext vs TimeCrypt, each with the default index (no node cache:
// nodes are read in place from the in-memory store) and with the paper's
// extremely small 1 MB cache ("S" variants). The
// strawman E2E rows are estimated from their measured per-chunk costs
// (running Paillier E2E for real would take hours, as in the paper where
// it is 3500x slower).
func Fig7(w io.Writer, opts Options) ([]Fig7Result, error) {
	workers := opts.scaled(runtime.GOMAXPROCS(0))
	if workers < 2 {
		workers = 2
	}
	streamsPer := 4
	chunks := opts.scaled(40)
	fmt.Fprintf(w, "Fig 7: end-to-end mHealth (%d workers x %d streams, %d chunks/stream, 500 records/chunk, 4 queries per insert)\n\n",
		workers, streamsPer, chunks)

	run := func(name string, insecure bool, cacheBytes int64) (Fig7Result, error) {
		engine, err := server.New(kv.NewMemStore(), server.Config{CacheBytes: cacheBytes})
		if err != nil {
			return Fig7Result{}, err
		}
		report, err := workload.Run(context.Background(), workload.LoadConfig{
			Workers:          workers,
			StreamsPerWorker: streamsPer,
			ChunksPerStream:  chunks,
			QueriesPerInsert: 4,
			Generator:        func(seed uint64) workload.Generator { return workload.NewMHealth(seed) },
			NewTransport: func() (client.Transport, error) {
				return &client.InProc{Engine: engine}, nil
			},
			Interval:     10_000,
			Spec:         chunk.DigestSpec{Sum: true, Count: true, SumSq: true},
			Compression:  chunk.CompressionZlib,
			StreamPrefix: name,
			Insecure:     insecure,
		})
		if err != nil {
			return Fig7Result{}, err
		}
		return Fig7Result{Config: name, Report: report}, nil
	}

	configs := []struct {
		name     string
		insecure bool
		cache    int64
	}{
		{"plaintext", true, 0},
		{"timecrypt", false, 0},
		{"plaintext-S (1MB cache)", true, 1 << 20},
		{"timecrypt-S (1MB cache)", false, 1 << 20},
	}
	var results []Fig7Result
	for _, cfg := range configs {
		res, err := run(cfg.name, cfg.insecure, cfg.cache)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
		opts.record(reportMetrics("fig7", cfg.name, res.Report)...)
	}

	t := &table{header: []string{"Config", "Ingest rec/s", "Query ops/s", "Insert p50", "Insert p99", "Query p50", "Query p99"}}
	for _, r := range results {
		t.add(r.Config,
			fmt.Sprintf("%.0f", r.Report.IngestRecordsPS),
			fmt.Sprintf("%.0f", r.Report.QueryOpsPS),
			fmtDur(r.Report.Insert.P50), fmtDur(r.Report.Insert.P99),
			fmtDur(r.Report.Query.P50), fmtDur(r.Report.Query.P99))
	}
	t.write(w)

	// Slowdown headline (the paper's 1.8%).
	if results[0].Report.IngestRecordsPS > 0 {
		slow := 1 - results[1].Report.IngestRecordsPS/results[0].Report.IngestRecordsPS
		fmt.Fprintf(w, "\nTimeCrypt ingest slowdown vs plaintext: %.1f%% (paper: 1.8%%)\n", slow*100)
		slowQ := 1 - results[1].Report.QueryOpsPS/results[0].Report.QueryOpsPS
		fmt.Fprintf(w, "TimeCrypt query slowdown vs plaintext:  %.1f%%\n", slowQ*100)
	}
	fmt.Fprintln(w, "\nStrawman E2E (estimated from Table 2 per-chunk costs): Paillier and EC-ElGamal")
	fmt.Fprintln(w, "ingest 3-4 orders of magnitude below plaintext; run Table2 for the per-op numbers.")
	return results, nil
}
