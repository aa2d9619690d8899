// Package bench regenerates every table and figure of the paper's
// evaluation (§6) on local hardware: Table 2 (index microbenchmarks),
// Table 3 (crypto operation costs), Fig. 5 (query latency vs. interval),
// Fig. 6 (key derivation cost per PRG), Fig. 7 (end-to-end throughput and
// latency), Fig. 8 (granularity sweep), the §6.2 access-control comparison,
// and the §6.3 DevOps run. Absolute numbers differ from the paper's AWS
// testbed; the harness reproduces the comparisons' shape. EXPERIMENTS.md
// records paper-vs-measured values.
package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/workload"
)

// Options scales the experiments. Scale 1.0 is a laptop/CI-sized run
// (seconds to minutes); larger scales approach the paper's sizes.
type Options struct {
	Scale float64
	// Results, when non-nil, collects machine-readable metrics alongside
	// the human-readable tables (cmd/timecrypt-bench writes them to
	// BENCH_results.json so the perf trajectory is tracked across PRs).
	Results *Results
}

// Metric is one machine-readable benchmark data point.
type Metric struct {
	Experiment string  `json:"experiment"`
	Name       string  `json:"name"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

// Results collects metrics across experiments; safe for concurrent use.
type Results struct {
	mu      sync.Mutex
	metrics []Metric
}

// Add appends metrics.
func (r *Results) Add(ms ...Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, ms...)
}

// Metrics snapshots the collected metrics.
func (r *Results) Metrics() []Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Metric(nil), r.metrics...)
}

// record adds metrics when a collector is attached.
func (o Options) record(ms ...Metric) {
	if o.Results != nil {
		o.Results.Add(ms...)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// reportMetrics converts a workload report into ingest and query metrics.
func reportMetrics(experiment, name string, r workload.Report) []Metric {
	return []Metric{
		{Experiment: experiment, Name: name + "/ingest", OpsPerSec: r.IngestRecordsPS,
			P50Ms: ms(r.Insert.P50), P99Ms: ms(r.Insert.P99)},
		{Experiment: experiment, Name: name + "/query", OpsPerSec: r.QueryOpsPS,
			P50Ms: ms(r.Query.P50), P99Ms: ms(r.Query.P99)},
	}
}

func (o Options) scaled(base int) int {
	n := int(float64(base) * o.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

// measure runs fn iters times and returns the mean per-op duration.
func measure(iters int, fn func()) time.Duration {
	if iters < 1 {
		iters = 1
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(iters)
}

// table is a minimal aligned-column text table writer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// fmtDur renders a duration with µs/ms/ns units like the paper's tables.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// fmtBytes renders sizes.
func fmtBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// ratio renders a slowdown factor relative to a baseline.
func ratio(x, base time.Duration) string {
	if base <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(x)/float64(base))
}
