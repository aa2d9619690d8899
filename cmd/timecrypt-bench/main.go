// Command timecrypt-bench regenerates the paper's evaluation tables and
// figures (§6) on local hardware.
//
// Usage:
//
//	timecrypt-bench -run all -scale 1.0
//	timecrypt-bench -run table2,fig5
//	timecrypt-bench -run durable -json BENCH_results.json
//
// `timecrypt-bench -h` lists the experiments under -run. Scale > 1
// approaches the paper's sizes (and run times).
//
// Alongside the human-readable tables, machine-readable metrics
// (experiment, ops/sec, p50/p99 latency) are written to the -json file so
// the performance trajectory is tracked across PRs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
)

// wrap adapts an experiment returning typed results to the generic runner.
func wrap[T any](f func(io.Writer, bench.Options) ([]T, error)) func(io.Writer, bench.Options) error {
	return func(w io.Writer, o bench.Options) error { _, err := f(w, o); return err }
}

// experiments is every experiment -run can name, in the order "all" runs them.
var experiments = []struct {
	name string
	run  func(io.Writer, bench.Options) error
}{
	{"table2", wrap(bench.Table2)},
	{"table3", wrap(bench.Table3)},
	{"fig5", wrap(bench.Fig5)},
	{"fig6", wrap(bench.Fig6)},
	{"fig7", wrap(bench.Fig7)},
	{"fig8", wrap(bench.Fig8)},
	{"access", wrap(bench.AccessControl)},
	{"devops", wrap(bench.DevOps)},
	{"reshard", wrap(bench.Reshard)},
	{"durable", wrap(bench.DurableIngest)},
	{"subscribe", wrap(bench.Subscribe)},
	{"failover", wrap(bench.Failover)},
}

func main() {
	names := make([]string, len(experiments))
	for i, exp := range experiments {
		names[i] = exp.name
	}
	runList := flag.String("run", "all", "comma-separated experiments ("+strings.Join(names, ",")+") or 'all'")
	scale := flag.Float64("scale", 1.0, "experiment scale factor (1.0 = laptop-sized defaults)")
	jsonPath := flag.String("json", "BENCH_results.json", "machine-readable results file ('' disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write an allocs heap profile to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("creating cpu profile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("starting cpu profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatalf("creating mem profile: %v", err)
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatalf("writing mem profile: %v", err)
			}
		}()
	}

	results := &bench.Results{}
	opts := bench.Options{Scale: *scale, Results: results}

	want := map[string]bool{}
	all := *runList == "all"
	for _, name := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(name)] = true
	}
	ran := 0
	for _, exp := range experiments {
		if !all && !want[exp.name] {
			continue
		}
		fmt.Printf("==== %s ====\n", exp.name)
		if err := exp.run(os.Stdout, opts); err != nil {
			log.Fatalf("%s: %v", exp.name, err)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		log.Fatalf("no experiment matched %q", *runList)
	}
	if *jsonPath != "" {
		if metrics := results.Metrics(); len(metrics) > 0 {
			merged := mergeMetrics(*jsonPath, metrics)
			data, err := json.MarshalIndent(merged, "", "  ")
			if err != nil {
				log.Fatalf("encoding results: %v", err)
			}
			data = append(data, '\n')
			if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
				log.Fatalf("writing %s: %v", *jsonPath, err)
			}
			fmt.Printf("wrote %d metrics to %s (%d fresh)\n", len(merged), *jsonPath, len(metrics))
		}
	}
}

// mergeMetrics folds this run's metrics into an existing results file:
// experiments that ran are replaced wholesale, experiments that did not
// run keep their previous numbers — so partial runs (-run durable) stop
// clobbering the rest of the tracked trajectory.
func mergeMetrics(path string, fresh []bench.Metric) []bench.Metric {
	prev, err := os.ReadFile(path)
	if err != nil {
		return fresh
	}
	var old []bench.Metric
	if err := json.Unmarshal(prev, &old); err != nil {
		return fresh // unreadable history loses to fresh data
	}
	reran := map[string]bool{}
	for _, m := range fresh {
		reran[m.Experiment] = true
	}
	var merged []bench.Metric
	for _, m := range old {
		if !reran[m.Experiment] {
			merged = append(merged, m)
		}
	}
	return append(merged, fresh...)
}
