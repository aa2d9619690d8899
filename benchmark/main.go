// Command benchmark is this repository's benchmark: four full-stack
// workloads against in-process deployments served over real TCP, nine named
// end-to-end metrics, and a traced run that prices each layer from
// outside (a ladder of single-layer stages plus spans recorded by the
// benchmark's own decorators). README.md defines every workload and metric;
// BENCHMARK.json carries the bounds.
//
//	bash benchmark/run.sh --workload ingest-mem --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload all --out runs.jsonl
//	bash benchmark/run.sh --compare before.jsonl after.jsonl
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed of the reference runs in README.md.
const defaultSeed = 1

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// stamp says what produced a run, so that -compare can refuse to compare
// runs from different machines or toolchains.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	Seed       uint64 `json:"seed"`
	RunID      string `json:"run_id"`
}

func newStamp(seed uint64) stamp {
	s := stamp{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPU: "unknown", Seed: seed,
		RunID: fmt.Sprintf("%x-%d", time.Now().UnixNano(), os.Getpid()),
	}
	if c := headCommit(); c != "" {
		s.Commit = c
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				s.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return s
}

// headCommit reads the checked-out commit from .git in the working
// directory, if there is one (the driver's checkout has none).
func headCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return ""
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(".git/" + name)
		if err != nil {
			return name
		}
		ref = strings.TrimSpace(string(data))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is one run as -out records it and -compare reads it.
type summary struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Seconds   float64                `json:"seconds"`
	Stamp     stamp                  `json:"stamp"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
	Problems  []string               `json:"problems,omitempty"`
	// Claim is always null: the benchmark measures, it does not claim.
	Claim *string `json:"claim"`
}

// report turns a result into the summary, checking that exactly the
// metrics the mode names were produced and that each is a finite number.
func report(cfg *config, st stamp, res *result) summary {
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	s := summary{Workload: cfg.workload, Traced: cfg.traced, Seconds: cfg.seconds, Stamp: st,
		Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{},
		Notes: res.notes, Problems: res.problems}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			s.Problems = append(s.Problems, fmt.Sprintf("metric %s was not measured", d.name))
			v = 0
		}
		s.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	s.Correct = len(s.Problems) == 0 && s.Failed == 0 && s.Attempted > 0
	return s
}

func printSummary(s summary) {
	fmt.Printf("workload %s  traced=%v  seconds=%g  seed=%d  commit=%s  %s  GOMAXPROCS=%d nproc=%d  cpu=%q  run=%s\n",
		s.Workload, s.Traced, s.Seconds, s.Stamp.Seed, s.Stamp.Commit, s.Stamp.GoVersion,
		s.Stamp.GOMAXPROCS, s.Stamp.NProc, s.Stamp.CPU, s.Stamp.RunID)
	fmt.Println("client, servers and load generator share one process and its Go runtime; 2 client workers on 2 connections")
	defs := endToEnd
	if s.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("  %-38s %16.6g %s\n", d.name, s.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("  attempted %d, failed %d (failed_ops_ratio %.6f), correct %v\n",
		s.Attempted, s.Failed, float64(s.Failed)/math.Max(1, float64(s.Attempted)), s.Correct)
	for _, n := range s.Notes {
		fmt.Println("  note:", n)
	}
	for _, p := range s.Problems {
		fmt.Println("  PROBLEM:", p)
	}
}

// gcBallast is 256 MiB of pointer-free memory the process holds for as long
// as it runs. Client, servers and load generator share one heap here, and a
// run lasts seconds: without the ballast the heap starts empty, the
// collector runs every few chunks, and the ingest rate doubles over the
// first seconds as the store grows. The ballast stands in for the data a
// long-running server holds, so the collector's pace does not depend on how
// far a run has got. It is never touched, so it costs no resident memory.
var gcBallast []byte

const gcBallastBytes = 256 << 20

func main() {
	gcBallast = make([]byte, gcBallastBytes)
	code := run()
	runtime.KeepAlive(gcBallast)
	os.Exit(code)
}

func run() int {
	var (
		workload = flag.String("workload", "", "one of "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Uint64("seed", defaultSeed, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (ladder and spans)")
		out      = flag.String("out", "", "append each run's summary to this file as a JSON line")
		spans    = flag.String("spans", "", "traced runs: write the spans to this file as JSON lines")
		compare  = flag.Bool("compare", false, "compare two -out files: -compare a.jsonl b.jsonl")
		calib    = flag.Bool("calibrate", false, "measure mixed-fig7's closed-loop capacity (how its fixed rate was derived)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	tmp, err := tmpRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	// A run that hangs is a failed run, not a hung driver.
	watchdog := time.AfterFunc(time.Duration(len(names))*(workloadDeadline+15*time.Second), func() {
		fmt.Fprintln(os.Stderr, "benchmark: hard deadline passed; giving up")
		os.RemoveAll(tmp)
		os.Exit(3)
	})
	defer watchdog.Stop()

	st := newStamp(*seed)
	code := 0
	var last summary
	for _, name := range names {
		cfg := &config{workload: name, seed: *seed, seconds: *seconds, traced: *trace == 1, tmp: tmp, size: fullSize, spans: *spans}
		if *calib {
			if err := calibrate(context.Background(), cfg); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			return 0
		}
		res, err := runWorkload(context.Background(), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		last = report(cfg, st, res)
		printSummary(last)
		line, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(line))
		if *out != "" {
			if err := appendLine(*out, line); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		if !last.Correct {
			code = 1
		}
	}
	// The contract line: the last workload's result, and nothing after it.
	final, err := json.Marshal(map[string]any{
		"correct": last.Correct, "attempted": last.Attempted, "failed": last.Failed, "metrics": last.Metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(final))
	return code
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
