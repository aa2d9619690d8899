package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is BENCHMARK.json as far as -compare needs it.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRuns(path string) ([]summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []summary
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s summary
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !s.Traced {
			runs = append(runs, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no untraced run", path)
	}
	return runs, nil
}

// sameMachine refuses to compare runs whose stamps differ in what decides
// the numbers besides the code.
func sameMachine(runs []summary) error {
	ref := runs[0].Stamp
	for _, r := range runs[1:] {
		s := r.Stamp
		if s.CPU != ref.CPU || s.NProc != ref.NProc || s.GOMAXPROCS != ref.GOMAXPROCS || s.GoVersion != ref.GoVersion {
			return fmt.Errorf("REFUSING TO COMPARE: run %s (%s, nproc %d, GOMAXPROCS %d, %s) and run %s (%s, nproc %d, GOMAXPROCS %d, %s) were not made on the same machine and toolchain",
				ref.RunID, ref.CPU, ref.NProc, ref.GOMAXPROCS, ref.GoVersion, s.RunID, s.CPU, s.NProc, s.GOMAXPROCS, s.GoVersion)
		}
	}
	return nil
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, b's ratio to a, the bound, and a verdict. It returns 1 if any row
// regressed, 2 if the files cannot be compared.
func compareFiles(pathA, pathB string) int {
	var bench benchmarkFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &bench)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: reading BENCHMARK.json (run from the repository root):", err)
		return 2
	}
	a, err := readRuns(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readRuns(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if err := sameMachine(append(append([]summary(nil), a...), b...)); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	values := func(runs []summary, workload, metric string) []float64 {
		var out []float64
		for _, r := range runs {
			if r.Workload == workload {
				out = append(out, r.Metrics[metric].Value)
			}
		}
		return out
	}
	fmt.Printf("a = %s (commit %s), b = %s (commit %s); ratio is b/a; spread is the wider interquartile range as a share of its median\n",
		pathA, a[0].Stamp.Commit, pathB, b[0].Stamp.Commit)
	fmt.Printf("%-20s %-28s %3s %14s %3s %14s %9s %7s %7s  %s\n", "workload", "metric", "n", "median a", "n", "median b", "b/a", "spread", "bound", "verdict")
	code := 0
	for _, w := range workloadNames {
		for _, m := range bench.EndToEnd {
			va, vb := values(a, w, m.Name), values(b, w, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			spread := iqrShare(va)
			if s := iqrShare(vb); s > spread {
				spread = s
			}
			v := verdict(ma, mb, spread, m.Bound, m.Better)
			if v == "regressed" {
				code = 1
			}
			fmt.Printf("%-20s %-28s %3d %14.6g %3d %14.6g %9.4f %7.4f %7.4f  %s\n", w, m.Name, len(va), ma, len(vb), mb, mb/ma, spread, m.Bound, v)
		}
	}
	return code
}

// verdict judges b's median against a's: "unresolved" when the runs of either
// side spread wider than the bound (no conclusion can be drawn), "regressed"
// when b is worse than a by more than the bound, "ok" otherwise.
func verdict(medianA, medianB, spread, bound float64, better string) string {
	worse := (medianB - medianA) / medianA
	if better == "higher" {
		worse = -worse
	}
	switch {
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	}
	return "ok"
}
