package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/workload"
)

// The test binary doubles as the CLI: when re-executed with the child
// marker it runs main() with whatever flags the test passed.
func TestMain(m *testing.M) {
	if os.Getenv("TIMECRYPT_CLI_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// cliCmd prepares a re-execution of the test binary as the CLI, run in
// the working directory dir ("" = the package directory).
func cliCmd(t *testing.T, dir string, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "TIMECRYPT_CLI_CHILD=1")
	return cmd
}

// runCLI re-executes the test binary as the CLI and returns its combined
// output.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	return runCLIIn(t, "", args...)
}

// runCLIIn is runCLI in the working directory dir, where the CLI keeps
// its key files.
func runCLIIn(t *testing.T, dir string, args ...string) (string, error) {
	t.Helper()
	out, err := cliCmd(t, dir, args...).CombinedOutput()
	return string(out), err
}

// startReplNode serves one replication group member over TCP.
func startReplNode(t *testing.T) (*replica.Node, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := replica.New(kv.NewMemStore(), server.Config{}, replica.Options{
		Self:  lis.Addr().String(),
		Lease: time.Second,
		Logf:  func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer(node, func(string, ...any) {})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx, lis) }()
	t.Cleanup(func() {
		node.Close()
		cancel()
		srv.Close()
		<-done
	})
	return node, lis.Addr().String()
}

// TestReplicasVerb: the replicas verb probes one member, discovers the
// rest of the group from its view, and reports each member's role.
func TestReplicasVerb(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary as the CLI")
	}
	leader, leaderAddr := startReplNode(t)
	_, followerAddr := startReplNode(t)
	leader.Lead([]string{followerAddr})

	// Probing only the leader must still surface the follower. The
	// follower only learns its role from the leader's first heartbeat
	// (lease/3), so poll briefly.
	var out string
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		out, err = runCLI(t, "-addr", leaderAddr, "replicas")
		if err != nil {
			t.Fatalf("replicas verb: %v\n%s", err, out)
		}
		if strings.Contains(out, "follower") || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, want := range []string{leaderAddr, followerAddr, "leader", "follower", "epoch 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("replicas output missing %q:\n%s", want, out)
		}
	}

	// A comma-separated -addr probes every listed member explicitly, and
	// an unreachable one is reported rather than fatal.
	deadAddr := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		a := l.Addr().String()
		l.Close()
		return a
	}()
	out, err = runCLI(t, "-addr", fmt.Sprintf("%s,%s,%s", followerAddr, leaderAddr, deadAddr), "replicas")
	if err != nil {
		t.Fatalf("replicas verb with member list: %v\n%s", err, out)
	}
	for _, want := range []string{leaderAddr, followerAddr, "unreachable"} {
		if !strings.Contains(out, want) {
			t.Errorf("multi-addr replicas output missing %q:\n%s", want, out)
		}
	}
}

// TestTopologyVerbFallbackDial: extra -addr entries are dial fallbacks
// for every verb — the first address being dead must not matter.
func TestTopologyVerbFallbackDial(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary as the CLI")
	}
	_, addr := startReplNode(t)
	out, err := runCLI(t, "-addr", "127.0.0.1:1,"+addr, "info", "-stream", "nope")
	// The stream doesn't exist: the point is that the command reached the
	// live server (a structured error) instead of dying on the dead dial.
	if err == nil {
		t.Fatalf("info on missing stream succeeded?\n%s", out)
	}
	if strings.Contains(out, "connection refused") && !strings.Contains(out, "not found") {
		t.Errorf("fallback dial not used:\n%s", out)
	}
}

// startEngine serves one in-memory engine over TCP.
func startEngine(t *testing.T) string {
	t.Helper()
	engine, err := server.New(kv.NewMemStore(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer(engine, func(string, ...any) {})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx, lis) }()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		<-done
	})
	return lis.Addr().String()
}

// The geometry every CLI data-verb test creates its streams with: a fixed
// epoch, so streams created apart can still be queried together.
const (
	cliEpoch    = int64(1_700_000_000_000)
	cliInterval = int64(10_000)
)

// foldMHealth is the plaintext answer: the record count and value sum of
// the chunks [from, to) that ingest generates (workload.NewMHealth(42)).
func foldMHealth(from, to uint64) (count uint64, sum int64) {
	gen := workload.NewMHealth(42)
	for i := from; i < to; i++ {
		for _, p := range gen.Chunk(i, cliEpoch, cliInterval) {
			count++
			sum += p.Val
		}
	}
	return count, sum
}

var countSumRE = regexp.MustCompile(`streams=(\d+) count=(\d+) sum=(-?\d+)`)

// countSums parses every result line of a stat, series or watch output.
func countSums(t *testing.T, out string) (streams []int, counts []uint64, sums []int64) {
	t.Helper()
	for _, m := range countSumRE.FindAllStringSubmatch(out, -1) {
		n, _ := strconv.Atoi(m[1])
		c, _ := strconv.ParseUint(m[2], 10, 64)
		s, _ := strconv.ParseInt(m[3], 10, 64)
		streams, counts, sums = append(streams, n), append(counts, c), append(sums, s)
	}
	return streams, counts, sums
}

// TestCLIDataVerbs runs every data verb against a live server and checks
// the decrypted answers against a plaintext fold of the ingested data.
func TestCLIDataVerbs(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary as the CLI")
	}
	addr := startEngine(t)
	dir := t.TempDir()
	cli := func(args ...string) string {
		t.Helper()
		out, err := runCLIIn(t, dir, append([]string{"-addr", addr}, args...)...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		return out
	}
	epoch := strconv.FormatInt(cliEpoch, 10)
	for _, s := range []string{"hr", "bp"} {
		if out := cli("-stream", s, "-interval", "10s", "-epoch", epoch, "create"); !strings.Contains(out, "created stream") {
			t.Fatalf("create %s:\n%s", s, out)
		}
		if _, err := os.Stat(filepath.Join(dir, s+".tckeys")); err != nil {
			t.Fatalf("create %s left no key file: %v", s, err)
		}
	}
	// 100 chunks span two 64-chunk batches; bp stays shorter.
	if out := cli("-stream", "hr", "-chunks", "100", "ingest"); !strings.Contains(out, "stream at 100 chunks") {
		t.Fatalf("ingest hr:\n%s", out)
	}
	cli("-stream", "bp", "-chunks", "30", "ingest")

	wantCount, wantSum := foldMHealth(0, 100)
	_, counts, sums := countSums(t, cli("-stream", "hr", "stats"))
	if len(counts) != 1 || counts[0] != wantCount || sums[0] != wantSum {
		t.Fatalf("stats = counts %v sums %v, want count=%d sum=%d", counts, sums, wantCount, wantSum)
	}

	// Series windows add up to the single aggregate.
	_, counts, sums = countSums(t, cli("-stream", "hr", "-window", "5", "series"))
	if len(counts) != 20 {
		t.Fatalf("series printed %d windows, want 20", len(counts))
	}
	var seriesCount uint64
	var seriesSum int64
	for w := range counts {
		c, s := foldMHealth(uint64(w)*5, uint64(w+1)*5)
		if counts[w] != c || sums[w] != s {
			t.Errorf("series window %d = count=%d sum=%d, want count=%d sum=%d", w, counts[w], sums[w], c, s)
		}
		seriesCount += counts[w]
		seriesSum += sums[w]
	}
	if seriesCount != wantCount || seriesSum != wantSum {
		t.Errorf("series adds up to count=%d sum=%d, stats says count=%d sum=%d", seriesCount, seriesSum, wantCount, wantSum)
	}

	// Two streams: the server sums them over the shorter one's chunks.
	streams, counts, sums := countSums(t, cli("-stream", "hr,bp", "stat"))
	c30, s30 := foldMHealth(0, 30)
	if len(counts) != 1 || streams[0] != 2 || counts[0] != 2*c30 || sums[0] != 2*s30 {
		t.Fatalf("two-stream stat = streams %v counts %v sums %v, want streams=2 count=%d sum=%d", streams, counts, sums, 2*c30, 2*s30)
	}

	// watch reports the windows an ingest completes while it runs, and
	// its deadline is a clean exit.
	watch := cliCmd(t, dir, "-addr", addr, "-stream", "hr", "-window", "2", "-timeout", "3s", "watch")
	stdout, err := watch.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	watch.Stderr = &stderr
	if err := watch.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stdout)
	if !lines.Scan() || !strings.HasPrefix(lines.Text(), "watching 1 stream(s)") {
		watch.Wait()
		t.Fatalf("watch did not start: %q\n%s", lines.Text(), stderr.String())
	}
	ingest := cliCmd(t, dir, "-addr", addr, "-stream", "hr", "-chunks", "6", "ingest")
	ingested := make(chan string, 1)
	go func() {
		out, err := ingest.CombinedOutput()
		if err != nil {
			out = fmt.Appendf(nil, "ingest during watch: %v\n%s", err, out)
		}
		ingested <- string(out)
	}()
	var watched strings.Builder
	for lines.Scan() {
		watched.WriteString(lines.Text() + "\n")
	}
	if err := watch.Wait(); err != nil {
		t.Fatalf("watch exited with %v:\n%s%s", err, watched.String(), stderr.String())
	}
	if out := <-ingested; !strings.Contains(out, "stream at 106 chunks") {
		t.Fatalf("concurrent ingest:\n%s", out)
	}
	windows := 0
	for _, line := range strings.Split(watched.String(), "\n") {
		var seq uint64
		if _, err := fmt.Sscanf(line, "[window %d", &seq); err != nil {
			continue // not a window line
		}
		windows++
		_, counts, sums := countSums(t, line)
		if c, s := foldMHealth(seq*2, seq*2+2); len(counts) != 1 || counts[0] != c || sums[0] != s {
			t.Errorf("watch window %d = %q, want count=%d sum=%d", seq, line, c, s)
		}
	}
	if windows == 0 || !strings.Contains(watched.String(), "watch deadline reached") {
		t.Fatalf("watch printed %d windows:\n%s", windows, watched.String())
	}

	if out := cli("-stream", "hr", "info"); !strings.Contains(out, "chunks=106") {
		t.Fatalf("info:\n%s", out)
	}
	if out := cli("-stream", "hr", "delete"); !strings.Contains(out, "deleted hr") {
		t.Fatalf("delete:\n%s", out)
	}
	if out, err := runCLIIn(t, dir, "-addr", addr, "-stream", "hr", "info"); err == nil || !strings.Contains(out, "not found") {
		t.Fatalf("info after delete: %v\n%s", err, out)
	}
}

// TestCLIIngestResumesFromServerCount: a key file whose chunk count fell
// behind the server (an ingest that failed or was interrupted after some
// batches landed) must not wedge the stream — ingest continues from the
// count the server reports.
func TestCLIIngestResumesFromServerCount(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary as the CLI")
	}
	addr := startEngine(t)
	dir := t.TempDir()
	cli := func(args ...string) string {
		t.Helper()
		out, err := runCLIIn(t, dir, append([]string{"-addr", addr, "-stream", "hr"}, args...)...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		return out
	}
	cli("-epoch", strconv.FormatInt(cliEpoch, 10), "create")
	cli("-chunks", "100", "ingest")

	// Older key files recorded the ingested count; make it stale.
	path := filepath.Join(dir, "hr.tckeys")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	fields["chunks_ingested"] = 36
	if data, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}

	cli("-chunks", "10", "ingest")
	if out := cli("info"); !strings.Contains(out, "chunks=110") {
		t.Fatalf("info after resumed ingest:\n%s", out)
	}
	wantCount, wantSum := foldMHealth(0, 110)
	if _, counts, sums := countSums(t, cli("stats")); len(counts) != 1 || counts[0] != wantCount || sums[0] != wantSum {
		t.Fatalf("stats = counts %v sums %v, want count=%d sum=%d", counts, sums, wantCount, wantSum)
	}
}

// TestCLIStatsReadsStreamSpec: the CLI decrypts with the digest spec the
// stream was created with, not a hard-coded default — here a sum-only
// stream the library created, whose key file holds its tree seed.
func TestCLIStatsReadsStreamSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary as the CLI")
	}
	addr := startEngine(t)
	dir := t.TempDir()
	tr, err := client.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx := context.Background()
	s, err := client.NewOwner(tr).CreateStream(ctx, client.StreamOptions{
		UUID: "sum", Epoch: cliEpoch, Interval: cliInterval, Spec: chunk.SumOnlySpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewMHealth(42)
	for i := uint64(0); i < 12; i++ {
		if err := s.AppendChunk(ctx, gen.Chunk(i, cliEpoch, cliInterval)); err != nil {
			t.Fatal(err)
		}
	}
	seed := s.TreeSeed()
	data, err := json.Marshal(map[string]any{
		"uuid": "sum", "seed": seed[:], "height": core.DefaultTreeHeight,
		"epoch": cliEpoch, "interval_ms": cliInterval, "chunks_ingested": 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sum.tckeys"), data, 0o600); err != nil {
		t.Fatal(err)
	}

	out, err := runCLIIn(t, dir, "-addr", addr, "-stream", "sum", "stats")
	if err != nil {
		t.Fatalf("stats on a sum-only stream: %v\n%s", err, out)
	}
	_, wantSum := foldMHealth(0, 12)
	if want := fmt.Sprintf("sum=%d ", wantSum); !strings.Contains(out, want) {
		t.Fatalf("stats on a sum-only stream: want %q in\n%s", want, out)
	}
}
