// Command timecrypt-cli is a small operational tool against a running
// timecrypt-server: it creates streams, loads synthetic data, and runs
// statistical queries, holding its key material in a local key file.
//
// Usage (flags come BEFORE the subcommand — the flag package stops
// parsing at the first non-flag argument):
//
//	timecrypt-cli -addr localhost:7733 -stream hr -interval 10s create
//	timecrypt-cli -addr localhost:7733 -stream hr -chunks 100 ingest
//	timecrypt-cli -addr localhost:7733 -stream hr stats
//	timecrypt-cli -addr localhost:7733 -stream hr,bp,spo2 stat
//	timecrypt-cli -addr localhost:7733 -stream hr -window 6 series
//	timecrypt-cli -addr localhost:7733 -stream hr -window 6 -timeout 5m watch
//	timecrypt-cli -addr localhost:7733 -stream hr info
//
// Cluster administration against a router front end:
//
//	timecrypt-cli -addr localhost:7700 topology
//	timecrypt-cli -addr localhost:7700 -members host1:7733,host2:7733,host3:7733 reshard
//
// topology prints the router's versioned ring membership; reshard changes
// it to exactly -members, migrating the streams whose ownership changed
// while the cluster keeps serving (docs/OPERATIONS.md walks through it).
// reshard runs without a deadline unless -timeout is set explicitly — a
// large migration may take well past the default command timeout.
//
// The data verbs run on the owner client (internal/client): create is
// Owner.CreateStream, the others restore the stream from its key file with
// Owner.OpenStream, and watch is QueryBuilder.Subscribe — the server pushes
// one encrypted delta per completed -window chunks and the CLI decrypts
// each as it arrives, until -timeout expires (set -timeout 0 to watch
// until interrupted).
//
// stat/stats/series/watch accept several comma-separated stream UUIDs: the
// server homomorphically sums the streams' aggregates (one round trip),
// and the CLI peels each stream's keystream in turn — so it needs the key
// file of every member stream.
//
// The key file (default ./<stream>.tckeys) stores the stream's secret seed
// and geometry; protect it like any private key. The chunk count and the
// digest spec come from the server.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/workload"
)

// keyFile is the owner's persisted stream secret: the key tree's seed and
// height, and the geometry queries map their time range onto.
type keyFile struct {
	UUID     string `json:"uuid"`
	Seed     []byte `json:"seed"`
	Height   int    `json:"height"`
	Epoch    int64  `json:"epoch"`
	Interval int64  `json:"interval_ms"`
}

func main() {
	addr := flag.String("addr", "localhost:7733", "server address(es), comma-separated; extras are dial fallbacks (replicas probes each)")
	stream := flag.String("stream", "demo", "stream UUID (stat/stats/series accept a comma-separated list)")
	interval := flag.Duration("interval", 10*time.Second, "chunk interval (create)")
	epochMS := flag.Int64("epoch", 0, "stream epoch, Unix ms (create; 0 = now). Streams queried together need the same epoch")
	chunks := flag.Int("chunks", 60, "chunks to ingest (ingest)")
	window := flag.Uint64("window", 6, "window size in chunks (series)")
	keyPath := flag.String("keys", "", "key file path(s), comma-separated like -stream (default <stream>.tckeys each)")
	timeout := flag.Duration("timeout", time.Minute, "per-command deadline, carried to the server over the wire (0 = none)")
	members := flag.String("members", "", "comma-separated ring membership (reshard)")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: timecrypt-cli [flags] create|ingest|stat|stats|series|watch|info|delete|topology|reshard|replicas")
	}
	streams := strings.Split(*stream, ",")
	keyPaths := make([]string, len(streams))
	if *keyPath != "" {
		given := strings.Split(*keyPath, ",")
		if len(given) != len(streams) {
			log.Fatalf("-keys lists %d files for %d streams", len(given), len(streams))
		}
		copy(keyPaths, given)
	} else {
		for i, s := range streams {
			keyPaths[i] = s + ".tckeys"
		}
	}

	var addrs []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("-addr names no server")
	}
	tr, err := client.DialTCPFailover(addrs, client.SessionOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()

	// reshard migrates data and can legitimately run far past the default
	// command deadline: it gets no deadline unless -timeout was set
	// explicitly (the wire deadline would cancel and roll back the
	// migration server-side).
	timeoutSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "timeout" {
			timeoutSet = true
		}
	})
	ctx := context.Background()
	if *timeout > 0 && (flag.Arg(0) != "reshard" || timeoutSet) {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Only the query commands understand multiple streams; failing loudly
	// beats silently acting on the first one.
	single := func(cmd string) {
		if len(streams) != 1 {
			log.Fatalf("%s takes a single -stream (got %d: %s)", cmd, len(streams), *stream)
		}
	}
	owner := client.NewOwner(tr)
	switch cmd := flag.Arg(0); cmd {
	case "create":
		single(cmd)
		doCreate(ctx, owner, streams[0], interval.Milliseconds(), *epochMS, keyPaths[0])
	case "ingest":
		single(cmd)
		doIngest(ctx, owner, keyPaths[0], *chunks)
	case "stat", "stats":
		doStats(ctx, owner, keyPaths, 0)
	case "series":
		doStats(ctx, owner, keyPaths, *window)
	case "watch":
		doWatch(ctx, owner, keyPaths, *window)
	case "info":
		single(cmd)
		doInfo(ctx, tr, streams[0])
	case "delete":
		single(cmd)
		if err := owner.DeleteStream(ctx, streams[0]); err != nil {
			log.Fatal(err)
		}
		fmt.Println("deleted", streams[0])
	case "topology":
		doTopology(ctx, tr)
	case "replicas":
		doReplicas(ctx, addrs)
	case "reshard":
		doReshard(ctx, tr, *members)
	default:
		log.Fatalf("unknown command %q", cmd)
	}
}

func doTopology(ctx context.Context, tr client.Transport) {
	resp, err := tr.RoundTrip(ctx, &wire.TopologyInfo{})
	if err != nil {
		log.Fatal(err)
	}
	ti, ok := resp.(*wire.TopologyInfoResp)
	if !ok {
		fatalResp(resp)
	}
	fmt.Printf("topology epoch %d, %d members\n", ti.Epoch, len(ti.Members))
	for _, m := range ti.Members {
		fmt.Printf("  %s\n", m)
	}
}

// doReplicas probes every address with a LeaseInfo round trip and prints
// each member's replication role. Given a single address, the rest of the
// group is discovered from that member's view.
func doReplicas(ctx context.Context, addrs []string) {
	probe := func(addr string) (*wire.LeaseInfoResp, error) {
		tr, err := client.DialTCP(addr)
		if err != nil {
			return nil, err
		}
		defer tr.Close()
		resp, err := tr.RoundTrip(ctx, &wire.LeaseInfo{})
		if err != nil {
			return nil, err
		}
		li, ok := resp.(*wire.LeaseInfoResp)
		if !ok {
			if e, isErr := resp.(*wire.Error); isErr {
				return nil, fmt.Errorf("%v (probe group members directly, not a router)", e)
			}
			return nil, fmt.Errorf("unexpected response %T", resp)
		}
		return li, nil
	}
	roleName := map[uint8]string{
		wire.ReplStandalone: "standalone",
		wire.ReplLeader:     "leader",
		wire.ReplFollower:   "follower",
		wire.ReplDeposed:    "deposed",
	}
	views := make(map[string]*wire.LeaseInfoResp)
	errs := make(map[string]error)
	queue := append([]string(nil), addrs...)
	for i := 0; i < len(queue); i++ {
		a := queue[i]
		if _, seen := views[a]; seen {
			continue
		}
		if _, seen := errs[a]; seen {
			continue
		}
		li, err := probe(a)
		if err != nil {
			errs[a] = err
			continue
		}
		views[a] = li
		for _, m := range li.Members {
			queue = append(queue, m)
		}
		if li.Leader != "" {
			queue = append(queue, li.Leader)
		}
	}
	if len(views) == 0 {
		for a, err := range errs {
			log.Printf("%s: %v", a, err)
		}
		log.Fatal("no replication group member answered")
	}
	for _, a := range queue {
		li, ok := views[a]
		if !ok {
			continue
		}
		delete(views, a) // print each member once, in discovery order
		role := roleName[li.Role]
		if role == "" {
			role = fmt.Sprintf("role-%d", li.Role)
		}
		fmt.Printf("%-22s %-10s epoch %-4d watermark %-8d lease %s", a, role, li.Epoch, li.Watermark, time.Duration(li.LeaseMS)*time.Millisecond)
		if li.Mode == wire.ReplModeQuorum {
			fmt.Printf("  mode quorum")
			if li.Quorum > 0 {
				fmt.Printf(" (%d to ack)", li.Quorum)
			}
		}
		if li.Leader != "" && li.Leader != a {
			fmt.Printf("  -> leader %s", li.Leader)
		}
		fmt.Println()
	}
	for a, err := range errs {
		fmt.Printf("%-22s unreachable: %v\n", a, err)
	}
}

// doReshard changes the ring membership to exactly the -members list; the
// router migrates every stream whose ownership changed while serving.
func doReshard(ctx context.Context, tr client.Transport, memberList string) {
	var members []string
	for _, m := range strings.Split(memberList, ",") {
		if m = strings.TrimSpace(m); m != "" {
			members = append(members, m)
		}
	}
	if len(members) == 0 {
		log.Fatal("reshard needs -members host1:port,host2:port,...")
	}
	resp, err := tr.RoundTrip(ctx, &wire.Reshard{Members: members})
	if err != nil {
		log.Fatal(err)
	}
	ti, ok := resp.(*wire.TopologyInfoResp)
	if !ok {
		fatalResp(resp)
	}
	fmt.Printf("resharded: epoch %d, %d members\n", ti.Epoch, len(ti.Members))
	for _, m := range ti.Members {
		fmt.Printf("  %s\n", m)
	}
}

// fatalResp reports a non-success response and exits; it tolerates
// unexpected message types instead of panicking on a bad assertion.
func fatalResp(resp wire.Message) {
	if e, ok := resp.(*wire.Error); ok {
		log.Fatal(e)
	}
	log.Fatalf("unexpected server response %T", resp)
}

func loadKeys(path string) keyFile {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("reading key file (run create first): %v", err)
	}
	var kf keyFile
	if err := json.Unmarshal(data, &kf); err != nil {
		log.Fatalf("parsing key file: %v", err)
	}
	return kf
}

func saveKeys(path string, kf keyFile) {
	data, err := json.MarshalIndent(kf, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o600); err != nil {
		log.Fatal(err)
	}
}

// openStream restores the owner handle of a key file's stream: the key
// tree comes from the file, everything else from the server.
func openStream(ctx context.Context, owner *client.Owner, path string) (*client.OwnerStream, keyFile) {
	kf := loadKeys(path)
	var seed core.Node
	copy(seed[:], kf.Seed)
	s, err := owner.OpenStream(ctx, kf.UUID, seed, kf.Height)
	if err != nil {
		log.Fatal(err)
	}
	return s, kf
}

// openPlan restores every key file's stream and plans one query over all
// of them. It returns the first key file and the shortest member's count.
func openPlan(ctx context.Context, owner *client.Owner, keyPaths []string) (*client.QueryBuilder, keyFile, uint64) {
	var q *client.QueryBuilder
	var kf keyFile
	var count uint64
	for i, path := range keyPaths {
		s, k := openStream(ctx, owner, path)
		if i == 0 {
			q, kf, count = s.Query(), k, s.Count()
		} else {
			q.Streams(s)
			count = min(count, s.Count())
		}
	}
	return q, kf, count
}

func doCreate(ctx context.Context, owner *client.Owner, stream string, intervalMS, epoch int64, keyPath string) {
	if epoch == 0 {
		epoch = time.Now().UnixMilli()
	}
	s, err := owner.CreateStream(ctx, client.StreamOptions{
		UUID: stream, Epoch: epoch, Interval: intervalMS, Meta: "timecrypt-cli stream",
	})
	if err != nil {
		log.Fatal(err)
	}
	seed := s.TreeSeed()
	saveKeys(keyPath, keyFile{
		UUID: stream, Seed: seed[:], Height: core.DefaultTreeHeight,
		Epoch: epoch, Interval: intervalMS,
	})
	fmt.Printf("created stream %q (Δ=%dms); keys in %s\n", stream, intervalMS, keyPath)
}

// doIngest appends n synthetic chunks after the last one the server holds.
func doIngest(ctx context.Context, owner *client.Owner, keyPath string, n int) {
	s, kf := openStream(ctx, owner, keyPath)
	gen := workload.NewMHealth(42)
	// Chunks ship in Batch envelopes: one round trip per 64 chunks instead
	// of one per chunk.
	w, err := s.Writer(ctx, client.WriterOptions{BatchChunks: 64})
	if err != nil {
		log.Fatal(err)
	}
	first := s.Count()
	for i := range uint64(n) {
		if err := w.AppendChunk(gen.Chunk(first+i, kf.Epoch, kf.Interval)); err != nil {
			log.Fatal(errors.Join(err, w.Close()))
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d chunks (%d records); stream at %d chunks\n",
		n, n*gen.PointsPerChunk(), s.Count())
}

// doStats queries one or many streams: with several key files the server
// returns the homomorphically combined aggregate and decryption peels
// each stream's keystream in turn.
func doStats(ctx context.Context, owner *client.Owner, keyPaths []string, window uint64) {
	q, kf, count := openPlan(ctx, owner, keyPaths)
	aggs, err := q.Range(kf.Epoch, kf.Epoch+int64(count)*kf.Interval).Window(window).Aggs(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range aggs {
		r := a.Result()
		fmt.Printf("[%s +%d chunks] streams=%d count=%d sum=%d mean=%.2f stdev=%.2f min∈[%d,%d) max∈[%d,%d)\n",
			time.UnixMilli(a.Start).Format(time.TimeOnly), a.ToChunk-a.FromChunk, a.StreamCount,
			r.Count, r.Sum, r.Mean, r.Stdev, r.MinLo, r.MinHi, r.MaxLo, r.MaxHi)
	}
}

// doWatch subscribes to the live window aggregates of one or many streams:
// instead of polling like doStats, the server pushes one encrypted delta
// per completed -window chunks. The -timeout deadline bounds the watch and
// expiring it is a clean exit, not an error.
func doWatch(ctx context.Context, owner *client.Owner, keyPaths []string, window uint64) {
	if window == 0 {
		log.Fatal("watch needs -window > 0")
	}
	q, _, _ := openPlan(ctx, owner, keyPaths)
	sub, err := q.Window(window).Subscribe(ctx)
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()
	fmt.Printf("watching %d stream(s) from window %d (%d chunks per window; -timeout or Ctrl-C ends)\n",
		len(keyPaths), sub.FirstSeq(), window)
	for sub.Next() {
		d := sub.Delta()
		r := d.Agg.Result()
		tag := ""
		if d.Resync {
			tag = " (resync)"
		}
		fmt.Printf("[window %d @ %s] streams=%d count=%d sum=%d mean=%.2f stdev=%.2f%s\n",
			d.Seq, time.UnixMilli(d.Agg.Start).Format(time.TimeOnly), d.Agg.StreamCount,
			r.Count, r.Sum, r.Mean, r.Stdev, tag)
	}
	// The deadline travels to the server, which may end the subscription
	// with its own cancellation error before the local context expires.
	var we *wire.Error
	switch err := sub.Err(); {
	case ctx.Err() != nil, errors.As(err, &we) && we.Code == wire.CodeCanceled:
		fmt.Println("watch deadline reached")
	case err == nil, errors.Is(err, io.EOF):
		fmt.Println("server ended the subscription")
	default:
		log.Fatal(err)
	}
}

func doInfo(ctx context.Context, tr client.Transport, stream string) {
	resp, err := tr.RoundTrip(ctx, &wire.StreamInfo{UUID: stream})
	if err != nil {
		log.Fatal(err)
	}
	info, ok := resp.(*wire.StreamInfoResp)
	if !ok {
		fatalResp(resp)
	}
	fmt.Printf("stream %q: epoch=%s Δ=%dms chunks=%d digest-elements=%d meta=%q\n",
		stream, time.UnixMilli(info.Cfg.Epoch).Format(time.RFC3339),
		info.Cfg.Interval, info.Count, info.Cfg.VectorLen, info.Cfg.Meta)
}
