// Command timecrypt-server runs a standalone TimeCrypt server: one or more
// untrusted engine shards over the in-memory KV store, fronted by the TCP
// protocol.
//
// Durability: -data-dir runs the store through a write-ahead log with
// group commit and compacted snapshots — every acknowledged write
// survives kill -9 (see docs/OPERATIONS.md, "Durability"). -fsync picks
// the sync policy: always (default), never, or a duration for periodic
// syncs. Without -data-dir the store lives in memory only.
//
// Usage:
//
//	timecrypt-server -addr :7733 -data-dir /var/lib/timecrypt -fsync always
//
// Scale-out: -shards N hosts N engine shards in this process, each over
// its own partition of the store, with streams placed by consistent
// hashing; -peers routes to remote timecrypt-server shards over the wire
// protocol (peers-only unless -shards is given explicitly, in which case
// the process hosts local shards alongside the peers):
//
//	timecrypt-server -addr :7733 -shards 4
//	timecrypt-server -addr :7700 -peers host1:7733,host2:7733
//
// The ring is versioned: membership changes online ("timecrypt-cli
// reshard" against a router, or -join below) and the router migrates the
// streams whose ownership changed while serving. A single-engine server
// can ask a running cluster router to add it to the ring at startup:
//
//	timecrypt-server -addr :7734 -advertise host3:7734 -join host0:7700
//
// Replication: -replicas makes a single-engine server the leader of a
// replication group, synchronously shipping its mutation log to the
// named followers; followers start with an explicitly empty -replicas=
// and serve reads while refusing writes. The routing tier names a
// replicated group in -peers with "|" between its members and fails the
// shard over to a promoted follower when the leader dies:
//
//	timecrypt-server -addr :7733 -data-dir /srv/a -replicas host2:7733
//	timecrypt-server -addr :7733 -data-dir /srv/b -replicas=       # on host2
//	timecrypt-server -addr :7700 -peers 'host1:7733|host2:7733'
//
// -quorum (groups of 3+) switches a group from availability-first
// acknowledgement to majority acknowledgement: writes are refused while
// a majority is unreachable, and no acknowledged write can be lost to a
// partition.
//
// See docs/OPERATIONS.md for the full deployment and resharding runbook
// and docs/REPLICATION.md for lease/epoch rules and failover.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/kv"
	"repro/internal/kv/durable"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", ":7733", "listen address")
	cache := flag.Int64("cache", 0, "index node cache budget in bytes per stream (0 = no cache: nodes are read in place from the store, complete inner nodes kept in per-level arrays)")
	dataDir := flag.String("data-dir", "", "directory for the durable store (WAL + snapshots); empty = in-memory only")
	fsync := flag.String("fsync", "always", "WAL sync policy: always, never, or a duration like 500ms (acks may lose up to that much on power loss)")
	shards := flag.Int("shards", 1, "engine shards hosted in this process, each over its own store partition (stable across restarts)")
	peers := flag.String("peers", "", "comma-separated remote timecrypt-server shards to route to initially (reshard to change membership online)")
	peerWindow := flag.Int("peer-window", 0, "in-flight request window per remote peer shard's multiplexed connection (0 = client default)")
	connInFlight := flag.Int("conn-inflight", 0, "max concurrently executing requests per client connection; overflow answers CodeBusy (0 = default)")
	join := flag.String("join", "", "running cluster router to ask to add this server to its ring (single-engine servers only)")
	advertise := flag.String("advertise", "", "address other cluster members dial this server at (default: -addr, with localhost for a bare :port)")
	replicas := flag.String("replicas", "", "comma-separated follower addresses this server's shard replicates to (makes it the group leader); pass -replicas '' explicitly to start as a follower awaiting its leader")
	lease := flag.Duration("lease", replica.DefaultLease, "replication leader lease; a failover waits it out before promoting a follower")
	quorum := flag.Bool("quorum", false, "quorum-acknowledged replication: the leader acks a write only after a majority of the group (itself included) applied it, and refuses writes (CodeBusy) while a majority is unreachable; needs a group of at least 3. On a routing tier, applies to every replicated -peers group")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	flag.Parse()

	replicasSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "replicas" {
			replicasSet = true
		}
	})

	if *pprofAddr != "" {
		// Profiling endpoint for the docs/PERFORMANCE.md workflow:
		// `go tool pprof http://<addr>/debug/pprof/{profile,heap,allocs}`.
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	var store kv.Store
	var mem *kv.MemStore
	var dstore *durable.Store
	if *dataDir != "" {
		policy, every, err := durable.ParseSyncPolicy(*fsync)
		if err != nil {
			log.Fatalf("bad -fsync: %v", err)
		}
		dstore, err = durable.Open(*dataDir, durable.Options{
			Sync:      policy,
			SyncEvery: every,
			Logf:      log.Printf,
		})
		if err != nil {
			log.Fatalf("opening durable store in %s: %v", *dataDir, err)
		}
		log.Printf("durable store in %s (fsync=%s): %s", *dataDir, policy, dstore.Stats())
		store = dstore
	} else {
		mem = kv.NewMemStore()
		store = mem
	}

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	nLocal := *shards
	if len(peerList) > 0 {
		// -peers without an explicit -shards means a pure routing tier:
		// a silently added local in-memory shard would own a slice of
		// the ring with no durability.
		shardsSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "shards" {
				shardsSet = true
			}
		})
		if !shardsSet {
			nLocal = 0
		}
	}
	if nLocal < 0 || (nLocal == 0 && len(peerList) == 0) {
		log.Fatalf("need at least one local shard or peer")
	}

	// The address peers and failover coordinators dial this process at.
	self := *advertise
	if self == "" {
		self = *addr
		if strings.HasPrefix(self, ":") {
			self = "localhost" + self
		}
	}

	var handler server.Handler
	var router *cluster.Router
	var rnode *replica.Node
	if replicasSet {
		if len(peerList) > 0 || nLocal != 1 {
			log.Fatalf("-replicas wraps a single-engine server; on a routing tier, name replicated groups in -peers as leader|follower[|...]")
		}
		var followerList []string
		for _, f := range strings.Split(*replicas, ",") {
			if f = strings.TrimSpace(f); f != "" {
				followerList = append(followerList, f)
			}
		}
		opts := replica.Options{Self: self, Lease: *lease, Logf: log.Printf, Quorum: *quorum}
		if dstore != nil {
			opts.StoreSeq = dstore.CommittedSeq
		}
		var err error
		rnode, err = replica.New(store, server.Config{CacheBytes: *cache}, opts)
		if err != nil {
			log.Fatalf("starting replica: %v", err)
		}
		if len(followerList) > 0 {
			// A no-op over persisted replication state: a restarted
			// ex-leader comes back deposed and rejoins as a follower once
			// the current leader resyncs it. A quorum group too small to
			// ever form a meaningful majority is a misconfiguration and
			// refuses to start.
			if err := rnode.Lead(followerList); err != nil {
				log.Fatalf("replication: %v", err)
			}
		}
		role, epoch, _ := rnode.Status()
		log.Printf("replication: role=%d epoch=%d lease=%s quorum=%v followers=%v", role, epoch, *lease, *quorum, followerList)
		handler = rnode
	} else if len(peerList) == 0 && nLocal == 1 {
		engine, err := server.New(store, server.Config{CacheBytes: *cache})
		if err != nil {
			log.Fatalf("starting engine: %v", err)
		}
		handler = engine
	} else {
		var shardCfgs []cluster.Shard
		for i := 0; i < nLocal; i++ {
			part := kv.NewPrefixStore(store, fmt.Sprintf("s%d/", i))
			engine, err := server.New(part, server.Config{CacheBytes: *cache})
			if err != nil {
				log.Fatalf("starting shard %d: %v", i, err)
			}
			shardCfgs = append(shardCfgs, cluster.Shard{Name: fmt.Sprintf("local-%d", i), Handler: engine})
		}
		for _, p := range peerList {
			var sh cluster.Shard
			var err error
			if strings.Contains(p, "|") {
				// A replicated group: leader|follower[|...]. The shard
				// follows the group's current leader and fails over.
				var members []string
				for _, m := range strings.Split(p, "|") {
					if m = strings.TrimSpace(m); m != "" {
						members = append(members, m)
					}
				}
				sh, err = cluster.NewReplicatedShardOptions(members[0], members, cluster.GroupOptions{
					InFlight: *peerWindow, Logf: log.Printf, Quorum: *quorum,
				})
			} else {
				sh, err = cluster.NewTCPShard(p, p, *peerWindow)
			}
			if err != nil {
				log.Fatalf("dialing peer shard: %v", err)
			}
			shardCfgs = append(shardCfgs, sh)
		}
		var err error
		router, err = cluster.NewRouter(shardCfgs, cluster.Options{
			// Members joining later (timecrypt-cli reshard, -join) are
			// named by address; dial them over the wire protocol.
			Dial: func(member string) (cluster.Shard, error) {
				return cluster.NewTCPShard(member, member, *peerWindow)
			},
		})
		if err != nil {
			log.Fatalf("building router: %v", err)
		}
		log.Printf("routing across %d shards (%d local, %d peers)", len(shardCfgs), nLocal, len(peerList))
		handler = router
	}

	srv := server.NewServer(handler, log.Printf)
	srv.MaxConnInFlight = *connInFlight
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listening on %s: %v", *addr, err)
	}
	log.Printf("timecrypt-server listening on %s", lis.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *join != "" {
		if router != nil {
			log.Fatalf("-join is for single-engine servers; this process hosts a router")
		}
		// Serving has started (listener is bound), so the coordinator can
		// dial back and migrate streams onto this engine immediately.
		go func() {
			if err := joinCluster(ctx, *join, self); err != nil {
				log.Printf("joining cluster via %s: %v", *join, err)
			}
		}()
	}

	if err := srv.Serve(ctx, lis); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("serve: %v", err)
	}
	if rnode != nil {
		rnode.Close()
	}
	if mem != nil {
		log.Printf("store stats: %s", mem.Stats())
	}
	if dstore != nil {
		// Flush and fsync the WAL tail so a clean shutdown is exactly as
		// durable as the policy promises under crash.
		if err := dstore.Close(); err != nil {
			log.Printf("closing durable store: %v", err)
		}
		log.Printf("durable store: %s", dstore.Stats())
	}
	if router != nil {
		for _, s := range router.Stats() {
			log.Printf("shard %s: requests=%d fanouts=%d errors=%d", s.Name, s.Requests, s.Fanouts, s.Errors)
		}
		router.Close()
	}
}

// joinCluster asks a running cluster router to add this server to its
// ring: fetch the current membership, and reshard to it plus self. The
// reshard is conditional on the fetched epoch (ExpectEpoch), so two
// servers joining concurrently cannot silently evict each other — the
// loser's compare-and-swap fails with CodeBusy and it refetches the
// (now larger) membership and retries. The router migrates every stream
// whose ownership moves here while both sides keep serving.
func joinCluster(ctx context.Context, routerAddr, self string) error {
	tr, err := client.DialTCP(routerAddr)
	if err != nil {
		return err
	}
	defer tr.Close()
	for attempt := 0; attempt < 6; attempt++ {
		resp, err := tr.RoundTrip(ctx, &wire.TopologyInfo{})
		if err != nil {
			return err
		}
		ti, ok := resp.(*wire.TopologyInfoResp)
		if !ok {
			return fmt.Errorf("unexpected topology response %v", resp)
		}
		for _, m := range ti.Members {
			if m == self {
				log.Printf("already a member of %s's ring (epoch %d)", routerAddr, ti.Epoch)
				return nil
			}
		}
		members := append(append([]string(nil), ti.Members...), self)
		resp, err = tr.RoundTrip(ctx, &wire.Reshard{Members: members, ExpectEpoch: ti.Epoch})
		if err != nil {
			return err
		}
		if e, isErr := resp.(*wire.Error); isErr {
			if e.Code == wire.CodeBusy {
				// Another reshard is running or won the epoch CAS:
				// refetch the membership and try again.
				select {
				case <-time.After(2 * time.Second):
					continue
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			return e
		}
		nt, ok := resp.(*wire.TopologyInfoResp)
		if !ok {
			return fmt.Errorf("unexpected reshard response %v", resp)
		}
		log.Printf("joined %s's ring as %s (epoch %d, %d members)", routerAddr, self, nt.Epoch, len(nt.Members))
		return nil
	}
	return fmt.Errorf("gave up joining after repeated busy answers")
}
