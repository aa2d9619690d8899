package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/kv"
	"repro/internal/kv/durable"
	"repro/internal/replica"
	"repro/internal/server"
)

func quiet(string, ...any) {}

// deployment is one in-process installation of the program under test:
// real TCP listeners on 127.0.0.1:0 in front of whatever the workload
// names. Client and servers share this process's Go runtime.
type deployment struct {
	addr string // the front end clients dial
	tr   *tracer

	mem     *kv.MemStore     // backing store of the in-memory deployments
	router  *cluster.Router  // nil on the single-engine deployment
	nodes   []*replica.Node  // replication group members, leader first
	stores  []*durable.Store // one per member (or the single durable engine)
	dirs    []string         // data dir per durable store
	group   *cluster.ReplicatedShard
	tstores []*timedStore // traced deployments: one per engine store, leader/engine first

	closers []func()
}

// serve puts handler behind a new TCP listener and returns its address.
func (d *deployment) serve(h server.Handler) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	d.serveOn(lis, h)
	return lis.Addr().String(), nil
}

// serveOn serves handler on lis until the deployment is closed.
func (d *deployment) serveOn(lis net.Listener, h server.Handler) {
	srv := server.NewServer(h, quiet)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx, lis) }()
	d.closers = append(d.closers, func() {
		cancel()
		srv.Close()
		<-done
	})
}

// close tears the deployment down in reverse order of construction.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

func (d *deployment) store(owner int, s kv.Store) kv.Store {
	w := wrapStore(d.tr, owner, s)
	if ts, ok := w.(*timedStore); ok {
		d.tstores = append(d.tstores, ts)
	}
	return w
}

// deploySingle is one striped engine on a MemStore behind TCP.
func deploySingle(tr *tracer) (*deployment, error) {
	d := &deployment{tr: tr, mem: kv.NewMemStore()}
	engine, err := server.New(d.store(0, d.mem), server.Config{})
	if err != nil {
		return nil, err
	}
	d.addr, err = d.serve(wrapHandler(tr, bFront, 0, engine))
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// deploySharded is a router over n in-process engines, each on its own
// PrefixStore partition of one MemStore, behind one TCP front end.
func deploySharded(tr *tracer, n int, cacheBytes int64) (*deployment, error) {
	d := &deployment{tr: tr, mem: kv.NewMemStore()}
	shards := make([]cluster.Shard, n)
	for i := range shards {
		part := kv.NewPrefixStore(d.mem, fmt.Sprintf("s%d/", i))
		engine, err := server.New(d.store(i, part), server.Config{CacheBytes: cacheBytes})
		if err != nil {
			return nil, err
		}
		shards[i] = cluster.Shard{Name: fmt.Sprintf("shard-%d", i), Handler: wrapHandler(tr, bShard, i, engine)}
	}
	router, err := cluster.NewRouter(shards, cluster.Options{})
	if err != nil {
		return nil, err
	}
	d.router = router
	d.addr, err = d.serve(wrapHandler(tr, bFront, 0, router))
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// openDurable opens a durable store (product defaults: SyncAlways) in a
// fresh directory under tmp.
func (d *deployment) openDurable(tmp string) (*durable.Store, error) {
	dir, err := os.MkdirTemp(tmp, "data-")
	if err != nil {
		return nil, err
	}
	st, err := durable.Open(dir, durable.Options{Sync: durable.SyncAlways})
	if err != nil {
		return nil, err
	}
	d.stores = append(d.stores, st)
	d.dirs = append(d.dirs, dir)
	d.closers = append(d.closers, func() {
		st.Close()
		os.RemoveAll(dir)
	})
	return st, nil
}

// deployReplicated is a router over one quorum-acknowledged replication
// group of three members, each on its own durable store and TCP listener,
// behind a TCP front end.
func deployReplicated(tr *tracer, tmp string) (*deployment, error) {
	d := &deployment{tr: tr}
	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, err
	}
	const members = 3
	addrs := make([]string, members)
	for i := 0; i < members; i++ {
		st, err := d.openDurable(tmp)
		if err != nil {
			return fail(err)
		}
		// The node's address is only known once it listens, and it must
		// listen on the address it advertises: reserve the port first.
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		addrs[i] = lis.Addr().String()
		node, err := replica.New(d.store(i, st), server.Config{}, replica.Options{
			Self: addrs[i], Logf: quiet, Quorum: true, StoreSeq: st.CommittedSeq,
		})
		if err != nil {
			lis.Close()
			return fail(err)
		}
		d.nodes = append(d.nodes, node)
		b := bFollower
		if i == 0 {
			b = bShard
		}
		d.closers = append(d.closers, node.Close)
		d.serveOn(lis, wrapHandler(tr, b, i, node))
	}
	if err := d.nodes[0].Lead(addrs[1:]); err != nil {
		return fail(err)
	}
	sh, err := cluster.NewReplicatedShardOptions("g0", addrs, cluster.GroupOptions{Logf: quiet, Quorum: true})
	if err != nil {
		return fail(err)
	}
	d.group = sh.Handler.(*cluster.ReplicatedShard)
	d.closers = append(d.closers, func() { d.group.Close() })
	router, err := cluster.NewRouter([]cluster.Shard{sh}, cluster.Options{})
	if err != nil {
		return fail(err)
	}
	d.router = router
	if d.addr, err = d.serve(wrapHandler(tr, bFront, 0, router)); err != nil {
		return fail(err)
	}
	return d, nil
}

// deployDurableSingle is one un-replicated engine on a durable store: the
// denominator of replica.tax_ratio.
func deployDurableSingle(tmp string) (*deployment, error) {
	d := &deployment{}
	st, err := d.openDurable(tmp)
	if err != nil {
		d.close()
		return nil, err
	}
	engine, err := server.New(st, server.Config{})
	if err == nil {
		d.addr, err = d.serve(engine)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// storedBytes is what the deployment holds at rest: the MemStore's resident
// keys and values, or the leader's data directory on disk.
func (d *deployment) storedBytes() (int64, error) {
	if d.mem != nil {
		return d.mem.SizeBytes(), nil
	}
	return dirBytes(d.dirs[0])
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
