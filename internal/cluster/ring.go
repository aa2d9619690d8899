// Package cluster shards one logical TimeCrypt service across several
// server engines. The paper positions TimeCrypt instances as stateless and
// horizontally scalable (§3.2) over "any scalable key-value store" (§4.6);
// this package supplies the routing tier that makes that concrete.
//
// # Design
//
// Placement is per stream: a consistent-hash ring with virtual nodes maps
// each stream UUID to exactly one engine shard, so every stream's chunks,
// index nodes, grants, and envelopes live together and all single-stream
// operations are single-shard. The Router implements the server.Handler
// contract (so it can sit behind the TCP front end in place of an engine)
// and the client Transport contract (so unmodified Owner/Consumer clients
// can drive it in-process). Shards are server.Handler values themselves:
// in-process *server.Engine instances, remote engines reached over the
// wire protocol (NewTCPShard), or even nested routers.
//
// Two operations cross shards. Inter-stream queries (AggRange, and
// StatRange as a full-vector AggRange) whose UUIDs land on different
// shards are fanned out per shard and the encrypted aggregates are
// homomorphically summed by the router — valid because HEAC ciphertext
// addition is plain uint64 vector addition, exactly what a single engine
// does across streams. When shards clamp to different chunk windows
// (uneven ingest), a pass over StreamInfo clamps the query range to the
// shortest stream and the wave repeats. ListStreams is fanned out to all
// shards and merged.
//
// Ring hashing is deterministic (FNV-1a), so any router over the same
// shard names computes the same placement. Membership is versioned
// (Topology epochs): Router.Rebalance changes the ring while serving,
// migrating the streams whose ownership changed (live copy rounds, a
// brief per-stream freeze, then handoff — see migrate.go), and routers
// holding a stale ring recover from CodeWrongShard answers by refreshing
// the topology from the shards. docs/ARCHITECTURE.md diagrams the
// migration path.
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
)

// virtualNodes is the per-shard virtual node count. 128 points per shard
// keeps the expected load imbalance across shards within a few percent.
const virtualNodes = 128

// Ring is a consistent-hash ring mapping keys (stream UUIDs) onto named
// nodes via virtual nodes. It is immutable after construction and safe for
// concurrent use.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	// FNV-1a alone clusters similar keys: two strings differing only in
	// the final byte hash within 256·prime (< 2^48) of each other, closer
	// than the ~2^55 gap between ring points, so sequential stream UUIDs
	// would all land on one shard. A 64-bit avalanche finalizer
	// (murmur3's fmix64) spreads them over the whole ring.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// NewRing places virtualNodes virtual nodes per node on the ring. Node
// names must be unique and non-empty.
func NewRing(nodes []string) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: ring needs at least one node")
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{points: make([]ringPoint, 0, len(nodes)*virtualNodes)}
	for _, node := range nodes {
		if node == "" {
			return nil, errors.New("cluster: empty node name")
		}
		if seen[node] {
			return nil, fmt.Errorf("cluster: duplicate node %q", node)
		}
		seen[node] = true
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", node, v)), node: node})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Owner returns the node owning key: the first virtual node at or after
// the key's hash, wrapping around the ring.
func (r *Ring) Owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}
