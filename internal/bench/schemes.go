package bench

import (
	"fmt"
	"math/big"
	"math/rand/v2"

	"repro/internal/baseline/ecelgamal"
	"repro/internal/baseline/paillier"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/kv"
)

// genTree is an in-memory k-ary aggregation tree over arbitrary ciphertext
// types, used to benchmark the strawman schemes with exactly the same index
// geometry as TimeCrypt's (index.Tree only stores uint64 vectors).
type genTree struct {
	k         uint64
	maxLevels int
	add       func(dst, src any) any // dst may be mutated and returned
	clone     func(any) any
	levels    []map[uint64]any
	count     uint64
}

func newGenTree(k uint64, maxLevels int, add func(dst, src any) any, clone func(any) any) *genTree {
	levels := make([]map[uint64]any, maxLevels+1)
	for i := range levels {
		levels[i] = make(map[uint64]any)
	}
	return &genTree{k: k, maxLevels: maxLevels, add: add, clone: clone, levels: levels}
}

func (t *genTree) Append(ct any) {
	pos := t.count
	t.levels[0][pos] = ct
	idx := pos
	for level := 1; level <= t.maxLevels; level++ {
		idx /= t.k
		if cur, ok := t.levels[level][idx]; ok {
			t.levels[level][idx] = t.add(cur, ct)
		} else {
			t.levels[level][idx] = t.clone(ct)
		}
	}
	t.count++
}

// Query aggregates [a, b) with the same maximal-aligned-node decomposition
// as index.Tree.
func (t *genTree) Query(a, b uint64) (any, error) {
	if a >= b || b > t.count {
		return nil, fmt.Errorf("bench: bad query range [%d,%d)", a, b)
	}
	var agg any
	addNode := func(level int, idx uint64) {
		node := t.levels[level][idx]
		if agg == nil {
			agg = t.clone(node)
		} else {
			agg = t.add(agg, node)
		}
	}
	level := 0
	for a < b {
		for a%t.k != 0 && a < b {
			addNode(level, a)
			a++
		}
		for b%t.k != 0 && a < b {
			b--
			addNode(level, b)
		}
		if a >= b {
			break
		}
		if level == t.maxLevels {
			for ; a < b; a++ {
				addNode(level, a)
			}
			break
		}
		a /= t.k
		b /= t.k
		level++
	}
	return agg, nil
}

// nodeCount reports how many tree nodes exist (for index-size accounting).
func (t *genTree) nodeCount() int {
	n := 0
	for _, m := range t.levels {
		n += len(m)
	}
	return n
}

// ---- Scheme adapters -------------------------------------------------

// indexBench is the per-scheme interface Table 2 and Fig. 5 exercise:
// ingest one value into the index, and run one range query end-to-end
// (including client-side encrypt before ingest and decrypt after query,
// matching the paper's methodology).
type indexBench interface {
	Name() string
	Ingest(v uint64) error
	Query(a, b uint64) (uint64, error)
	Count() uint64
	BytesPerChunk() float64
}

// u64Bench drives index.Tree for both TimeCrypt (encrypted=true: HEAC
// encrypt on ingest, outer-leaf decrypt on query) and the plaintext
// baseline (encrypted=false).
type u64Bench struct {
	name      string
	tree      *index.Tree
	store     *kv.MemStore
	enc       *core.Encryptor
	dec       *core.Encryptor
	encrypted bool
	buf       [1]uint64
}

func newU64Bench(name string, encrypted bool, fanout int, cacheBytes int64) (*u64Bench, error) {
	store := kv.NewMemStore()
	tree, err := index.Open(store, "bench", index.Config{Fanout: fanout, VectorLen: 1, CacheBytes: cacheBytes})
	if err != nil {
		return nil, err
	}
	b := &u64Bench{name: name, tree: tree, store: store, encrypted: encrypted}
	if encrypted {
		kt, err := core.NewTree(core.NewPRG(core.PRGAES), core.DefaultTreeHeight, core.Node{42})
		if err != nil {
			return nil, err
		}
		b.enc = core.NewEncryptor(kt.NewWalker())
		b.dec = core.NewEncryptor(kt.NewWalker())
	}
	return b, nil
}

func (b *u64Bench) Name() string  { return b.name }
func (b *u64Bench) Count() uint64 { return b.tree.Count() }

func (b *u64Bench) Ingest(v uint64) error {
	pos := b.tree.Count()
	b.buf[0] = v
	if b.encrypted {
		if _, err := b.enc.EncryptDigest(pos, b.buf[:], b.buf[:]); err != nil {
			return err
		}
	}
	return b.tree.Append(pos, b.buf[:])
}

func (b *u64Bench) Query(a, c uint64) (uint64, error) {
	vec, err := b.tree.Query(a, c)
	if err != nil {
		return 0, err
	}
	if b.encrypted {
		vec, err = b.dec.DecryptRange(a, c, vec, nil)
		if err != nil {
			return 0, err
		}
	}
	return vec[0], nil
}

func (b *u64Bench) BytesPerChunk() float64 {
	if b.tree.Count() == 0 {
		return 0
	}
	return float64(b.store.SizeBytes()) / float64(b.tree.Count())
}

// paillierBench drives the Paillier strawman through the generic tree.
type paillierBench struct {
	key  *paillier.PrivateKey
	tree *genTree
}

func newPaillierBench(bits, fanout, maxLevels int) (*paillierBench, error) {
	key, err := paillier.GenerateKey(bits)
	if err != nil {
		return nil, err
	}
	pb := &paillierBench{key: key}
	pb.tree = newGenTree(uint64(fanout), maxLevels,
		func(dst, src any) any { return key.AddInto(dst.(*big.Int), src.(*big.Int)) },
		func(v any) any { return new(big.Int).Set(v.(*big.Int)) },
	)
	return pb, nil
}

func (b *paillierBench) Name() string  { return "paillier" }
func (b *paillierBench) Count() uint64 { return b.tree.count }

func (b *paillierBench) Ingest(v uint64) error {
	ct, err := b.key.EncryptUint64(v)
	if err != nil {
		return err
	}
	b.tree.Append(ct)
	return nil
}

func (b *paillierBench) Query(a, c uint64) (uint64, error) {
	agg, err := b.tree.Query(a, c)
	if err != nil {
		return 0, err
	}
	m, err := b.key.DecryptCRT(agg.(*big.Int))
	if err != nil {
		return 0, err
	}
	return m.Uint64(), nil
}

func (b *paillierBench) BytesPerChunk() float64 {
	if b.tree.count == 0 {
		return 0
	}
	perNode := float64(b.key.CiphertextBytes())
	return perNode * float64(b.tree.nodeCount()) / float64(b.tree.count)
}

// ecBench drives the EC-ElGamal strawman through the generic tree.
type ecBench struct {
	key   *ecelgamal.PrivateKey
	table *ecelgamal.DlogTable
	tree  *genTree
}

func newECBench(fanout, maxLevels int, dlogMax uint64) (*ecBench, error) {
	key, err := ecelgamal.GenerateKey()
	if err != nil {
		return nil, err
	}
	baby := uint64(1) << 12
	table, err := ecelgamal.NewDlogTable(dlogMax, baby)
	if err != nil {
		return nil, err
	}
	eb := &ecBench{key: key, table: table}
	eb.tree = newGenTree(uint64(fanout), maxLevels,
		func(dst, src any) any {
			return ecelgamal.Add(dst.(*ecelgamal.Ciphertext), src.(*ecelgamal.Ciphertext))
		},
		func(v any) any {
			zero, _ := key.Encrypt(0)
			return ecelgamal.Add(zero, v.(*ecelgamal.Ciphertext))
		},
	)
	return eb, nil
}

func (b *ecBench) Name() string  { return "ec-elgamal" }
func (b *ecBench) Count() uint64 { return b.tree.count }

func (b *ecBench) Ingest(v uint64) error {
	ct, err := b.key.Encrypt(v)
	if err != nil {
		return err
	}
	b.tree.Append(ct)
	return nil
}

func (b *ecBench) Query(a, c uint64) (uint64, error) {
	agg, err := b.tree.Query(a, c)
	if err != nil {
		return 0, err
	}
	return b.key.Decrypt(agg.(*ecelgamal.Ciphertext), b.table)
}

func (b *ecBench) BytesPerChunk() float64 {
	if b.tree.count == 0 {
		return 0
	}
	return ecelgamal.CiphertextBytes * float64(b.tree.nodeCount()) / float64(b.tree.count)
}

func cloneBig(x *big.Int) *big.Int { return new(big.Int).Set(x) }

// fillIndex ingests n small values (1..5) so aggregates stay within the
// EC-ElGamal discrete-log table.
func fillIndex(b indexBench, n uint64) error {
	r := rand.New(rand.NewPCG(1, 2))
	for i := uint64(0); i < n; i++ {
		if err := b.Ingest(uint64(r.IntN(5) + 1)); err != nil {
			return err
		}
	}
	return nil
}
