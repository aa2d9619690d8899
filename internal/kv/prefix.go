package kv

import "strings"

// PrefixStore namespaces a Store under a fixed key prefix, so several
// engine shards can partition one backing store (one in-memory store, or
// one durable store with a single WAL) without key collisions. Len and
// SizeBytes report only the partition's keys; Close is a no-op because the
// base store is shared.
type PrefixStore struct {
	base   Store
	prefix string
}

// NewPrefixStore wraps base; every key is stored as prefix+key.
func NewPrefixStore(base Store, prefix string) *PrefixStore {
	return &PrefixStore{base: base, prefix: prefix}
}

// Get implements Store.
func (p *PrefixStore) Get(key string) ([]byte, error) { return p.base.Get(p.prefix + key) }

// GetShallow implements ShallowGetter when the base store does; on any
// other base it is Get.
func (p *PrefixStore) GetShallow(key string) ([]byte, error) {
	if base, ok := p.base.(ShallowGetter); ok {
		return base.GetShallow(p.prefix + key)
	}
	return p.Get(key)
}

// Put implements Store.
func (p *PrefixStore) Put(key string, value []byte) error { return p.base.Put(p.prefix+key, value) }

// Delete implements Store.
func (p *PrefixStore) Delete(key string) error { return p.base.Delete(p.prefix + key) }

// Batch implements Store.
func (p *PrefixStore) Batch(ops []Op) error {
	mapped := make([]Op, len(ops))
	for i, op := range ops {
		mapped[i] = Op{Kind: op.Kind, Key: p.prefix + op.Key, Value: op.Value}
	}
	return p.base.Batch(mapped)
}

// Scan implements Store; callbacks see keys with the partition prefix
// stripped.
func (p *PrefixStore) Scan(prefix string, fn func(key string, value []byte) bool) error {
	return p.base.Scan(p.prefix+prefix, func(key string, value []byte) bool {
		return fn(strings.TrimPrefix(key, p.prefix), value)
	})
}

// Len implements Store: the number of keys in this partition.
func (p *PrefixStore) Len() int {
	n := 0
	p.base.Scan(p.prefix, func(string, []byte) bool { n++; return true })
	return n
}

// SizeBytes implements Store: the resident size of this partition's keys
// and values (excluding the shared prefix overhead accounting of the base).
func (p *PrefixStore) SizeBytes() int64 {
	var n int64
	p.base.Scan(p.prefix, func(key string, value []byte) bool {
		n += int64(len(key) - len(p.prefix) + len(value))
		return true
	})
	return n
}

// Close implements Store as a no-op: the base store is shared across
// partitions and closed by its owner.
func (p *PrefixStore) Close() error { return nil }
