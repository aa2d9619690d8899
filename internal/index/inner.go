package index

import "slices"

// innerNodes is what a tree without a node cache keeps in memory: the
// nodes above the leaves that appends completed since the tree was opened,
// in one array per level in index order. Those are one node in k−1 of the
// tree, but about half of what a query reads — the upper levels of its
// range, and the parent that aroundRun subtracts siblings from — so a
// query reads them at the cost of a slice index and goes to the store for
// its leaves. Nodes completed before the tree was opened (by an earlier
// process) are read from the store too.
//
// A complete node is final: appends only touch nodes whose span reaches
// past the tree's count. A level's array is allocated past its last
// complete node, and an append writes the nodes it completes into that
// spare room in place: a query reads only nodes complete at the count it
// started from, never the ones being written. Anything else — a level's
// first node, an array that must grow, a rollup — publishes a new version,
// and a published version's levels and spans never change.
type innerNodes struct {
	levels []innerLevel // levels[level-1]
	pruned []nodeSpan   // nodes a rollup deleted from the store
}

// innerLevel holds one level's nodes from index first on, VectorLen
// elements each.
type innerLevel struct {
	first uint64
	vecs  []uint64
}

// nodeSpan is the nodes [lo, hi) of one level.
type nodeSpan struct {
	level  int
	lo, hi uint64
}

// get returns complete node (level, idx)'s elements, or false when in does
// not hold it: in is nil, the node was completed before the tree was
// opened, or a rollup pruned it.
func (in *innerNodes) get(level int, idx uint64, vecLen int) ([]uint64, bool) {
	if in == nil || level < 1 || level > len(in.levels) {
		return nil, false
	}
	l := &in.levels[level-1]
	if idx < l.first || idx-l.first >= uint64(len(l.vecs)/vecLen) {
		return nil, false
	}
	for _, s := range in.pruned {
		if s.level == level && s.lo <= idx && idx < s.hi {
			return nil, false
		}
	}
	at := (idx - l.first) * uint64(vecLen)
	return l.vecs[at : at+uint64(vecLen)], true
}

// slot returns where node (level, idx) goes, or nil when in has no room
// for it.
func (in *innerNodes) slot(level int, idx uint64, vecLen int) []uint64 {
	if in == nil || level > len(in.levels) {
		return nil
	}
	l := &in.levels[level-1]
	at := (idx - l.first) * uint64(vecLen)
	if l.vecs == nil || at+uint64(vecLen) > uint64(len(l.vecs)) {
		return nil
	}
	return l.vecs[at : at+uint64(vecLen)]
}

// clone returns a copy of in to publish changes in; a nil in clones to an
// empty version. The copy shares in's arrays.
func (in *innerNodes) clone() *innerNodes {
	if in == nil {
		return &innerNodes{}
	}
	return &innerNodes{levels: slices.Clone(in.levels), pruned: slices.Clone(in.pruned)}
}

// grow makes room for node (level, idx), the level's next complete node,
// doubling the level's array; the level's first node starts it.
func (in *innerNodes) grow(level int, idx uint64, vecLen int) {
	for len(in.levels) < level {
		in.levels = append(in.levels, innerLevel{})
	}
	l := &in.levels[level-1]
	if l.vecs == nil {
		l.first = idx
	}
	vecs := make([]uint64, max(int(idx-l.first+1)*vecLen, 2*len(l.vecs)))
	copy(vecs, l.vecs)
	l.vecs = vecs
}

// prune records that node (level, idx) is gone from the store, extending
// the level's last span when idx adjoins it.
func (in *innerNodes) prune(level int, idx uint64) {
	for i := range in.pruned {
		if s := &in.pruned[i]; s.level == level && s.lo <= idx && idx <= s.hi {
			s.hi = max(s.hi, idx+1)
			return
		}
	}
	in.pruned = append(in.pruned, nodeSpan{level, idx, idx + 1})
}
