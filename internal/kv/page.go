package kv

import "container/heap"

// Pair is one key/value pair returned by ScanPage.
type Pair struct {
	Key   string
	Value []byte
}

// ScanPage returns up to limit key/value pairs under prefix with keys
// strictly greater than after, in ascending key order, plus whether the
// prefix is exhausted. Store.Scan visits keys in unspecified order, so
// the page is selected in ONE pass with a bounded max-heap (O(n log
// limit) over n matching keys, values captured as the scan visits them)
// — giving callers a stable resumable iteration (pass the last returned
// key as the next call's after) over stores that do not order their
// scans. Each page costs one full prefix Scan (the Store contract has
// no ordered iteration to resume); the heap bounds the page-selection
// work, but very large prefixes are cheaper to drain with fewer, larger
// pages. A !done result always carries a non-empty page, so the last
// key is always there to resume from. Keys inserted concurrently sort
// into their position: a key ahead of the cursor appears in a later
// page, a key behind it is missed by this iteration — callers that need
// completeness re-run the iteration once the keyspace is quiescent (the
// stream migrator's frozen final round does exactly that).
//
// Values are retained past the Scan callback; every Store in this
// package hands out safe copies (MemStore copies out of its pages under
// its lock).
func ScanPage(s Store, prefix, after string, limit int) ([]Pair, bool, error) {
	if limit <= 0 {
		limit = 1024
	}
	h := &pairMaxHeap{}
	matched := 0
	err := s.Scan(prefix, func(key string, value []byte) bool {
		if key <= after {
			return true
		}
		matched++
		if h.Len() < limit {
			heap.Push(h, Pair{Key: key, Value: value})
		} else if key < (*h)[0].Key {
			(*h)[0] = Pair{Key: key, Value: value}
			heap.Fix(h, 0)
		}
		return true
	})
	if err != nil {
		return nil, false, err
	}
	page := make([]Pair, h.Len())
	for i := len(page) - 1; i >= 0; i-- {
		page[i] = heap.Pop(h).(Pair)
	}
	return page, matched <= limit, nil
}

// pairMaxHeap is a max-heap on Key: the root is the largest key kept, so
// a smaller incoming key replaces it in O(log n).
type pairMaxHeap []Pair

func (h pairMaxHeap) Len() int           { return len(h) }
func (h pairMaxHeap) Less(i, j int) bool { return h[i].Key > h[j].Key }
func (h pairMaxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pairMaxHeap) Push(x any)        { *h = append(*h, x.(Pair)) }
func (h *pairMaxHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}
