package library

import (
	"bytes"
	"container/heap"
	"sort"
)

// The reference implementations the sort and merge kernels are tested
// against: boxed pairs, a full (key, value) comparator under sort.Slice,
// and a container/heap merge over BufferReaders — what the shuffle ran
// before the prefix index sort and the typed run merge replaced them.

// pair is a boxed KV pair.
type pair struct {
	k, v []byte
}

// compareKV orders pairs by key then value.
func compareKV(a, b pair) int {
	if c := bytes.Compare(a.k, b.k); c != 0 {
		return c
	}
	return bytes.Compare(a.v, b.v)
}

// sortPairs sorts in place by (key, value).
func sortPairs(ps []pair) {
	sort.Slice(ps, func(i, j int) bool { return compareKV(ps[i], ps[j]) < 0 })
}

// encodePairs encodes pairs into one buffer.
func encodePairs(ps []pair) []byte {
	var buf []byte
	for _, p := range ps {
		buf = AppendRecord(buf, p.k, p.v)
	}
	return buf
}

// runHeap is a container/heap of run readers ordered by current record.
type runHeap []*BufferReader

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	return compareKV(pair{h[i].Key(), h[i].Value()}, pair{h[j].Key(), h[j].Value()}) < 0
}
func (h runHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)   { *h = append(*h, x.(*BufferReader)) }
func (h *runHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// heapMergePairs k-way merges sorted encoded runs with container/heap.
func heapMergePairs(runs [][]byte) []pair {
	var h runHeap
	for _, run := range runs {
		if r := NewBufferReader(run); r.Next() {
			h = append(h, r)
		}
	}
	heap.Init(&h)
	var out []pair
	for h.Len() > 0 {
		r := h[0]
		out = append(out, pair{r.Key(), r.Value()})
		if r.Next() {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}
