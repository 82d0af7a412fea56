package kernel

import (
	"container/heap"
	"sort"
)

// LPT distributes items over n buckets with the paper's §4.1.2 heuristic:
// sort by decreasing workload, repeatedly assign the heaviest remaining
// item to the least-loaded bucket. It returns the bucket contents (indices
// into loads) and the final loads. LPT is the classic 4/3-approximation to
// makespan scheduling — fast and good enough that the paper measures ≤5 %
// spread between the fastest and slowest DPU of a rank. The host balances
// ranks and DPUs with it, and Run balances a DPU's pools.
//
// The sort is stable, so equal loads keep their input order, and the
// least-loaded bucket comes off a min-heap keyed on (load, bucket index)
// — O(items·log n) instead of a linear min-scan's O(items·n), with ties
// going to the lowest bucket exactly as the scan's strict < does (the
// differential test in lpt_test.go pins this).
func LPT(loads []int64, n int) ([][]int, []int64) {
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })

	buckets := make([][]int, n)
	sums := make([]int64, n)
	h := &bucketHeap{sums: sums, idx: make([]int, n)}
	for b := range h.idx {
		h.idx[b] = b
	}
	heap.Init(h)
	for _, idx := range order {
		best := h.idx[0]
		buckets[best] = append(buckets[best], idx)
		sums[best] += loads[idx]
		heap.Fix(h, 0)
	}
	return buckets, sums
}

// bucketHeap is a min-heap of bucket indices ordered by (current load,
// bucket index); the root is always the bucket the LPT scan would pick.
type bucketHeap struct {
	sums []int64 // shared with LPT: load per bucket
	idx  []int   // heap of bucket indices
}

func (h *bucketHeap) Len() int { return len(h.idx) }
func (h *bucketHeap) Less(a, b int) bool {
	ia, ib := h.idx[a], h.idx[b]
	if h.sums[ia] != h.sums[ib] {
		return h.sums[ia] < h.sums[ib]
	}
	return ia < ib
}
func (h *bucketHeap) Swap(a, b int) { h.idx[a], h.idx[b] = h.idx[b], h.idx[a] }
func (h *bucketHeap) Push(x any)    { h.idx = append(h.idx, x.(int)) }
func (h *bucketHeap) Pop() any {
	x := h.idx[len(h.idx)-1]
	h.idx = h.idx[:len(h.idx)-1]
	return x
}
