package host

import (
	"container/heap"
	"math/rand"
	"sort"
)

// BalancePolicy selects how pair workloads are spread over the 64 DPUs of
// a rank. The paper uses LPT (§4.1.2); the alternatives exist for the
// balance ablation, which quantifies how much the policy matters given the
// rank-completion barrier.
type BalancePolicy int

// Policies.
const (
	// BalanceLPT is the paper's heuristic: sort by decreasing workload,
	// always assign to the least-loaded DPU.
	BalanceLPT BalancePolicy = iota
	// BalanceRoundRobin deals pairs out in input order.
	BalanceRoundRobin
	// BalanceRandom assigns each pair to a uniformly random DPU.
	BalanceRandom
)

// assign distributes items (with the given workloads) over n buckets
// according to the policy.
func (p BalancePolicy) assign(loads []int64, n int, seed int64) [][]int {
	switch p {
	case BalanceRoundRobin:
		buckets := make([][]int, n)
		for i := range loads {
			buckets[i%n] = append(buckets[i%n], i)
		}
		return buckets
	case BalanceRandom:
		rng := rand.New(rand.NewSource(seed))
		buckets := make([][]int, n)
		for i := range loads {
			b := rng.Intn(n)
			buckets[b] = append(buckets[b], i)
		}
		return buckets
	default:
		buckets, _ := lpt(loads, n)
		return buckets
	}
}

// lpt distributes items over n buckets with the paper's §4.1.2 heuristic:
// sort by decreasing workload, repeatedly assign the heaviest remaining
// item to the least-loaded bucket. It returns the bucket contents (indices
// into items) and the final loads. LPT is the classic 4/3-approximation to
// makespan scheduling — fast and good enough that the paper measures ≤5 %
// spread between the fastest and slowest DPU of a rank.
//
// The least-loaded bucket comes off a min-heap keyed on (load, bucket
// index) — O(pairs·log n) instead of the linear min-scan's O(pairs·n).
// The index tie-break reproduces the scan's "strict <, so ties go to the
// lowest bucket" choice exactly, keeping the assignment bit-identical
// (the differential test in balance_test.go pins this).
func lpt(loads []int64, n int) ([][]int, []int64) {
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
	sums []int64 // shared with lpt: load per bucket
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

// LPTAssign exposes the LPT heuristic for benchmarking and external
// tooling: it distributes the given workloads over n buckets and returns
// the bucket contents (indices into loads).
func LPTAssign(loads []int64, n int) [][]int {
	buckets, _ := lpt(loads, n)
	return buckets
}
