package host

import (
	"math/rand"

	"pimnw/internal/kernel"
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
		return LPTAssign(loads, n)
	}
}

// LPTAssign is kernel.LPT without the bucket loads: it distributes the
// given workloads over n buckets and returns the bucket contents (indices
// into loads).
func LPTAssign(loads []int64, n int) [][]int {
	buckets, _ := kernel.LPT(loads, n)
	return buckets
}
