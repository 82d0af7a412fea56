package kernel

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// lptRef is the pre-heap reference implementation: linear min-scan with
// strict <, so ties go to the lowest bucket index. The heap version must
// reproduce it assignment-for-assignment.
func lptRef(loads []int64, n int) ([][]int, []int64) {
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })

	buckets := make([][]int, n)
	sums := make([]int64, n)
	for _, idx := range order {
		best := 0
		for b := 1; b < n; b++ {
			if sums[b] < sums[best] {
				best = b
			}
		}
		buckets[best] = append(buckets[best], idx)
		sums[best] += loads[idx]
	}
	return buckets, sums
}

// TestLPTHeapMatchesReference drives the heap LPT against the linear-scan
// reference across bucket counts and load shapes — including heavy ties,
// where the (load, index) heap order must reproduce the scan's
// lowest-index preference exactly.
func TestLPTHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := []struct {
		name string
		gen  func(n int) []int64
	}{
		{"uniform", func(n int) []int64 {
			loads := make([]int64, n)
			for i := range loads {
				loads[i] = 1 + rng.Int63n(1_000_000)
			}
			return loads
		}},
		{"heavy ties", func(n int) []int64 {
			loads := make([]int64, n)
			for i := range loads {
				loads[i] = int64(1 + rng.Intn(3))
			}
			return loads
		}},
		{"all equal", func(n int) []int64 {
			loads := make([]int64, n)
			for i := range loads {
				loads[i] = 42
			}
			return loads
		}},
		{"zeros", func(n int) []int64 {
			return make([]int64, n)
		}},
	}
	for _, shape := range shapes {
		for _, buckets := range []int{1, 2, 3, 7, 64} {
			for _, items := range []int{0, 1, 5, 63, 64, 257, 1000} {
				loads := shape.gen(items)
				gotB, gotS := LPT(loads, buckets)
				wantB, wantS := lptRef(loads, buckets)
				if !reflect.DeepEqual(gotB, wantB) {
					t.Fatalf("%s n=%d items=%d: bucket contents diverge\n got %v\nwant %v",
						shape.name, buckets, items, gotB, wantB)
				}
				if !reflect.DeepEqual(gotS, wantS) {
					t.Fatalf("%s n=%d items=%d: bucket sums diverge\n got %v\nwant %v",
						shape.name, buckets, items, gotS, wantS)
				}
			}
		}
	}
}
