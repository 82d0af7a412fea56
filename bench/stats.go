package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending-sorted sample: the smallest value with at least p·n samples
// at or below it. An empty sample reads 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly past the p-quantile's rank — the
// choosing-metrics rule wants at least ten there before a percentile is
// trusted; fewer is reported as low_n.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles cuts a sample the way Python's statistics.quantiles(v, n=4)
// does (the "exclusive" method), so the spreads -selfcheck prints are the
// ones the benchmark's acceptance rule is stated in. Samples of fewer
// than two values have no spread: all three cuts read the value itself.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4 // outside [0,4] at the clamps: Python extrapolates there
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the inter-quartile distance as a share of the median —
// the run-to-run spread the bounds in BENCHMARK.json are audited against.
func spreadShare(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// selfTime is a ladder rung's own cost: the rung's median minus the
// median of the rung below it, both taken over interleaved repetitions.
// A difference smaller than the rung's own inter-quartile spread cannot
// be told from noise: it is reported, clamped at zero, as unresolved
// rather than as a small (or negative) number.
func selfTime(rung, next []float64) (self float64, unresolved bool) {
	q1, m, q3 := quartiles(rung)
	self = m - median(next)
	if self < q3-q1 {
		unresolved = true
	}
	if self < 0 {
		self = 0
	}
	return self, unresolved
}
