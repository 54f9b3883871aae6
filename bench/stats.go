package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the exclusive
// method, the one Python's statistics.quantiles(xs, n=4) uses, so a spread
// computed here matches the one the benchmark contract is checked with.
// Fewer than two samples have no quartiles: both results equal the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points, i in {1, 3}
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median:
// the noise measure every regression bound is compared with.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by the
// nearest-rank method: the smallest sample with at least p % of the sample
// at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailPercentile picks the percentile the latency_tail_ms metric reports for
// a sample of n campaigns: the highest one that still has at least ten
// samples beyond it, as a tail needs, but no higher than p90 — so that a
// build which completes more campaigns in the window is not suddenly judged
// on p99 — and the median when not even p90 qualifies (n < 100).
func tailPercentile(n int) float64 {
	if n >= 100 {
		return 90
	}
	return 50
}

// jain is Jain's fairness index (Σx)²/(n·Σx²): 1 when every share is equal,
// 1/n when one party has everything.
func jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
