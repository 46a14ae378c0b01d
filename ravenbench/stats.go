package main

import (
	"math"
	"sort"
)

// percentileLadder lists the percentiles a timing may be reported at,
// lowest first.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// rank returns the 1-based nearest rank of the p-th percentile of n
// samples. The tolerance keeps a product that is whole in exact arithmetic
// (99.9% of 10000) from rounding up a rank.
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// quantile returns the nearest-rank p-th percentile of ascending samples
// (0 for no samples).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := rank(len(sorted), p)
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}

// beyond returns how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// tailPercentile returns the highest ladder percentile that has at least
// ten of n samples beyond it — the highest percentile a timing over n
// samples supports. ok is false when not even the median does.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range percentileLadder {
		if beyond(n, q) >= 10 {
			p, ok = q, true
		}
	}
	return p, ok
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values for
// an even count; 0 for none), as Python's statistics.median does.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio divides num by its base, reading 0 when the base is 0 (a layer the
// workload never entered: no predictions, no active lanes).
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// trimmedMean returns the mean of xs without the lowest and highest share
// of them (0 for none).
func trimmedMean(xs []float64, share float64) float64 {
	s := sorted(xs)
	k := int(share * float64(len(s)))
	s = s[k : len(s)-k]
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}
