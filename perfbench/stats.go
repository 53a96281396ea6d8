package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank index of percentile q among n
// samples. The epsilon keeps a product such as 0.9×500, which is
// 450.00000000000006 in floating point, at rank 450.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// tail reports the highest ladder percentile with at least minBeyond
// samples beyond it, and its nearest-rank value. ok is false when even
// the median has fewer than minBeyond samples beyond it.
func tail(samples []float64) (q, v float64, ok bool) {
	s := sorted(samples)
	for _, c := range tailLadder {
		if r := rank(c, len(s)); len(s)-r >= minBeyond {
			q, v, ok = c, s[r-1], true
		}
	}
	return q, v, ok
}

// percentile is the nearest-rank value of percentile q (0 with no samples).
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sorted(samples)
	return s[rank(q, len(s))-1]
}

// median is the middle sample, or the mean of the two middle samples.
func median(samples []float64) float64 {
	s := sorted(samples)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}
