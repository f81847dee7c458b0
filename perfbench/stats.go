package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a reported percentile must leave beyond
// it, so that one outlier cannot be the tail metric.
const minBeyond = 10

// rank is the 1-based nearest rank of quantile p (0 < p <= 1) among n
// samples: the smallest rank whose cumulative share reaches p.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// nearestRank returns the p-quantile of xs by the nearest-rank rule and
// how many samples lie beyond its rank. xs is not modified; an empty xs
// gives NaN.
func nearestRank(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	r := rank(len(s), p)
	return s[r-1], len(s) - r
}

// tailOK reports whether n samples leave at least minBeyond samples
// beyond the p-quantile.
func tailOK(n int, p float64) bool { return n-rank(n, p) >= minBeyond }

// samplesFor is the least sample count for which tailOK(n, p) holds.
func samplesFor(p float64) int {
	n := minBeyond + 1
	for !tailOK(n, p) {
		n++
	}
	return n
}

// median is the nearest-rank median; scheduling-dependent counters are
// reported as a median with their spread, never as one run's value.
func median(xs []float64) float64 {
	v, _ := nearestRank(xs, 0.5)
	return v
}

// quartiles returns the first and third quartile by the exclusive
// method (Python's statistics.quantiles(xs, n=4)), so that spreads
// reported here read the same as a reviewer's recomputation.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median; 0 when
// every sample is equal.
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) == 0 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
