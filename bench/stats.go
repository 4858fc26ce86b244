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

// quantile returns the q-quantile (0..1) of ascending s by linear
// interpolation between closest ranks; NaN when s is empty.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is what the acceptance rule for this
// benchmark is stated in. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the inter-quartile distance as a share of the median.
func spreadShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / q2)
}

// tailLadder holds the tail percentiles a timing may be reported at, as
// "one sample in k lies beyond": p50, p90, p99, p99.9, p99.99.
var tailLadder = []int{2, 10, 100, 1000, 10000}

// highestPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it, so the tail figure is never a single
// outlier. With fewer than 100 samples only the median qualifies.
func highestPercentile(n int) float64 {
	best := tailLadder[0]
	for _, k := range tailLadder {
		if n/k >= 10 {
			best = k
		}
	}
	return 1 - 1/float64(best)
}
