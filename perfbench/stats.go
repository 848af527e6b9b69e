package main

import (
	"math"
	"sort"
)

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile returns the highest whole percentile that leaves at
// least ten samples beyond it, and false when there are too few samples
// for any percentile above the median to qualify.
func tailPercentile(n int) (int, bool) {
	p := int(math.Floor(100 * float64(n-10) / float64(n)))
	if n <= 10 || p <= 50 {
		return 0, false
	}
	return p, true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
