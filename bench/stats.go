//go:build linux

package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between order statistics; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (rank-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile picks the highest of p90, p75 and p50 that still has
// at least ten of n samples beyond it, so the reported tail is never
// set by a handful of jobs. Below twenty samples nothing qualifies and
// the median is all there is.
func tailPercentile(n int) int {
	for _, p := range []int{90, 75} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
