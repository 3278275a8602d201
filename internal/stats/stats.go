// Package stats provides the small summary statistics used by the
// measurement experiments (Figure 11's run-to-run variability protocol):
// mean, standard deviation, extrema and the max-gap metric the paper uses
// ("the maximum gap between two runs ... is around 6%").
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of measurements.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes the summary of xs. It panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// MaxGap returns the paper's Figure 11 metric: (max − min)/min, the
// largest relative difference between two runs of the same experiment.
func MaxGap(xs []float64) float64 {
	s := Summarize(xs)
	if s.Min == 0 {
		return math.Inf(1)
	}
	return (s.Max - s.Min) / s.Min
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g std=%.3g min=%.6g max=%.6g", s.N, s.Mean, s.Std, s.Min, s.Max)
}
