// Package stats provides the small statistical toolkit AutoMap uses to
// summarize noisy mapping evaluations: means, variances, confidence
// intervals, and speedup helpers. The paper averages 7 runs during search
// and 31 runs for final reporting because individual mappings "can have
// significant variation in performance from run to run" (Section 1).
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
	Stddev float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. Panics if xs is empty (caller bug).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty sample")
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
		s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
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

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// CI95 returns the half-width of an approximate 95% confidence interval of
// the mean (normal approximation, 1.96 σ/√n).
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Stddev / math.Sqrt(float64(s.N))
}

// String formats the summary as "mean ± ci95 (n)".
func (s Summary) String() string {
	return fmt.Sprintf("%.6g ± %.2g (n=%d)", s.Mean, s.CI95(), s.N)
}
