package main

import "testing"

// ascending returns 1, 2, ..., n.
func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		wantP     float64
		wantValue float64
	}{
		{n: 1, wantP: 50, wantValue: 1},    // too few: the median
		{n: 19, wantP: 50, wantValue: 10},  // still too few for any percentile
		{n: 20, wantP: 50, wantValue: 10},  // p50 is rank 10, ten beyond
		{n: 33, wantP: 69, wantValue: 23},  // rank ceil(22.77)=23, ten beyond
		{n: 100, wantP: 90, wantValue: 90}, // rank 90, ten beyond; p91 leaves nine
		{n: 1000, wantP: 99, wantValue: 990},
		{n: 9999, wantP: 99, wantValue: 9900}, // p99.9 would leave nine
		{n: 10000, wantP: 99.9, wantValue: 9990},
	} {
		xs := ascending(tc.n)
		// Order must not matter.
		for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
			xs[i], xs[j] = xs[j], xs[i]
		}
		v, p := tailPercentile(xs)
		if p != tc.wantP || v != tc.wantValue {
			t.Errorf("n=%d: got p%g = %g, want p%g = %g", tc.n, p, v, tc.wantP, tc.wantValue)
		}
		if tc.n >= 2*minBeyond {
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, p)
			}
		}
	}
	if v, p := tailPercentile(nil); v != 0 || p != 0 {
		t.Errorf("empty: got p%g = %g, want zeros", p, v)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g, want 0", got)
	}
}
