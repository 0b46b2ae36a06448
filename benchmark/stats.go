package main

import (
	"crypto/sha256"
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// newRand returns the generator of one input stream of a run: seeded by
// the workload seed and the stream's name, so streams are independent and
// each is a pure function of the seed.
func newRand(seed uint64, stream string) *rand.Rand {
	sum := sha256.Sum256([]byte(stream))
	var h uint64
	for _, b := range sum[:8] {
		h = h<<8 | uint64(b)
	}
	return rand.New(rand.NewPCG(seed, h))
}

// median returns the median of xs (the mean of the two middle values for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the candidate percentiles for tailPercentile, lowest
// first: every whole percent from the median to p99, then p99.9.
var tailPercentiles = func() []float64 {
	var ps []float64
	for p := 50; p <= 99; p++ {
		ps = append(ps, float64(p))
	}
	return append(ps, 99.9)
}()

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPercentile reports the highest percentile of xs that has at least
// minBeyond samples beyond it, using nearest-rank percentiles: percentile p
// of n samples is the ceil(p/100*n)-th smallest, and the samples beyond it
// are the n-rank larger ones. With fewer than 2*minBeyond samples no
// percentile qualifies and the median is returned (p = 50), so callers
// always get a value; they report p beside it. An empty slice yields (0, 0).
func tailPercentile(xs []float64) (value, p float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	value, p = median(xs), 50
	for _, q := range tailPercentiles {
		// The epsilon keeps binary rounding of q (99.9) from bumping an
		// exact rank up by one.
		rank := int(math.Ceil(q*float64(n)/100 - 1e-9))
		if rank < 1 {
			rank = 1
		}
		if n-rank < minBeyond {
			break
		}
		value, p = s[rank-1], q
	}
	return value, p
}

// safeDiv returns a/b, or 0 when b is 0 (a ratio with nothing counted).
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// secs converts a duration to float seconds.
func secs(d time.Duration) float64 { return d.Seconds() }
