package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("stddev = %v", s.Stddev)
	}
}

func TestSummarizeEvenMedian(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 {
		t.Fatalf("median = %v, want 2.5", s.Median)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Stddev != 0 || s.CI95() != 0 || s.Mean != 7 {
		t.Fatalf("singleton summary = %+v", s)
	}
}

func TestSummarizePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Summarize(nil)
}

func TestSummarizeProperties(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max && s.Stddev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Error("Mean wrong")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if !strings.Contains(s.String(), "n=3") {
		t.Errorf("String = %q", s.String())
	}
}
