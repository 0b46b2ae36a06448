package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("Intn(10) value %d appeared %d/10000 times", v, c)
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		v := New(seed).Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(123)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestUnitMeanLogNormal(t *testing.T) {
	r := New(99)
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.UnitMeanLogNormal(0.1)
		if v <= 0 {
			t.Fatalf("log-normal produced %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-1) > 0.01 {
		t.Errorf("unit-mean log-normal mean = %v", mean)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r RNG
	_ = r.Uint64() // must not panic
}
