package main

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

func testSteps() []loadStep {
	return []loadStep{{rate: 300, dur: 2 * time.Second}, {rate: 600, dur: 4 * time.Second}}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a := buildSchedule(7, testSteps(), warmCount, serveMix)
	b := buildSchedule(7, testSteps(), warmCount, serveMix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different schedules")
	}
	c := buildSchedule(8, testSteps(), warmCount, serveMix)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 produced the same schedule")
	}
}

func TestScheduleShape(t *testing.T) {
	steps := testSteps()
	ops := buildSchedule(3, steps, warmCount, serveMix)
	if !sort.SliceIsSorted(ops, func(i, j int) bool { return ops[i].due < ops[j].due }) {
		t.Error("schedule is not in due order")
	}
	perStep := make([]int, len(steps))
	kinds := make(map[opKind]int)
	for i, op := range ops {
		var lo time.Duration
		for s := 0; s < op.step; s++ {
			lo += steps[s].dur
		}
		if op.due < lo || op.due >= lo+steps[op.step].dur {
			t.Fatalf("op %d due %v outside step %d", i, op.due, op.step)
		}
		if op.warm < 0 || op.warm >= warmCount {
			t.Fatalf("op %d names warm request %d of %d", i, op.warm, warmCount)
		}
		if (op.kind == opCold) != ((i+1)%serveMix.coldEvery == 0) {
			t.Fatalf("op %d: cold submits must be exactly every %dth request", i, serveMix.coldEvery)
		}
		perStep[op.step]++
		kinds[op.kind]++
	}
	for s, st := range steps {
		want := st.rate * st.dur.Seconds()
		if got := float64(perStep[s]); got < 0.85*want || got > 1.15*want {
			t.Errorf("step %d: %v arrivals, want about %v", s, got, want)
		}
	}
	readShare := float64(kinds[opRead]) / float64(len(ops))
	if readShare < 0.15 || readShare > 0.25 {
		t.Errorf("read share %.3f, want about %.2f", readShare, serveMix.read)
	}
}

func TestSeedOrderPassesArePermutations(t *testing.T) {
	pool := []uint64{4, 5, 7, 8, 11}
	a := newSeedOrder("w", 1, pool)
	b := newSeedOrder("w", 1, pool)
	for pass := 0; pass < 3; pass++ {
		pa, pb := a.pass(), b.pass()
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("pass %d differs between two orders with the same seed", pass)
		}
		got := append([]uint64(nil), pa...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if !reflect.DeepEqual(got, pool) {
			t.Fatalf("pass %d = %v is not a permutation of %v", pass, pa, pool)
		}
	}
}
