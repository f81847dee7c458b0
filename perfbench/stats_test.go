package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10, shuffled
	for _, c := range []struct {
		p      float64
		v      float64
		beyond int
	}{
		{0.5, 5, 5},
		{0.9, 9, 1},
		{0.91, 10, 0},
		{1, 10, 0},
		{0.01, 1, 9},
	} {
		v, beyond := nearestRank(xs, c.p)
		if v != c.v || beyond != c.beyond {
			t.Errorf("p=%v: got (%v, %d), want (%v, %d)", c.p, v, beyond, c.v, c.beyond)
		}
	}
	if xs[0] != 5 {
		t.Error("nearestRank sorted its input in place")
	}
	if v, _ := nearestRank(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("empty input: got %v, want NaN", v)
	}
	// A failed op is +Inf and must land in the tail, not vanish.
	v, _ := nearestRank([]float64{1, 2, math.Inf(1)}, 1)
	if !math.IsInf(v, 1) {
		t.Errorf("failed op: p100 = %v, want +Inf", v)
	}
}

func TestTailRule(t *testing.T) {
	// p90 leaves >= 10 samples beyond it from 100 samples on.
	for n, want := range map[int]bool{10: false, 99: false, 100: true, 101: true, 500: true} {
		if got := tailOK(n, 0.9); got != want {
			t.Errorf("tailOK(%d, 0.9) = %v, want %v", n, got, want)
		}
	}
	if got := samplesFor(0.9); got != 100 {
		t.Errorf("samplesFor(0.9) = %d, want 100", got)
	}
	if got := samplesFor(0.99); got != 1000 {
		t.Errorf("samplesFor(0.99) = %d, want 1000", got)
	}
	xs := make([]float64, samplesFor(0.9))
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, beyond := nearestRank(xs, 0.9); beyond < minBeyond {
		t.Errorf("%d samples leave %d beyond p90", len(xs), beyond)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if s := spread([]float64{3, 3, 3}); s != 0 {
		t.Errorf("spread of equal samples = %v", s)
	}
}
