package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of an empty sample should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4), the
// function the benchmark contract's spread is computed with.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 1, 9, 3, 7, 11, 2}, 2, 9},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %g, want 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one sample = %g, want 0", got)
	}
	if got := spread([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("spread of a constant = %g, want 0", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30, 60, 70, 80, 100, 90}
	for _, tc := range []struct{ p, want float64 }{{0, 10}, {50, 50}, {90, 90}, {91, 100}, {100, 100}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
}

// A tail percentile needs ten samples beyond it: p90 from a hundred
// campaigns on, the median below that, and never more than p90.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{4, 50}, {31, 50}, {99, 50}, {100, 90}, {600, 90}, {1000, 90}, {100000, 90},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if beyond := float64(tc.n) * (100 - tailPercentile(tc.n)) / 100; tailPercentile(tc.n) > 50 && beyond < 10 {
			t.Errorf("n = %d: only %g samples beyond p%g", tc.n, beyond, tailPercentile(tc.n))
		}
	}
}

func TestJain(t *testing.T) {
	if got := jain([]float64{2, 2, 2}); !near(got, 1) {
		t.Errorf("equal shares: jain = %g, want 1", got)
	}
	if got := jain([]float64{6, 0, 0}); !near(got, 1.0/3) {
		t.Errorf("one party has everything: jain = %g, want 1/3", got)
	}
	if got := jain([]float64{0, 0}); got != 0 {
		t.Errorf("no service at all: jain = %g, want 0", got)
	}
}
