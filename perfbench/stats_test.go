package main

import (
	"math"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(values, n=4),
// the rule the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		values    []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5}, 1.5, 4, 5.5},
	} {
		q1, m, q3 := quartiles(tc.values)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(m-tc.m) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.values, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of a zero median = %v, want 0", got)
	}
}

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	var v []float64
	for i := 100; i >= 1; i-- {
		v = append(v, float64(i))
	}
	if p, beyond := percentile(v, 0.99); p != 99 || beyond != 1 {
		t.Errorf("p99 of 1..100 = %v with %d beyond, want 99 with 1", p, beyond)
	}
	if p, beyond := percentile(v, 0.5); p != 50 || beyond != 50 {
		t.Errorf("p50 of 1..100 = %v with %d beyond, want 50 with 50", p, beyond)
	}
	if p, beyond := percentile(nil, 0.5); p != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %v, %d", p, beyond)
	}
}
