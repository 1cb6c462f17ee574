package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of values
// by the same rule as Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), so the spreads this program prints match the
// ones computed over its results. Fewer than two values give all three equal
// to the single value (or zero when empty).
func quartiles(values []float64) (q1, med, q3 float64) {
	s := sortedCopy(values)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	q := [3]float64{}
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance of values as a share of their
// median: the run-to-run noise measure the benchmark's bounds are set
// against. It is zero for a zero median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// median is the middle of values (the mean of the two middle ones for an
// even count), or zero when empty.
func median(values []float64) float64 {
	s := sortedCopy(values)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean is the arithmetic mean of values, or zero when empty.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// percentile returns the nearest-rank p-quantile of values (0 < p ≤ 1) and
// how many samples lie strictly above that rank, or zeros when empty. A
// percentile is only worth reporting when at least ten samples lie beyond
// it.
func percentile(values []float64, p float64) (v float64, beyond int) {
	s := sortedCopy(values)
	if len(s) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// summary is one timed quantity as the result reports it: the median with
// its quartiles, their spread and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
	N      int     `json:"n"`
}

func summarize(values []float64) summary {
	q1, med, q3 := quartiles(values)
	return summary{Median: med, Q1: q1, Q3: q3, Spread: spread(values), N: len(values)}
}
