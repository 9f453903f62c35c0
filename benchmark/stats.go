package main

import (
	"math"
	"sort"
)

// median returns the middle value of vs (mean of the two middle values
// for an even count), 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the same rule as
// Python's statistics.quantiles(values, n=4) (exclusive method), so the
// spreads printed here match the ones the acceptance procedure computes.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		if n == 1 {
			return vs[0], vs[0]
		}
		return 0, 0
	}
	s := sortedCopy(vs)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 || len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs((q3 - q1) / m)
}

// tailPerMille are the candidates for the reported tail, highest first.
var tailPerMille = []int{999, 990, 950, 900, 750}

// tail returns the highest candidate percentile that still has at least
// ten samples beyond it, and its value; a sample too small for any
// candidate reports its median as p50.
func tail(sorted []float64) (pct, value float64) {
	n := len(sorted)
	for _, p := range tailPerMille {
		if beyond := n * (1000 - p) / 1000; beyond >= 10 {
			return float64(p) / 10, sorted[n-1-beyond]
		}
	}
	return 50, median(sorted)
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
