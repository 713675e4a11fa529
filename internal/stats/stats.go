// Package stats provides the summary statistics the evaluation harness
// reports: means and standard deviations (the error bars of Fig 8).
package stats

import "math"

// Mean returns the arithmetic mean (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// StdDev returns the sample standard deviation (n−1 denominator;
// 0 for fewer than two values).
func StdDev(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)-1))
}
