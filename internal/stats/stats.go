// Package stats provides the small set of descriptive statistics and
// regression helpers the experimental methodology of the paper needs
// (repeated-measurement variability, least-squares quality metrics).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean; zero for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance; zero for fewer than two
// points.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// Std returns the sample standard deviation.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median; zero for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// RelErr returns |a-b| / |b|; +Inf when b is zero and a is not, 0 when
// both are zero.
func RelErr(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// MAPE returns the mean absolute percentage error of predictions vs
// measurements, skipping zero measurements.
func MAPE(pred, meas []float64) float64 {
	if len(pred) != len(meas) {
		panic(fmt.Sprintf("stats: MAPE length mismatch %d vs %d", len(pred), len(meas)))
	}
	var s float64
	var n int
	for i := range pred {
		if meas[i] == 0 {
			continue
		}
		s += math.Abs(pred[i]-meas[i]) / math.Abs(meas[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// R2 returns the coefficient of determination of predictions vs
// measurements (1 = perfect fit).
func R2(pred, meas []float64) float64 {
	if len(pred) != len(meas) {
		panic(fmt.Sprintf("stats: R2 length mismatch %d vs %d", len(pred), len(meas)))
	}
	if len(meas) == 0 {
		return 0
	}
	m := Mean(meas)
	var ssRes, ssTot float64
	for i := range meas {
		d := meas[i] - pred[i]
		ssRes += d * d
		t := meas[i] - m
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}
