// Package fit provides linear least-squares solvers used to calibrate the
// analytic performance model against measured execution times (the "least
// square fit to the corresponding measurements" of Section 2.5).
package fit

import (
	"fmt"
	"math"
)

// LeastSquares solves min ||A x - b||_2 for x by Householder QR.  A is
// row-major with m rows (observations) and k columns (parameters), m >= k.
func LeastSquares(a [][]float64, b []float64) ([]float64, error) {
	m := len(a)
	if m == 0 {
		return nil, fmt.Errorf("fit: no observations")
	}
	k := len(a[0])
	if k == 0 {
		return nil, fmt.Errorf("fit: no parameters")
	}
	if m < k {
		return nil, fmt.Errorf("fit: %d observations for %d parameters", m, k)
	}
	if len(b) != m {
		return nil, fmt.Errorf("fit: rhs length %d != %d rows", len(b), m)
	}
	// Working copies.
	r := make([][]float64, m)
	for i := range a {
		if len(a[i]) != k {
			return nil, fmt.Errorf("fit: ragged row %d", i)
		}
		r[i] = append([]float64(nil), a[i]...)
	}
	y := append([]float64(nil), b...)

	// Householder QR: for each column j, reflect rows j..m-1.
	for j := 0; j < k; j++ {
		// norm of column j below the diagonal
		var norm float64
		for i := j; i < m; i++ {
			norm += r[i][j] * r[i][j]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return nil, fmt.Errorf("fit: rank-deficient at column %d", j)
		}
		alpha := -norm
		if r[j][j] < 0 {
			alpha = norm
		}
		// v = x - alpha e1
		v := make([]float64, m-j)
		v[0] = r[j][j] - alpha
		for i := j + 1; i < m; i++ {
			v[i-j] = r[i][j]
		}
		var vnorm2 float64
		for _, vi := range v {
			vnorm2 += vi * vi
		}
		if vnorm2 == 0 {
			continue
		}
		// Apply H = I - 2 v v^T / (v^T v) to remaining columns and rhs.
		for c := j; c < k; c++ {
			var dot float64
			for i := j; i < m; i++ {
				dot += v[i-j] * r[i][c]
			}
			f := 2 * dot / vnorm2
			for i := j; i < m; i++ {
				r[i][c] -= f * v[i-j]
			}
		}
		var dot float64
		for i := j; i < m; i++ {
			dot += v[i-j] * y[i]
		}
		f := 2 * dot / vnorm2
		for i := j; i < m; i++ {
			y[i] -= f * v[i-j]
		}
	}
	// Back substitution on the upper-triangular system.
	x := make([]float64, k)
	for j := k - 1; j >= 0; j-- {
		s := y[j]
		for c := j + 1; c < k; c++ {
			s -= r[j][c] * x[c]
		}
		if r[j][j] == 0 {
			return nil, fmt.Errorf("fit: singular diagonal at %d", j)
		}
		x[j] = s / r[j][j]
	}
	return x, nil
}

// NonNegativeLeastSquares solves min ||A x - b|| subject to x >= 0 with a
// simple active-set scheme: solve unconstrained, pin negative components
// to zero and re-solve over the remaining columns until all estimates are
// non-negative.  Physical rates and overheads cannot be negative.
func NonNegativeLeastSquares(a [][]float64, b []float64) ([]float64, error) {
	m := len(a)
	if m == 0 {
		return nil, fmt.Errorf("fit: no observations")
	}
	k := len(a[0])
	active := make([]bool, k) // true = pinned to zero
	for iter := 0; iter <= k; iter++ {
		cols := make([]int, 0, k)
		for j := 0; j < k; j++ {
			if !active[j] {
				cols = append(cols, j)
			}
		}
		x := make([]float64, k)
		if len(cols) > 0 {
			sub := make([][]float64, m)
			for i := range a {
				row := make([]float64, len(cols))
				for c, j := range cols {
					row[c] = a[i][j]
				}
				sub[i] = row
			}
			xs, err := LeastSquares(sub, b)
			if err != nil {
				return nil, err
			}
			for c, j := range cols {
				x[j] = xs[c]
			}
		}
		worst, worstJ := 0.0, -1
		for j, v := range x {
			if v < worst {
				worst, worstJ = v, j
			}
		}
		if worstJ < 0 {
			return x, nil
		}
		active[worstJ] = true
	}
	return nil, fmt.Errorf("fit: NNLS failed to converge")
}
