package fit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLeastSquaresExact(t *testing.T) {
	// y = 2 x1 + 3 x2, exactly determined plus redundancy.
	a := [][]float64{{1, 0}, {0, 1}, {1, 1}, {2, 1}}
	b := []float64{2, 3, 5, 7}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Errorf("x = %v", x)
	}
	for i := range a {
		if r := b[i] - a[i][0]*x[0] - a[i][1]*x[1]; math.Abs(r) > 1e-10 {
			t.Errorf("row %d residual = %v", i, r)
		}
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Noisy line: the solution minimizes the residual; compare against
	// the closed-form simple regression through the origin.
	a := [][]float64{{1}, {2}, {3}, {4}}
	b := []float64{1.1, 1.9, 3.2, 3.9}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var sxx, sxy float64
	for i := range a {
		sxx += a[i][0] * a[i][0]
		sxy += a[i][0] * b[i]
	}
	if math.Abs(x[0]-sxy/sxx) > 1e-12 {
		t.Errorf("x = %v, want %v", x[0], sxy/sxx)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err == nil {
		t.Error("empty system should fail")
	}
	if _, err := LeastSquares([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("underdetermined system should fail")
	}
	if _, err := LeastSquares([][]float64{{1}, {2}}, []float64{1}); err == nil {
		t.Error("mismatched rhs should fail")
	}
	if _, err := LeastSquares([][]float64{{1}, {2, 3}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix should fail")
	}
	if _, err := LeastSquares([][]float64{{0}, {0}}, []float64{1, 2}); err == nil {
		t.Error("rank-deficient system should fail")
	}
	if _, err := LeastSquares([][]float64{{}}, []float64{1}); err == nil {
		t.Error("zero-column system should fail")
	}
}

func TestNNLSClampsNegative(t *testing.T) {
	// Unconstrained solution would need a negative coefficient; NNLS pins
	// it to zero.
	a := [][]float64{{1, 1}, {1, 2}, {1, 3}}
	b := []float64{3, 2, 1} // slope -1, intercept 4 unconstrained
	x, err := NonNegativeLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range x {
		if v < 0 {
			t.Errorf("x[%d] = %v < 0", j, v)
		}
	}
	if x[1] != 0 {
		t.Errorf("negative slope not pinned: %v", x)
	}
}

func TestNNLSAgreesWhenFeasible(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	b := []float64{2, 3, 5}
	uncon, _ := LeastSquares(a, b)
	nn, err := NonNegativeLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := range uncon {
		if math.Abs(uncon[j]-nn[j]) > 1e-10 {
			t.Errorf("solutions differ: %v vs %v", uncon, nn)
		}
	}
}

// Property: LeastSquares recovers exact coefficients from noise-free
// well-conditioned systems.
func TestRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(4) + 1
		m := k + 2 + rng.Intn(5)
		truth := make([]float64, k)
		for j := range truth {
			truth[j] = float64(rng.Intn(20) - 10)
		}
		a := make([][]float64, m)
		b := make([]float64, m)
		for i := range a {
			a[i] = make([]float64, k)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64() + 2 // keep well away from rank deficiency
			}
			for j := range a[i] {
				b[i] += a[i][j] * truth[j]
			}
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // occasionally ill-conditioned; skip
		}
		for j := range x {
			if math.Abs(x[j]-truth[j]) > 1e-6*(1+math.Abs(truth[j])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: NNLS never returns negative components.
func TestNNLSNonNegativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k := 6, 3
		a := make([][]float64, m)
		b := make([]float64, m)
		for i := range a {
			a[i] = make([]float64, k)
			for j := range a[i] {
				a[i][j] = math.Abs(rng.NormFloat64()) + 0.1
			}
			b[i] = rng.NormFloat64() * 10
		}
		x, err := NonNegativeLeastSquares(a, b)
		if err != nil {
			return true
		}
		for _, v := range x {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
