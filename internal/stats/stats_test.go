package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func eq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty slices should give zeros")
	}
	if Mean([]float64{5}) != 5 || Median([]float64{5}) != 5 {
		t.Error("singleton mean/median wrong")
	}
}

func TestMedianEvenOdd(t *testing.T) {
	if !eq(Median([]float64{3, 1, 2}), 2) {
		t.Error("odd median wrong")
	}
	if !eq(Median([]float64{4, 1, 3, 2}), 2.5) {
		t.Error("even median wrong")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Median mutated its input")
	}
}

func TestRelErr(t *testing.T) {
	if !eq(RelErr(11, 10), 0.1) {
		t.Error("RelErr wrong")
	}
	if RelErr(0, 0) != 0 {
		t.Error("RelErr(0,0) should be 0")
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Error("RelErr(1,0) should be +Inf")
	}
}

func TestMAPE(t *testing.T) {
	got := MAPE([]float64{11, 9, 5}, []float64{10, 10, 0})
	if !eq(got, 0.1) {
		t.Errorf("MAPE = %v, want 0.1 (zero measurement skipped)", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	MAPE([]float64{1}, []float64{1, 2})
}

func TestR2(t *testing.T) {
	meas := []float64{1, 2, 3, 4}
	if !eq(R2(meas, meas), 1) {
		t.Error("perfect fit should have R2 = 1")
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if !eq(R2(mean, meas), 0) {
		t.Error("mean predictor should have R2 = 0")
	}
	if R2([]float64{1, 1}, []float64{3, 3}) != 0 {
		t.Error("constant measurement, wrong prediction should give 0")
	}
	if R2([]float64{3, 3}, []float64{3, 3}) != 1 {
		t.Error("constant measurement, exact prediction should give 1")
	}
}

// Property: mean is between min and max.
func TestMeanBoundsProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		m := Mean(xs)
		lo, hi := slices.Min(xs), slices.Max(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
