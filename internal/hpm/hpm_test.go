package hpm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpsPlusTimes(t *testing.T) {
	a := Ops{Add: 1, Mul: 2, Div: 3, Sqrt: 4, Exp: 5, Trig: 6, Cmp: 7}
	b := a.Plus(a)
	c := a.Times(2)
	if b != c {
		t.Errorf("Plus(self) = %+v, Times(2) = %+v", b, c)
	}
	if a.Times(0) != (Ops{}) {
		t.Errorf("Times(0) = %+v", a.Times(0))
	}
}

func TestCanonicalExcludesCompares(t *testing.T) {
	o := Ops{Add: 10, Cmp: 100}
	if o.Canonical() != 10 {
		t.Errorf("canonical = %v, want 10 (compares are not flops)", o.Canonical())
	}
}

func TestCanonicalWeightsIdentity(t *testing.T) {
	o := Ops{Add: 3, Mul: 4, Div: 5, Sqrt: 6, Exp: 7, Trig: 8, Cmp: 9}
	if got := CanonicalWeights().Counted(o); got != o.Canonical() {
		t.Errorf("canonical counted = %v, want %v", got, o.Canonical())
	}
}

func TestWeightedCounting(t *testing.T) {
	w := Weights{Add: 1, Mul: 1, Div: 6, Sqrt: 14}
	o := Ops{Add: 10, Mul: 10, Div: 1, Sqrt: 1}
	if got := w.Counted(o); got != 40 {
		t.Errorf("counted = %v, want 40", got)
	}
}

func TestCounterRates(t *testing.T) {
	var c Counter
	w := Weights{Add: 2, Mul: 1}
	c.Add(w, Ops{Add: 50e6, Mul: 10e6}, 2.0) // counted 110e6, canonical 60e6
	if got := c.MFlops(); math.Abs(got-55) > 1e-9 {
		t.Errorf("MFlops = %v, want 55", got)
	}
	if got := c.AdjustedMFlops(); math.Abs(got-30) > 1e-9 {
		t.Errorf("AdjustedMFlops = %v, want 30", got)
	}
}

func TestCounterZeroSeconds(t *testing.T) {
	var c Counter
	if c.MFlops() != 0 || c.AdjustedMFlops() != 0 {
		t.Error("zero counter should report zero rates")
	}
}

func TestMonitorCounted(t *testing.T) {
	m := NewMonitor(Weights{Add: 1, Sqrt: 10})
	m.Charge("k", Ops{Add: 5, Sqrt: 2}, 1)
	m.Charge("k", Ops{Add: 1}, 1)
	if c := m.Counter("k"); c.Counted != 26 || c.Canonical != 8 || c.Seconds != 2 {
		t.Errorf("counter = %+v", c)
	}
}

func TestCounterString(t *testing.T) {
	var c Counter
	c.Name = "k"
	c.Add(CanonicalWeights(), Ops{Add: 1e6}, 1)
	s := c.String()
	if !strings.Contains(s, "k:") || !strings.Contains(s, "MFlop") {
		t.Errorf("string = %q", s)
	}
}

// Property: counted flops are linear in the op counts.
func TestCountedLinearity(t *testing.T) {
	w := Weights{Add: 1, Mul: 1, Div: 3, Sqrt: 8, Exp: 12, Trig: 12, Cmp: 1}
	f := func(a, b uint16, k uint8) bool {
		o1 := Ops{Add: float64(a), Sqrt: float64(b)}
		o2 := o1.Times(float64(k))
		return math.Abs(w.Counted(o2)-float64(k)*w.Counted(o1)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Plus is commutative and Counted distributes over it.
func TestPlusCommutesAndDistributes(t *testing.T) {
	w := Weights{Add: 1, Mul: 2, Div: 3, Sqrt: 4, Exp: 5, Trig: 6, Cmp: 7}
	f := func(a1, m1, a2, m2 uint16) bool {
		x := Ops{Add: float64(a1), Mul: float64(m1)}
		y := Ops{Add: float64(a2), Mul: float64(m2)}
		if x.Plus(y) != y.Plus(x) {
			return false
		}
		return math.Abs(w.Counted(x.Plus(y))-(w.Counted(x)+w.Counted(y))) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
