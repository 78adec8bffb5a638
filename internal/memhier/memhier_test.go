package memhier

import (
	"testing"
	"testing/quick"
)

func TestFlatScale(t *testing.T) {
	m := Flat()
	for _, ws := range []int{0, 1, 1 << 30} {
		if s := m.Scale(ws); s != 1.0 {
			t.Errorf("flat scale(%d) = %v", ws, s)
		}
	}
}

func TestPentium200MatchesPaper(t *testing.T) {
	// Section 2.6: 50 KB -> 35 MFlop/s, 8 MB -> 32, 120 MB -> 8 on a
	// nominal 32 MFlop/s machine.
	m := Pentium200()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	base := 32.0
	cases := []struct {
		ws    int
		mflop float64
	}{
		{50 << 10, 35}, // cache
		{8 << 20, 32},  // core
		{120 << 20, 8}, // swap
	}
	for _, c := range cases {
		got := base * m.Scale(c.ws)
		if got != c.mflop {
			t.Errorf("rate(%d) = %v MFlop/s, want %v", c.ws, got, c.mflop)
		}
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := []Model{
		{Levels: []Level{{Name: "a", Capacity: 10, RateScale: 1}, {Name: "b", Capacity: 5, RateScale: 1}}},
		{Levels: []Level{{Name: "a", Capacity: 10, RateScale: 0}}},
		{Levels: []Level{{Name: "a", Capacity: -1, RateScale: 1}}},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := Flat().Validate(); err != nil {
		t.Errorf("flat model invalid: %v", err)
	}
}

// Property: Scale is monotonically applied by capacity — a working set in
// a deeper level never runs faster than one in a shallower level for the
// Pentium model (whose scales decrease outward except the cache bonus).
func TestScaleIsPiecewiseConstant(t *testing.T) {
	m := Pentium200()
	f := func(ws uint32) bool {
		s := m.Scale(int(ws))
		return s == 35.0/32.0 || s == 1.0 || s == 8.0/32.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBeyondLastLevelUsesLast(t *testing.T) {
	m := Model{Levels: []Level{{Name: "only", Capacity: 100, RateScale: 0.5}}}
	if m.Scale(1000) != 0.5 {
		t.Errorf("scale beyond last = %v", m.Scale(1000))
	}
}
