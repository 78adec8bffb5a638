package expdesign

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"opalperf/internal/parallel"
)

func paperFactors() []Factor {
	return []Factor{
		{Name: "servers", Levels: []string{"1", "2", "3", "4", "5", "6", "7"}},
		{Name: "size", Levels: []string{"small", "medium", "large"}},
		{Name: "cutoff", Levels: []string{"60A", "10A"}},
		{Name: "update", Levels: []string{"full", "partial"}},
	}
}

func TestFullFactorialPaperSize(t *testing.T) {
	cases := FullFactorial(paperFactors())
	// The paper's full design: 84 experiments.
	if len(cases) != 84 {
		t.Fatalf("cases = %d, want 84", len(cases))
	}
	// All distinct.
	seen := map[string]bool{}
	for _, c := range cases {
		k := c.key(paperFactors())
		if seen[k] {
			t.Fatalf("duplicate case %s", k)
		}
		seen[k] = true
	}
}

func TestFullFactorialOrdering(t *testing.T) {
	f := []Factor{
		{Name: "a", Levels: []string{"1", "2"}},
		{Name: "b", Levels: []string{"x", "y"}},
	}
	cases := FullFactorial(f)
	want := []string{"a=1 b=x", "a=1 b=y", "a=2 b=x", "a=2 b=y"}
	for i, c := range cases {
		if c.key(f) != want[i] {
			t.Errorf("case %d = %s, want %s", i, c.key(f), want[i])
		}
	}
}

func TestFullFactorialEmpty(t *testing.T) {
	if FullFactorial(nil) != nil {
		t.Error("nil factors should give nil")
	}
	if FullFactorial([]Factor{{Name: "a"}}) != nil {
		t.Error("factor with no levels should give nil")
	}
}

func TestHalfFractionPaperDesign(t *testing.T) {
	// 7 x 2^(3-1): servers full, half fraction over {size(2), cutoff,
	// update} = 7 * 4 = 28 cases.
	factors := []Factor{
		{Name: "servers", Levels: []string{"1", "2", "3", "4", "5", "6", "7"}},
		{Name: "size", Levels: []string{"medium", "large"}},
		{Name: "cutoff", Levels: []string{"60A", "10A"}},
		{Name: "update", Levels: []string{"full", "partial"}},
	}
	cases, err := HalfFraction(factors, []string{"size", "cutoff", "update"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 28 {
		t.Fatalf("cases = %d, want 28", len(cases))
	}
	// Defining relation: an even count of high levels.
	for _, c := range cases {
		high := 0
		if c["size"] == "large" {
			high++
		}
		if c["cutoff"] == "10A" {
			high++
		}
		if c["update"] == "partial" {
			high++
		}
		if high%2 != 0 {
			t.Errorf("case %v violates the defining relation", c)
		}
	}
	// Every server level appears 4 times.
	perServer := map[string]int{}
	for _, c := range cases {
		perServer[c["servers"]]++
	}
	for s, n := range perServer {
		if n != 4 {
			t.Errorf("server level %s appears %d times, want 4", s, n)
		}
	}
}

func TestHalfFractionErrors(t *testing.T) {
	factors := paperFactors()
	if _, err := HalfFraction(factors, []string{"size", "cutoff"}); err == nil {
		t.Error("3-level factor should be rejected")
	}
	if _, err := HalfFraction(factors, []string{"nope", "cutoff"}); err == nil {
		t.Error("unknown factor should be rejected")
	}
	if _, err := HalfFraction(factors, []string{"cutoff"}); err == nil {
		t.Error("single factor cannot fractionate")
	}
}

func TestRunAll(t *testing.T) {
	f := []Factor{{Name: "x", Levels: []string{"1", "2", "3"}}}
	cases := FullFactorial(f)
	recs, err := RunAllParallel(cases, func(c Case) (map[string]float64, error) {
		return map[string]float64{"y": float64(len(c["x"]))}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, r := range recs {
		if r.Case.key(f) != cases[i].key(f) || r.Responses["y"] != 1 {
			t.Errorf("record %d = %+v, want case %s", i, r, cases[i].key(f))
		}
	}
	names := ResponseNames(recs)
	if len(names) != 1 || names[0] != "y" {
		t.Errorf("names = %v", names)
	}
}

func TestRunAllFailsFast(t *testing.T) {
	// One worker makes the pool sequential, so "no new case starts after
	// a failure" is exact: the third case never runs.
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	f := []Factor{{Name: "x", Levels: []string{"1", "2", "3"}}}
	ran := 0
	_, err := RunAllParallel(FullFactorial(f), func(c Case) (map[string]float64, error) {
		ran++
		if c["x"] == "2" {
			return nil, fmt.Errorf("boom")
		}
		return nil, nil
	})
	if err == nil || !strings.Contains(err.Error(), "case 1: boom") {
		t.Fatalf("err = %v, want the failing case named", err)
	}
	if ran != 2 {
		t.Errorf("ran %d cases, want fail-fast after 2", ran)
	}
}

// key renders a case deterministically, for comparing and de-duplicating
// cases in these tests.
func (c Case) key(factors []Factor) string {
	parts := make([]string, len(factors))
	for i, f := range factors {
		parts[i] = f.Name + "=" + c[f.Name]
	}
	return strings.Join(parts, " ")
}

// Property: the full factorial size is the product of the level counts
// and all cases are distinct.
func TestFactorialSizeProperty(t *testing.T) {
	f := func(l1, l2, l3 uint8) bool {
		n1, n2, n3 := int(l1)%4+1, int(l2)%4+1, int(l3)%4+1
		mk := func(name string, n int) Factor {
			ls := make([]string, n)
			for i := range ls {
				ls[i] = fmt.Sprintf("%s%d", name, i)
			}
			return Factor{Name: name, Levels: ls}
		}
		factors := []Factor{mk("a", n1), mk("b", n2), mk("c", n3)}
		cases := FullFactorial(factors)
		if len(cases) != n1*n2*n3 {
			return false
		}
		seen := map[string]bool{}
		for _, c := range cases {
			k := c.key(factors)
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
