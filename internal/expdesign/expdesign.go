// Package expdesign implements the systematic experimental designs of
// Jain's "The Art of Computer Systems Performance Analysis" (ch. 16) that
// the paper uses to calibrate its model (Section 2.3): full factorial
// designs over the four performance factors — number of servers, problem
// size, cut-off and update frequency — and the reduced 2^(k-p) fractional
// designs the paper reports (the 7·2^(3-1) design of Figure 4).
package expdesign

import (
	"fmt"
	"sort"

	"opalperf/internal/parallel"
)

// Factor is one experimental factor with its levels.
type Factor struct {
	Name   string
	Levels []string
}

// Case assigns one level to every factor.
type Case map[string]string

// FullFactorial enumerates every combination of levels, varying the last
// factor fastest.
func FullFactorial(factors []Factor) []Case {
	if len(factors) == 0 {
		return nil
	}
	total := 1
	for _, f := range factors {
		if len(f.Levels) == 0 {
			return nil
		}
		total *= len(f.Levels)
	}
	out := make([]Case, 0, total)
	idx := make([]int, len(factors))
	for {
		c := Case{}
		for i, f := range factors {
			c[f.Name] = f.Levels[idx[i]]
		}
		out = append(out, c)
		// increment, last factor fastest
		i := len(factors) - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < len(factors[i].Levels) {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			return out
		}
	}
}

// HalfFraction returns a 2^(k-1) half fraction of a full factorial over
// the named two-level factors, crossed with the full levels of the other
// factors: it keeps the cases where an even number of the two-level
// factors sit at their high (second) level — the defining relation
// I = AB...K of Jain ch. 16.  This reproduces the paper's reduced
// 7·2^(3-1) design when given one 7-level factor and three 2-level ones.
func HalfFraction(factors []Factor, twoLevel []string) ([]Case, error) {
	isTwo := map[string]bool{}
	for _, name := range twoLevel {
		found := false
		for _, f := range factors {
			if f.Name == name {
				if len(f.Levels) != 2 {
					return nil, fmt.Errorf("expdesign: factor %q has %d levels, need 2", name, len(f.Levels))
				}
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("expdesign: unknown factor %q", name)
		}
		isTwo[name] = true
	}
	if len(twoLevel) < 2 {
		return nil, fmt.Errorf("expdesign: need at least 2 two-level factors to fractionate")
	}
	high := map[string]string{}
	for _, f := range factors {
		if isTwo[f.Name] {
			high[f.Name] = f.Levels[1]
		}
	}
	var out []Case
	for _, c := range FullFactorial(factors) {
		count := 0
		for name := range isTwo {
			if c[name] == high[name] {
				count++
			}
		}
		if count%2 == 0 {
			out = append(out, c)
		}
	}
	return out, nil
}

// Record pairs a case with its measured response variables.
type Record struct {
	Case      Case
	Responses map[string]float64
}

// Runner executes one experimental case and returns its response
// variables (e.g. the five time components).
type Runner func(Case) (map[string]float64, error)

// RunAllParallel executes the cases concurrently on the default worker
// pool and returns the records in case order.  run must be safe to call
// concurrently.  Any failure fails the whole design — a calibration with
// missing cases would silently bias the fit — with the error of the
// lowest-indexed failing case observed; no new case starts after it.
func RunAllParallel(cases []Case, run Runner) ([]Record, error) {
	return parallel.Map(cases, func(i int, c Case) (Record, error) {
		resp, err := run(c)
		if err != nil {
			return Record{}, fmt.Errorf("expdesign: case %d: %w", i, err)
		}
		return Record{Case: c, Responses: resp}, nil
	})
}

// ResponseNames returns the union of response names over records, sorted.
func ResponseNames(recs []Record) []string {
	set := map[string]bool{}
	for _, r := range recs {
		for k := range r.Responses {
			set[k] = true
		}
	}
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
