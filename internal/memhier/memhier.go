// Package memhier models the effect of the memory hierarchy on the
// computational rate of the Opal inner loop, reproducing the working-set
// experiment of Section 2.6 of the paper: on a Pentium 200 the comp_nbint
// loop ran at 35 MFlop/s from cache (50 KB working set), 32 MFlop/s from
// core memory (8 MB) and collapsed to 8 MFlop/s once the working set
// spilled into the Unix system swap (120 MB).
package memhier

import "fmt"

// Level is one level of the memory hierarchy.
type Level struct {
	Name string
	// Capacity is the size in bytes up to which a working set still fits
	// in this level (cumulative, i.e. the capacity seen by the CPU).
	Capacity int
	// RateScale multiplies the platform's nominal computational rate when
	// the working set resides in this level (nominal = the "in core"
	// level, scale 1.0).
	RateScale float64
}

// Model is an ordered list of levels, innermost first.  The zero value is
// a flat hierarchy: every working set runs at the nominal rate.
type Model struct {
	Levels []Level
}

// Flat returns a model with no memory-hierarchy effects, appropriate for
// the Cray vector machines whose memory system feeds the pipes at full
// speed regardless of working set (no caches on the J90; the paper notes
// vectorization is not a design option one would turn off).
func Flat() Model { return Model{} }

// Pentium200 returns the hierarchy measured in the paper (Section 2.6).
// Capacities are placed between the measured working-set points: the
// 256 KB L2 of the Pentium Pro class machines and 64 MB of core memory.
func Pentium200() Model {
	return Model{Levels: []Level{
		{Name: "cache", Capacity: 256 << 10, RateScale: 35.0 / 32.0},
		{Name: "core", Capacity: 64 << 20, RateScale: 1.0},
		{Name: "swap", Capacity: 1 << 62, RateScale: 8.0 / 32.0},
	}}
}

// Scale returns the rate multiplier for a working set of the given size.
func (m Model) Scale(workingSet int) float64 {
	for _, lv := range m.Levels {
		if workingSet <= lv.Capacity {
			return lv.RateScale
		}
	}
	if n := len(m.Levels); n > 0 {
		return m.Levels[n-1].RateScale
	}
	return 1.0
}

// Validate checks that levels are ordered by strictly increasing capacity
// and have positive scales.
func (m Model) Validate() error {
	prev := -1
	for i, lv := range m.Levels {
		if lv.Capacity <= prev {
			return fmt.Errorf("memhier: level %d (%s) capacity %d not increasing", i, lv.Name, lv.Capacity)
		}
		if lv.RateScale <= 0 {
			return fmt.Errorf("memhier: level %d (%s) non-positive rate scale", i, lv.Name)
		}
		prev = lv.Capacity
	}
	return nil
}
