// Package hpm reproduces the hardware-performance-monitor integration of
// Section 3.2 of the paper (the /dev/hpm counter device of the Cray J90 and
// its T3E / Pentium equivalents).
//
// The paper's key observation is that the number of floating-point
// operations *counted* for bitwise-identical results differs significantly
// across platforms because of vectorizing transformations and the differing
// implementations of intrinsics such as sqrt() and exponentiation.  hpm
// therefore counts operations by category (Ops) and weighs them with a
// per-platform cost table (Weights); the canonical weights are those of the
// best scalar compiler (the PGI compiler on the PCs), which the paper takes
// as the lower bound when computing the "adjusted computation rate" of its
// Table 1.
package hpm

import "fmt"

// Ops is a count of floating-point operations by category.  Counts are
// float64 so that callers can scale a per-item cost by an item count
// without loss.
type Ops struct {
	Add  float64 // additions and subtractions
	Mul  float64 // multiplications
	Div  float64 // divisions / reciprocals
	Sqrt float64 // square roots
	Exp  float64 // exponentiation, exp, log
	Trig float64 // sin, cos and friends
	Cmp  float64 // floating-point comparisons
}

// Plus returns the element-wise sum of two op counts.
func (o Ops) Plus(q Ops) Ops {
	return Ops{
		Add: o.Add + q.Add, Mul: o.Mul + q.Mul, Div: o.Div + q.Div,
		Sqrt: o.Sqrt + q.Sqrt, Exp: o.Exp + q.Exp, Trig: o.Trig + q.Trig,
		Cmp: o.Cmp + q.Cmp,
	}
}

// Times returns the op counts scaled by n (e.g. per-pair costs times the
// number of pairs).
func (o Ops) Times(n float64) Ops {
	return Ops{
		Add: o.Add * n, Mul: o.Mul * n, Div: o.Div * n,
		Sqrt: o.Sqrt * n, Exp: o.Exp * n, Trig: o.Trig * n,
		Cmp: o.Cmp * n,
	}
}

// Canonical returns the canonical flop count: every category counts the
// weight the best compiler's hardware counter would report (one retired
// floating point instruction per operation; comparisons are not counted as
// flops).
func (o Ops) Canonical() float64 {
	return o.Add + o.Mul + o.Div + o.Sqrt + o.Exp + o.Trig
}

// Weights is the per-platform cost table: how many floating-point
// operations the platform's monitoring hardware counts (and its pipelines
// execute) for one operation of each category.
type Weights struct {
	Add, Mul, Div, Sqrt, Exp, Trig, Cmp float64
}

// CanonicalWeights counts one flop per operation, zero for comparisons —
// the x86/PGI lower bound of the paper.
func CanonicalWeights() Weights {
	return Weights{Add: 1, Mul: 1, Div: 1, Sqrt: 1, Exp: 1, Trig: 1, Cmp: 0}
}

// Counted returns the number of flops the platform counts for the ops.
func (w Weights) Counted(o Ops) float64 {
	return w.Add*o.Add + w.Mul*o.Mul + w.Div*o.Div +
		w.Sqrt*o.Sqrt + w.Exp*o.Exp + w.Trig*o.Trig + w.Cmp*o.Cmp
}

// Counter is one virtual hardware counter group, accumulating both the
// platform-counted and the canonical flop totals alongside the cycles
// (virtual seconds) they took.  It corresponds to one query window on the
// /dev/hpm device.
type Counter struct {
	Name      string
	Counted   float64 // platform-counted flops
	Canonical float64 // canonical (PGI lower-bound) flops
	Seconds   float64 // virtual seconds attributed to the counted work
}

// Add accumulates a weighted op count that took the given virtual time.
func (c *Counter) Add(w Weights, o Ops, seconds float64) {
	c.Counted += w.Counted(o)
	c.Canonical += o.Canonical()
	c.Seconds += seconds
}

// MFlops returns the counted rate in MFlop/s (as a naive sampling tool
// would report it).
func (c *Counter) MFlops() float64 {
	if c.Seconds <= 0 {
		return 0
	}
	return c.Counted / c.Seconds / 1e6
}

// AdjustedMFlops returns the rate computed from canonical flops — the
// "adjusted computation rate" of the paper's Table 1, which removes the
// platform-specific inflation of the operation count.
func (c *Counter) AdjustedMFlops() float64 {
	if c.Seconds <= 0 {
		return 0
	}
	return c.Canonical / c.Seconds / 1e6
}

// Monitor groups named counters for one process, mirroring the counter
// groups the authors wired into the Sciddle middleware.
type Monitor struct {
	W        Weights
	counters map[string]*Counter
}

// NewMonitor creates a monitor using the given platform weights.
func NewMonitor(w Weights) *Monitor {
	return &Monitor{W: w, counters: make(map[string]*Counter)}
}

// Counter returns (creating if needed) the named counter.
func (m *Monitor) Counter(name string) *Counter {
	c := m.counters[name]
	if c == nil {
		c = &Counter{Name: name}
		m.counters[name] = c
	}
	return c
}

// Charge accumulates ops under the named counter with their virtual time.
func (m *Monitor) Charge(name string, o Ops, seconds float64) {
	m.Counter(name).Add(m.W, o, seconds)
}

func (c *Counter) String() string {
	return fmt.Sprintf("%s: %.2f MFlop counted (%.2f canonical) in %.4fs = %.1f MFlop/s (%.1f adjusted)",
		c.Name, c.Counted/1e6, c.Canonical/1e6, c.Seconds, c.MFlops(), c.AdjustedMFlops())
}
