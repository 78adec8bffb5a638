// Package pairlist implements Opal's cut-off pair lists and the
// pseudo-random distribution of the pair computation across servers
// (Section 2.1 of the paper).
//
// Work is distributed by rows of the upper-triangular pair matrix: row i
// holds the pairs (i, j) with j > i, keeping the inner loop contiguous and
// vectorizable as in the original Fortran.  Three strategies are provided:
//
//   - LCG, the faithful reconstruction of Opal's "pseudo-random strategy":
//     one draw of a power-of-two-modulus linear congruential generator per
//     row, taken modulo the server count.  Because the low-order bits of
//     such a generator are far from random (bit 0 strictly alternates),
//     the assignment is parity-locked for EVEN server counts: with the
//     solvation code's interleaved storage order (solute atoms at even
//     indices), the heavier solute rows concentrate on one parity class of
//     servers.  This reproduces the load-imbalance anomaly at even server
//     counts that the paper's instrumentation uncovered; odd server counts
//     decorrelate and balance well.
//   - RoundRobin, the naive cyclic assignment i mod p, which suffers the
//     same parity resonance by construction.
//   - Folded, the balanced baseline: row i is fused with its mirror row
//     n-1-i (constant combined length) and fused rows are dealt
//     round-robin, which balances both length and composition.
package pairlist

import (
	"fmt"
	"math"
	"slices"

	"opalperf/internal/forcefield"
	"opalperf/internal/hpm"
)

// Strategy selects the pair-distribution scheme.
type Strategy int

const (
	// LCG is Opal's pseudo-random strategy (default; shows the even-p
	// anomaly).
	LCG Strategy = iota
	// RoundRobin assigns row i to server i mod p.
	RoundRobin
	// Folded pairs mirror rows before dealing round-robin (balanced).
	Folded
)

func (s Strategy) String() string {
	switch s {
	case LCG:
		return "lcg"
	case RoundRobin:
		return "round-robin"
	case Folded:
		return "folded"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy maps a name to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "lcg":
		return LCG, nil
	case "round-robin", "rr":
		return RoundRobin, nil
	case "folded":
		return Folded, nil
	}
	return 0, fmt.Errorf("pairlist: unknown strategy %q (want lcg, round-robin or folded)", name)
}

// LCG constants: modulus 2^31 with multiplier ≡ 1 (mod 4) and odd
// increment, so the generator has full period (Hull–Dobell) and its low k
// bits cycle with period 2^k — in particular bit 0 strictly alternates.
// The multiplier is additionally ≡ 1 (mod 3·5·7) and the increment coprime
// to 3·5·7, which makes the draw equidistributed modulo every small odd
// server count.  Even server counts therefore get balanced *counts* but a
// parity-locked *composition* — the even-p anomaly; odd counts get both.
const (
	lcgA = 1117621 // 420*2661 + 1
	lcgC = 12347
	lcgM = 1 << 31
)

func lcgNext(state uint64) uint64 { return (lcgA*state + lcgC) % lcgM }

// oddStride returns the smallest odd stride >= s that is coprime to p, so
// the affine deal visits every server.
func oddStride(s, p int) int {
	if s < 1 {
		s = 1
	}
	s |= 1
	for gcd(s, p) != 1 {
		s += 2
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

// Owners assigns each of the n rows to one of p servers under the given
// strategy.  seed perturbs the LCG start state.
func Owners(n, p int, strat Strategy, seed int64) []int {
	if p <= 0 {
		panic("pairlist: need at least one server")
	}
	owners := make([]int, n)
	switch strat {
	case LCG:
		// Fused row pairs (i, n-1-i) — constant work per unit, the
		// standard triangular-loop balancing trick — dealt by an affine
		// congruential map owner(u) = (r + sigma*u) mod p with an
		// LCG-drawn offset r and odd stride sigma.  Counts come out
		// exactly equal for every p, but because sigma is odd the even
		// units {r, r+2sigma, ...} cover only gcd(2sigma,p)=2 half of
		// the servers when p is even: the parity of the unit index —
		// which with the interleaved storage order is the solute/water
		// split — is locked onto a parity class of servers.  Odd p mixes
		// perfectly (gcd(2sigma,p)=1).  This is the even-server anomaly.
		state := lcgNext(uint64(seed)%lcgM | 1)
		r := int(state % uint64(p))
		state = lcgNext(state)
		sigma := oddStride(int(state%uint64(p))|1, p)
		for u := 0; u < (n+1)/2; u++ {
			o := (r + u*sigma) % p
			owners[u] = o
			owners[n-1-u] = o
		}
	case RoundRobin:
		for i := 0; i < n; i++ {
			owners[i] = i % p
		}
	case Folded:
		// Deal fused (i, n-1-i) row pairs round-robin in groups of two,
		// so each server receives consecutive (even, odd) fused rows:
		// constant combined length AND balanced composition.
		for i := 0; i < (n+1)/2; i++ {
			o := (i / 2) % p
			owners[i] = o
			owners[n-1-i] = o
		}
	default:
		panic(fmt.Sprintf("pairlist: unknown strategy %d", strat))
	}
	return owners
}

// RowsOf returns the rows owned by server `owner` under the assignment.
func RowsOf(owners []int, owner int) []int {
	var rows []int
	for i, o := range owners {
		if o == owner {
			rows = append(rows, i)
		}
	}
	return rows
}

// PairChecks returns the number of distance checks a server performs per
// list update: sum over its rows of (n-1-i).
func PairChecks(rows []int, n int) int {
	c := 0
	for _, i := range rows {
		c += n - 1 - i
	}
	return c
}

// skin is how far beyond the cut-off the retained candidates reach.  While
// no center has moved more than 0.45*skin from where they were built, no
// two have closed by skin, so every pair now inside the cut-off is among
// them; the margin below skin/2 swallows rounding.
const skin = 2.0

// List is one server's active pair list.
type List struct {
	N    int   // total mass centers
	Rows []int // owned row indices
	// Pairs[r] holds the partners j (> Rows[r]) within the cut-off.
	Pairs   [][]int32
	NActive int
	// Rebuilds counts the Update calls that swept all pairs instead of
	// reusing the candidates.
	Rebuilds int
	// bins is the cell-binning scratch of UpdateCells, kept across
	// rebuilds so the steady-state update allocates nothing.
	bins [][]int32

	// cand holds, row after row, a count and then that many partners:
	// the non-excluded partners of the row within cutoff+skin at the
	// positions ref, under the cut-off and exclusion set candCutoff and
	// candExcl.  It is host-side state only: the simulated machine is
	// charged the all-pairs sweep on every update and Bytes does not
	// count it.
	cand       []int32
	ref        []float64
	candCutoff float64
	candExcl   *forcefield.Exclusions
}

// NewList prepares an empty list for the given rows.
func NewList(n int, rows []int) *List {
	return &List{N: n, Rows: rows, Pairs: make([][]int32, len(rows))}
}

// Update rebuilds the active pair list: for every owned row the distance
// to all partners j > i is checked against the cut-off, and excluded
// (bonded) pairs are screened out.  cutoff <= 0 disables the radius test
// (every non-excluded pair is active) but still costs the checks, exactly
// like an ineffective 60 A cut-off.  It returns the number of checks and
// the op count incurred: those of the full sweep (eq. 3 of the paper),
// whatever part of it the host skipped by filtering retained candidates.
func (l *List) Update(pos []float64, cutoff float64, excl *forcefield.Exclusions) (checks int, ops hpm.Ops) {
	if len(l.Rows) == 0 {
		return 0, hpm.Ops{} // no rows: nothing to sweep and no center to watch
	}
	checks = PairChecks(l.Rows, l.N)
	if l.stale(pos, cutoff, excl) {
		l.rebuild(pos, cutoff, excl)
	}
	c2 := reach2(cutoff, 0)
	nexcl := 0
	cand := l.cand
	l.NActive = 0
	for r, i := range l.Rows {
		xi, yi, zi := pos[3*i], pos[3*i+1], pos[3*i+2]
		// Every candidate is stored and the write cursor advances only
		// past the ones inside the cut-off: whether a candidate stays is
		// close to a coin toss, which a branch would mispredict.
		cs := cand[1 : 1+cand[0]]
		cand = cand[1+cand[0]:]
		ps := l.Pairs[r]
		if cap(ps) < len(cs) {
			ps = make([]int32, len(cs))
		}
		ps = ps[:len(cs)]
		n := 0
		for _, j := range cs {
			p := pos[3*int(j) : 3*int(j)+3]
			dx, dy, dz := xi-p[0], yi-p[1], zi-p[2]
			ps[n] = j
			keep := 1
			if dx*dx+dy*dy+dz*dz > c2 {
				keep = 0
			}
			n += keep
		}
		l.Pairs[r] = ps[:n]
		l.NActive += n
		for _, j := range excl.Row(i) {
			if !(forcefield.Dist2(pos, i, int(j)) > c2) {
				nexcl++
			}
		}
	}
	ops = forcefield.PairCheckOps.Times(float64(checks))
	ops = ops.Plus(forcefield.ExclusionOps.Times(float64(nexcl)))
	return checks, ops
}

// reach2 is the squared radius of the cut-off widened by margin; no
// cut-off reaches everything, NaN distances included, under "not beyond".
func reach2(cutoff, margin float64) float64 {
	if cutoff > 0 {
		return (cutoff + margin) * (cutoff + margin)
	}
	return math.Inf(1)
}

// stale reports whether the candidates may miss a pair now inside the
// cut-off: they were built for another cut-off, exclusion set or system
// size (or without reference positions), there is no cut-off to reach
// beyond, or some center has moved (or is NaN) beyond the skin margin.
func (l *List) stale(pos []float64, cutoff float64, excl *forcefield.Exclusions) bool {
	if !(cutoff > 0) || cutoff != l.candCutoff || excl != l.candExcl || len(pos) != len(l.ref) {
		return true
	}
	const lim2 = (0.45 * skin) * (0.45 * skin)
	for k := 0; k+2 < len(pos); k += 3 {
		dx, dy, dz := pos[k]-l.ref[k], pos[k+1]-l.ref[k+1], pos[k+2]-l.ref[k+2]
		if !(dx*dx+dy*dy+dz*dz <= lim2) {
			return true
		}
	}
	return false
}

// rebuild sweeps every partner j > i of the owned rows and retains those
// within cutoff+skin, with the positions they were found at.  Each row is
// walked in the runs between its excluded partners, so the inner loop
// carries no exclusion test.
func (l *List) rebuild(pos []float64, cutoff float64, excl *forcefield.Exclusions) {
	l.Rebuilds++
	l.candCutoff, l.candExcl = cutoff, excl
	l.ref = append(l.ref[:0], pos...)
	rc2 := reach2(cutoff, skin)
	l.cand = l.cand[:0]
	for _, i := range l.Rows {
		xi, yi, zi := pos[3*i], pos[3*i+1], pos[3*i+2]
		ex := excl.Row(i)
		// As in Update's filter: store every partner, advance on a keeper.
		h := len(l.cand)
		l.cand = slices.Grow(l.cand, l.N-i)
		row := l.cand[h+1 : h+l.N-i]
		n := 0
		for lo := i + 1; lo < l.N; {
			hi := l.N
			if len(ex) > 0 {
				hi, ex = int(ex[0]), ex[1:]
			}
			j := int32(lo)
			for p := pos[3*lo : 3*hi]; len(p) >= 3; p = p[3:] {
				dx, dy, dz := xi-p[0], yi-p[1], zi-p[2]
				row[n] = j
				keep := 1
				if dx*dx+dy*dy+dz*dz > rc2 {
					keep = 0
				}
				n += keep
				j++
			}
			lo = hi + 1
		}
		l.cand = l.cand[:h+1+n]
		l.cand[h] = int32(n)
	}
}

// Bytes returns the memory the list occupies (4 bytes per stored partner),
// the working-set contribution of the "list of all active pairs".
func (l *List) Bytes() int {
	return 4 * l.NActive
}

// Stats summarizes an assignment for balance analysis.
type Stats struct {
	PerServer []int // pair checks per server
	Min, Max  int
	Mean      float64
}

// AssignmentStats computes the per-server pair-check loads of an owner
// assignment.
func AssignmentStats(owners []int, p int) Stats {
	n := len(owners)
	st := Stats{PerServer: make([]int, p)}
	for i, o := range owners {
		st.PerServer[o] += n - 1 - i
	}
	st.Min = st.PerServer[0]
	for _, v := range st.PerServer {
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		st.Mean += float64(v)
	}
	st.Mean /= float64(p)
	return st
}

// Imbalance returns (max-mean)/mean of the per-server loads.
func (s Stats) Imbalance() float64 {
	if s.Mean == 0 {
		return 0
	}
	return (float64(s.Max) - s.Mean) / s.Mean
}
