// Package forcefield implements the atomic interaction function V of the
// paper (Section 2.1): harmonic bond stretching, bond-angle bending,
// harmonic improper dihedrals, sinusoidal proper dihedrals, and the
// non-bonded Lennard-Jones (van der Waals) plus Coulomb pair interactions.
// All terms come with analytic gradients (the negative forces) and with
// canonical operation counts used by the performance instrumentation.
//
// Units: Angstrom, kcal/mol, elementary charges, radians.
package forcefield

import (
	"fmt"
	"math"
	"slices"

	"opalperf/internal/hpm"
	"opalperf/internal/molecule"
)

// CoulombK is 1/(4 pi eps0) in kcal*A/(mol*e^2).
const CoulombK = 332.06371

// Op-cost tables: canonical floating-point operations per evaluation of
// each term, used to charge virtual time and HPM counters.  The non-bonded
// pair mix matches the reference mix the platform weight tables were
// calibrated against.
var (
	// PairCheckOps is one distance check during a list update (the a2
	// work unit of the model).
	PairCheckOps = hpm.Ops{Add: 5, Mul: 3, Cmp: 1}
	// PairEnergyOps is one non-bonded pair energy+gradient evaluation
	// (the a3 work unit) for a charged pair: Lennard-Jones plus Coulomb.
	PairEnergyOps = hpm.Ops{Add: 14, Mul: 18, Div: 1, Sqrt: 1}
	// PairEnergyLJOps is the cheaper evaluation for uncharged pairs
	// (any pair involving a single-unit water): the Coulomb term — and
	// with it the square root and reciprocal — drops out.  The cost gap
	// between charged solute pairs and water pairs is one ingredient of
	// the even-server load imbalance.
	PairEnergyLJOps = hpm.Ops{Add: 11, Mul: 15, Div: 1}
	// ExclusionOps is the extra bonded-exclusion screening applied to
	// solute-solute pairs; it is what makes solute rows systematically
	// heavier than water rows.
	ExclusionOps = hpm.Ops{Add: 2, Cmp: 2}
	// BondOps, AngleOps, DihedralOps, ImproperOps cost one bonded term.
	BondOps     = hpm.Ops{Add: 9, Mul: 10, Div: 1, Sqrt: 1}
	AngleOps    = hpm.Ops{Add: 22, Mul: 30, Div: 3, Sqrt: 2, Trig: 1}
	DihedralOps = hpm.Ops{Add: 45, Mul: 60, Div: 4, Sqrt: 2, Trig: 2}
	ImproperOps = hpm.Ops{Add: 45, Mul: 60, Div: 4, Sqrt: 2, Trig: 1}
	// IntegrateOps is the per-mass-center leapfrog / minimizer update on
	// the client (part of the a4 work unit).
	IntegrateOps = hpm.Ops{Add: 9, Mul: 9}
	// ReduceOps is the per-element gradient reduction on the client.
	ReduceOps = hpm.Ops{Add: 1}
)

// LJParams holds per-type Lennard-Jones sigma (A) and epsilon (kcal/mol).
type LJParams struct {
	Sigma, Eps float64
}

// DefaultLJ returns the per-type parameters for the molecule package's
// atom types.
func DefaultLJ() []LJParams {
	p := make([]LJParams, molecule.NumTypes)
	p[molecule.TypeC] = LJParams{Sigma: 3.40, Eps: 0.086}
	p[molecule.TypeN] = LJParams{Sigma: 3.25, Eps: 0.170}
	p[molecule.TypeO] = LJParams{Sigma: 3.00, Eps: 0.210}
	p[molecule.TypeH] = LJParams{Sigma: 1.20, Eps: 0.016}
	p[molecule.TypeS] = LJParams{Sigma: 3.60, Eps: 0.250}
	p[molecule.TypeW] = LJParams{Sigma: 3.17, Eps: 0.155}
	return p
}

// LJTable holds precomputed pair coefficients C12(i,j) and C6(i,j) for
// every type pair (the replicated "non-bonding interaction parameters"
// each Opal server receives at start-up).
type LJTable struct {
	NTypes  int
	C12, C6 []float64 // flattened NTypes x NTypes
}

// BuildLJ constructs the pair table with Lorentz-Berthelot combination
// rules: sigma_ij = (sigma_i+sigma_j)/2, eps_ij = sqrt(eps_i eps_j).
func BuildLJ(params []LJParams) *LJTable {
	nt := len(params)
	t := &LJTable{NTypes: nt, C12: make([]float64, nt*nt), C6: make([]float64, nt*nt)}
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			sig := (params[i].Sigma + params[j].Sigma) / 2
			eps := math.Sqrt(params[i].Eps * params[j].Eps)
			s3 := sig * sig * sig
			s6 := s3 * s3
			t.C6[i*nt+j] = 4 * eps * s6
			t.C12[i*nt+j] = 4 * eps * s6 * s6
		}
	}
	return t
}

// Coeffs returns (c12, c6) for a type pair.
func (t *LJTable) Coeffs(ti, tj int) (c12, c6 float64) {
	return t.C12[ti*t.NTypes+tj], t.C6[ti*t.NTypes+tj]
}

// Row returns the flat coefficient rows for type ti, indexed by partner
// type: c12Row[tj] == Coeffs(ti, tj).  Batched kernels hoist this one
// bounds-checked slice per pair-list row instead of paying the i*NTypes+j
// indexing on every pair.
func (t *LJTable) Row(ti int) (c12Row, c6Row []float64) {
	lo, hi := ti*t.NTypes, (ti+1)*t.NTypes
	return t.C12[lo:hi:hi], t.C6[lo:hi:hi]
}

// PairEnergy evaluates the non-bonded interaction of mass centers i and j:
// van der Waals C12/r^12 - C6/r^6 plus Coulomb qq/r.  It adds dV/dr to
// grad (treated as the gradient accumulator; forces are its negation) and
// returns the two energies separately, matching Opal's partial-energy
// protocol.
func PairEnergy(pos []float64, i, j int, c12, c6, qq float64, grad []float64) (evdw, ecoul float64) {
	dx := pos[3*i] - pos[3*j]
	dy := pos[3*i+1] - pos[3*j+1]
	dz := pos[3*i+2] - pos[3*j+2]
	r2 := dx*dx + dy*dy + dz*dz
	inv2 := 1 / r2
	inv6 := inv2 * inv2 * inv2
	inv12 := inv6 * inv6
	evdw = c12*inv12 - c6*inv6
	// dV/dr2 terms: d(r^-12)/dr2 = -6 r^-14 etc.
	g := (-12*c12*inv12 + 6*c6*inv6) * inv2
	if qq != 0 {
		// The square root and the reciprocal are only needed for the
		// Coulomb term; uncharged (water) pairs skip them, which makes
		// solute-solute pairs systematically more expensive.
		rinv := math.Sqrt(inv2)
		ecoul = qq * rinv
		g -= qq * rinv * inv2
	}
	gx, gy, gz := g*dx, g*dy, g*dz
	grad[3*i] += gx
	grad[3*i+1] += gy
	grad[3*i+2] += gz
	grad[3*j] -= gx
	grad[3*j+1] -= gy
	grad[3*j+2] -= gz
	return evdw, ecoul
}

// vectorMin is the shortest row a vector kernel is called for: a call
// costs about what the Go loop spends on five pairs, so shorter rows (all
// of them on the 6-centre benchmark systems) run the loop alone.
const vectorMin = 8

// PairEnergyRow evaluates one pair-list row: mass center i against every
// partner in js, with the flat per-type coefficient rows of LJTable.Row
// replacing the per-pair Coeffs lookup.  It accumulates dV/dr into grad
// and threads the energy accumulators through (evdw0/ecoul0 in, updated
// sums out) so that the floating-point operation order — including the
// order of the energy summation — is bit-for-bit identical to calling
// PairEnergy once per pair the way md.evalList historically did, except
// that a -0 ecoul0 stays -0 across uncharged pairs here where the
// per-pair path adds their +0 term.  The charged/plain pair split is
// returned for flop accounting.
//
// Where the host has a vector kernel (see rowBlocks) it takes a row of at
// least vectorMin partners in blocks of four and the loop below takes the
// rest, from the first block the kernel declined on; both give the same
// bits.
func PairEnergyRow(pos []float64, i int, js []int32, types []int, c12Row, c6Row []float64, qi float64, charges, grad []float64, evdw0, ecoul0 float64) (evdw, ecoul float64, nCharged, nPlain int) {
	evdw, ecoul = evdw0, ecoul0
	xi := pos[3*i]
	yi := pos[3*i+1]
	zi := pos[3*i+2]
	// CoulombK*qi*charges[j] associates as (CoulombK*qi)*charges[j], so
	// hoisting the first product preserves every bit.
	qk := CoulombK * qi
	gi := grad[3*i : 3*i+3 : 3*i+3]
	done := 0
	if len(js) >= vectorMin {
		done, evdw, ecoul, nCharged = rowBlocks(pos, i, js, types, c12Row, c6Row, qk, charges, grad, evdw, ecoul)
		nPlain = done - nCharged
	}
	for _, j32 := range js[done:] {
		j := int(j32)
		c12 := c12Row[types[j]]
		c6 := c6Row[types[j]]
		qq := qk * charges[j]
		dx := xi - pos[3*j]
		dy := yi - pos[3*j+1]
		dz := zi - pos[3*j+2]
		r2 := dx*dx + dy*dy + dz*dz
		inv2 := 1 / r2
		inv6 := inv2 * inv2 * inv2
		inv12 := inv6 * inv6
		ev := c12*inv12 - c6*inv6
		g := (-12*c12*inv12 + 6*c6*inv6) * inv2
		if qq != 0 {
			rinv := math.Sqrt(inv2)
			ecoul += qq * rinv
			g -= qq * rinv * inv2
			nCharged++
		} else {
			nPlain++
		}
		evdw += ev
		gx, gy, gz := g*dx, g*dy, g*dz
		gi[0] += gx
		gi[1] += gy
		gi[2] += gz
		grad[3*j] -= gx
		grad[3*j+1] -= gy
		grad[3*j+2] -= gz
	}
	return evdw, ecoul, nCharged, nPlain
}

// KeepWithin writes to out, in order, the candidates j of js whose squared
// distance from (xi, yi, zi) is not beyond c2 — a NaN distance is kept —
// and returns how many it kept.  out needs room for all of js: the loop
// stores every candidate and advances its cursor only past a keeper, since
// whether a candidate stays is close to a coin toss, which a branch would
// mispredict.  Where the host has a vector kernel (see keepBlocks) it
// filters at least vectorMin candidates in blocks of four and the loop
// below the rest.
func KeepWithin(pos []float64, xi, yi, zi, c2 float64, js, out []int32) int {
	done, n := 0, 0
	if len(js) >= vectorMin {
		done, n = keepBlocks(pos, xi, yi, zi, c2, js, out)
	}
	for _, j := range js[done:] {
		p := pos[3*int(j) : 3*int(j)+3]
		dx, dy, dz := xi-p[0], yi-p[1], zi-p[2]
		out[n] = j
		keep := 1
		if dx*dx+dy*dy+dz*dz > c2 {
			keep = 0
		}
		n += keep
	}
	return n
}

// KeepRange is KeepWithin over the candidates lo, lo+1, ..., hi-1: out
// needs room for hi-lo of them.
func KeepRange(pos []float64, xi, yi, zi, c2 float64, lo, hi int, out []int32) int {
	done, n := 0, 0
	if hi-lo >= vectorMin {
		done, n = keepRangeBlocks(pos, xi, yi, zi, c2, lo, hi, out)
	}
	j := int32(lo + done)
	for p := pos[3*(lo+done) : 3*hi]; len(p) >= 3; p = p[3:] {
		dx, dy, dz := xi-p[0], yi-p[1], zi-p[2]
		out[n] = j
		keep := 1
		if dx*dx+dy*dy+dz*dz > c2 {
			keep = 0
		}
		n += keep
		j++
	}
	return n
}

// Dist2 returns the squared distance between mass centers i and j.
func Dist2(pos []float64, i, j int) float64 {
	dx := pos[3*i] - pos[3*j]
	dy := pos[3*i+1] - pos[3*j+1]
	dz := pos[3*i+2] - pos[3*j+2]
	return dx*dx + dy*dy + dz*dz
}

// BondEnergy evaluates 1/2 Kb (b - b0)^2 and accumulates the gradient.
func BondEnergy(pos []float64, b molecule.Bond, grad []float64) float64 {
	dx := pos[3*b.I] - pos[3*b.J]
	dy := pos[3*b.I+1] - pos[3*b.J+1]
	dz := pos[3*b.I+2] - pos[3*b.J+2]
	r := math.Sqrt(dx*dx + dy*dy + dz*dz)
	d := r - b.B0
	e := 0.5 * b.Kb * d * d
	if r > 0 {
		g := b.Kb * d / r
		grad[3*b.I] += g * dx
		grad[3*b.I+1] += g * dy
		grad[3*b.I+2] += g * dz
		grad[3*b.J] -= g * dx
		grad[3*b.J+1] -= g * dy
		grad[3*b.J+2] -= g * dz
	}
	return e
}

// AngleEnergy evaluates 1/2 Ktheta (theta - theta0)^2 and accumulates the
// gradient.
func AngleEnergy(pos []float64, a molecule.Angle, grad []float64) float64 {
	ux := pos[3*a.I] - pos[3*a.J]
	uy := pos[3*a.I+1] - pos[3*a.J+1]
	uz := pos[3*a.I+2] - pos[3*a.J+2]
	vx := pos[3*a.K] - pos[3*a.J]
	vy := pos[3*a.K+1] - pos[3*a.J+1]
	vz := pos[3*a.K+2] - pos[3*a.J+2]
	lu := math.Sqrt(ux*ux + uy*uy + uz*uz)
	lv := math.Sqrt(vx*vx + vy*vy + vz*vz)
	if lu == 0 || lv == 0 {
		return 0
	}
	c := (ux*vx + uy*vy + uz*vz) / (lu * lv)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	theta := math.Acos(c)
	d := theta - a.Theta0
	e := 0.5 * a.Ktheta * d * d
	s := math.Sqrt(1 - c*c)
	if s < 1e-8 {
		return e // gradient singular at 0 / pi; energy still counts
	}
	coef := a.Ktheta * d / s
	// dtheta/dri = (c*u/lu - v/lv) / lu  etc.
	gix := coef * (c*ux/lu - vx/lv) / lu
	giy := coef * (c*uy/lu - vy/lv) / lu
	giz := coef * (c*uz/lu - vz/lv) / lu
	gkx := coef * (c*vx/lv - ux/lu) / lv
	gky := coef * (c*vy/lv - uy/lu) / lv
	gkz := coef * (c*vz/lv - uz/lu) / lv
	grad[3*a.I] += gix
	grad[3*a.I+1] += giy
	grad[3*a.I+2] += giz
	grad[3*a.K] += gkx
	grad[3*a.K+1] += gky
	grad[3*a.K+2] += gkz
	grad[3*a.J] -= gix + gkx
	grad[3*a.J+1] -= giy + gky
	grad[3*a.J+2] -= giz + gkz
	return e
}

// dihedralGeometry computes the dihedral angle phi over atoms (i,j,k,l)
// and the gradient dphi/dr for each of the four atoms.
func dihedralGeometry(pos []float64, i, j, k, l int) (phi float64, gi, gj, gk, gl [3]float64, ok bool) {
	b1 := [3]float64{pos[3*j] - pos[3*i], pos[3*j+1] - pos[3*i+1], pos[3*j+2] - pos[3*i+2]}
	b2 := [3]float64{pos[3*k] - pos[3*j], pos[3*k+1] - pos[3*j+1], pos[3*k+2] - pos[3*j+2]}
	b3 := [3]float64{pos[3*l] - pos[3*k], pos[3*l+1] - pos[3*k+1], pos[3*l+2] - pos[3*k+2]}
	n1 := cross(b1, b2)
	n2 := cross(b2, b3)
	lb2 := math.Sqrt(dot(b2, b2))
	n1sq := dot(n1, n1)
	n2sq := dot(n2, n2)
	if lb2 == 0 || n1sq < 1e-12 || n2sq < 1e-12 {
		return 0, gi, gj, gk, gl, false
	}
	// phi = atan2(y, x) with y = |b2| (b1 . n2) and x = n1 . n2, so that
	// x^2 + y^2 = |n1|^2 |n2|^2.
	d13 := dot(b1, n2) // the triple product det[b1 b2 b3]
	y := lb2 * d13
	x := dot(n1, n2)
	phi = math.Atan2(y, x)
	r2 := n1sq * n2sq
	// Exact endpoint gradients: dphi/dri = -|b2|/|n1|^2 n1 (confirmed by
	// the atan2 form) and by the reversal symmetry dphi/drl = +|b2|/|n2|^2 n2.
	for d := 0; d < 3; d++ {
		gi[d] = -lb2 / n1sq * n1[d]
		gl[d] = lb2 / n2sq * n2[d]
	}
	// dphi/drj = dphi/db1 - dphi/db2 with dphi/db1 = -gi and
	// dphi/db2 = (x dy/db2 - y dx/db2) / (x^2+y^2), where
	//   y = |b2| det[b1 b2 b3]  =>  dy/db2 = det/|b2| b2 + |b2| (b3 x b1)
	//   x = (b1.b2)(b2.b3) - (b1.b3)|b2|^2  (Lagrange identity)
	//      =>  dx/db2 = (b2.b3) b1 + (b1.b2) b3 - 2 (b1.b3) b2.
	b3xb1 := cross(b3, b1)
	d12 := dot(b1, b2)
	d23 := dot(b2, b3)
	dd13 := dot(b1, b3)
	for d := 0; d < 3; d++ {
		dy := d13/lb2*b2[d] + lb2*b3xb1[d]
		dx := d23*b1[d] + d12*b3[d] - 2*dd13*b2[d]
		dphidb2 := (x*dy - y*dx) / r2
		gj[d] = -gi[d] - dphidb2
	}
	// Translation invariance fixes the remaining gradient.
	for d := 0; d < 3; d++ {
		gk[d] = -(gi[d] + gj[d] + gl[d])
	}
	return phi, gi, gj, gk, gl, true
}

func cross(a, b [3]float64) [3]float64 {
	return [3]float64{
		a[1]*b[2] - a[2]*b[1],
		a[2]*b[0] - a[0]*b[2],
		a[0]*b[1] - a[1]*b[0],
	}
}

func dot(a, b [3]float64) float64 { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }

// DihedralEnergy evaluates Kphi (1 + cos(n phi - delta)) and accumulates
// the gradient.
func DihedralEnergy(pos []float64, d molecule.Dihedral, grad []float64) float64 {
	phi, gi, gj, gk, gl, ok := dihedralGeometry(pos, d.I, d.J, d.K, d.L)
	if !ok {
		return 0
	}
	arg := float64(d.N)*phi - d.Delta
	e := d.Kphi * (1 + math.Cos(arg))
	dV := -d.Kphi * float64(d.N) * math.Sin(arg)
	addScaled(grad, d.I, dV, gi)
	addScaled(grad, d.J, dV, gj)
	addScaled(grad, d.K, dV, gk)
	addScaled(grad, d.L, dV, gl)
	return e
}

// ImproperEnergy evaluates 1/2 Kxi (xi - xi0)^2 over the dihedral angle xi
// and accumulates the gradient.
func ImproperEnergy(pos []float64, im molecule.Improper, grad []float64) float64 {
	xi, gi, gj, gk, gl, ok := dihedralGeometry(pos, im.I, im.J, im.K, im.L)
	if !ok {
		return 0
	}
	// Wrap xi - xi0 into (-pi, pi] so the harmonic well is periodic.
	d := xi - im.Xi0
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	for d <= -math.Pi {
		d += 2 * math.Pi
	}
	e := 0.5 * im.Kxi * d * d
	dV := im.Kxi * d
	addScaled(grad, im.I, dV, gi)
	addScaled(grad, im.J, dV, gj)
	addScaled(grad, im.K, dV, gk)
	addScaled(grad, im.L, dV, gl)
	return e
}

func addScaled(grad []float64, atom int, f float64, g [3]float64) {
	grad[3*atom] += f * g[0]
	grad[3*atom+1] += f * g[1]
	grad[3*atom+2] += f * g[2]
}

// BondedEnergy evaluates every bonded term of the system (the client-side
// sequential work of Opal) and accumulates the gradient.  It returns the
// total bonded energy and the op count incurred.
func BondedEnergy(sys *molecule.System, pos []float64, grad []float64) (e float64, ops hpm.Ops) {
	for _, b := range sys.Bonds {
		e += BondEnergy(pos, b, grad)
	}
	for _, a := range sys.Angles {
		e += AngleEnergy(pos, a, grad)
	}
	for _, d := range sys.Dihedrals {
		e += DihedralEnergy(pos, d, grad)
	}
	for _, im := range sys.Impropers {
		e += ImproperEnergy(pos, im, grad)
	}
	ops = ops.Plus(BondOps.Times(float64(len(sys.Bonds))))
	ops = ops.Plus(AngleOps.Times(float64(len(sys.Angles))))
	ops = ops.Plus(DihedralOps.Times(float64(len(sys.Dihedrals))))
	ops = ops.Plus(ImproperOps.Times(float64(len(sys.Impropers))))
	return e, ops
}

// Exclusions is the set of bonded pairs excluded from the non-bonded sum
// (1-2 and 1-3 neighbours), held as one CSR table over the upper triangle:
// row i lists the excluded partners j > i in ascending order.  A pair
// travels to the servers as the key i*n+j with i < j.
type Exclusions struct {
	n       int
	start   []int32 // row i is partner[start[i]:start[i+1]]
	partner []int32
}

// BuildExclusions derives the exclusion set from the bond and angle lists.
func BuildExclusions(sys *molecule.System) *Exclusions {
	n := int64(sys.N)
	keys := make([]int64, 0, len(sys.Bonds)+3*len(sys.Angles))
	add := func(i, j int) {
		if i > j {
			i, j = j, i
		}
		keys = append(keys, int64(i)*n+int64(j))
	}
	for _, b := range sys.Bonds {
		add(b.I, b.J)
	}
	for _, a := range sys.Angles {
		add(a.I, a.K)
		add(a.I, a.J)
		add(a.J, a.K)
	}
	return ExclusionsFromKeys(sys.N, keys)
}

// ExclusionsFromKeys builds the exclusion set from pair keys in any order,
// duplicates allowed; it is also how a server rebuilds the set it was sent.
func ExclusionsFromKeys(n int, keys []int64) *Exclusions {
	keys = slices.Clone(keys)
	slices.Sort(keys)
	keys = slices.Compact(keys)
	e := &Exclusions{n: n, start: make([]int32, n+1), partner: make([]int32, len(keys))}
	for k, key := range keys {
		if n <= 0 || key < 0 || key/int64(n) >= key%int64(n) {
			panic(fmt.Sprintf("forcefield: malformed exclusion key %d for %d centers", key, n))
		}
		i, j := key/int64(n), key%int64(n)
		e.start[i+1]++
		e.partner[k] = int32(j)
	}
	for i := 0; i < n; i++ {
		e.start[i+1] += e.start[i]
	}
	return e
}

// Row returns the excluded partners j > i of mass center i, ascending; a
// nil set excludes nothing.
func (e *Exclusions) Row(i int) []int32 {
	if e == nil {
		return nil
	}
	return e.partner[e.start[i]:e.start[i+1]]
}

// Excluded reports whether the (i, j) non-bonded interaction is excluded.
func (e *Exclusions) Excluded(i, j int) bool {
	if i > j {
		i, j = j, i
	}
	for _, p := range e.Row(i) {
		if int(p) >= j {
			return int(p) == j
		}
	}
	return false
}

// Len returns the number of excluded pairs.
func (e *Exclusions) Len() int { return len(e.partner) }

// Keys returns the exclusion keys (i*n+j) in ascending order, for
// serialization to servers.
func (e *Exclusions) Keys() []int64 {
	out := make([]int64, 0, len(e.partner))
	for i := 0; i < e.n; i++ {
		for _, j := range e.Row(i) {
			out = append(out, int64(i)*int64(e.n)+int64(j))
		}
	}
	return out
}
