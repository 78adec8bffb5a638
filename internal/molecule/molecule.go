// Package molecule models the molecular complexes Opal simulates: a solute
// (protein / nucleic acid) immersed in water.  Water molecules are treated
// as single mass centers located at the oxygen atom — the model improvement
// described in Section 2.1 of the paper that reduces server workload and
// list sizes — with an optional expansion back to three-site waters for the
// ablation benchmark.
//
// Because the paper's complexes (the Antennapedia homeodomain/DNA complex
// and the LFB homeodomain NMR structure) are not distributable, synthetic
// generators produce complexes with exactly the paper's sizes and a
// realistic aqueous density; the performance model depends only on the
// number of mass centers n, the water fraction gamma and the density (via
// the cut-off neighbourhood size), all of which are matched.
package molecule

import (
	"fmt"
	"math"
	"math/rand"
)

// Kind distinguishes solute atoms from water mass centers.
type Kind uint8

const (
	// Solute marks a protein / nucleic-acid atom.
	Solute Kind = iota
	// Water marks a single-unit water mass center.
	Water
)

// Atom type indices into the force-field tables.
const (
	TypeC = iota
	TypeN
	TypeO
	TypeH
	TypeS
	TypeW // single-unit water
	NumTypes
)

// Bond is a covalent bond with harmonic potential 1/2 Kb (b-b0)^2.
type Bond struct {
	I, J   int
	Kb, B0 float64
}

// Angle is a three-body bond angle with potential 1/2 Kt (theta-theta0)^2.
type Angle struct {
	I, J, K        int
	Ktheta, Theta0 float64
}

// Dihedral is a proper (rotatable) dihedral with potential
// Kphi (1 + cos(n phi - delta)).
type Dihedral struct {
	I, J, K, L int
	Kphi       float64
	N          int
	Delta      float64
}

// Improper is a harmonic (non-rotatable) dihedral with potential
// 1/2 Kxi (xi - xi0)^2.
type Improper struct {
	I, J, K, L int
	Kxi, Xi0   float64
}

// System is one molecular complex.  Positions are flat [3n] slices in
// Angstrom; charges in elementary charges; masses in atomic mass units.
type System struct {
	Name      string
	N         int // mass centers
	NSolute   int // solute atoms among them
	Kind      []Kind
	Type      []int // force-field type per mass center
	Pos       []float64
	Charge    []float64
	Mass      []float64
	Box       float64 // cubic box side in Angstrom
	Bonds     []Bond
	Angles    []Angle
	Dihedrals []Dihedral
	Impropers []Improper
}

// NWater returns the number of water mass centers.
func (s *System) NWater() int { return s.N - s.NSolute }

// Gamma returns the ratio of water molecules to total mass centers, the
// gamma parameter of the paper's model.
func (s *System) Gamma() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.NWater()) / float64(s.N)
}

// Density returns mass centers per cubic Angstrom.
func (s *System) Density() float64 {
	v := s.Box * s.Box * s.Box
	if v == 0 {
		return 0
	}
	return float64(s.N) / v
}

// NTilde returns the paper's n-tilde: the average number of neighbouring
// mass centers inside the cut-off radius, density * 4/3 pi c^3 (capped at
// n-1 for cut-offs larger than the box).
func (s *System) NTilde(cutoff float64) float64 {
	nt := s.Density() * 4.0 / 3.0 * math.Pi * cutoff * cutoff * cutoff
	if max := float64(s.N - 1); nt > max {
		return max
	}
	return nt
}

// CutoffEffective reports whether the cut-off radius meaningfully reduces
// the pair computation: the cut-off sphere must hold fewer neighbours than
// the whole complex.  A 60 A cut-off on the paper's ~50 A boxes is
// "ineffective" — the sphere covers everything — while 10 A is effective.
func (s *System) CutoffEffective(cutoff float64) bool {
	if cutoff <= 0 {
		return false
	}
	raw := s.Density() * 4.0 / 3.0 * math.Pi * cutoff * cutoff * cutoff
	return raw < float64(s.N-1)
}

// Validate checks structural invariants.
func (s *System) Validate() error {
	if s.N != len(s.Kind) || s.N != len(s.Type) || 3*s.N != len(s.Pos) ||
		s.N != len(s.Charge) || s.N != len(s.Mass) {
		return fmt.Errorf("molecule: inconsistent array lengths for n=%d", s.N)
	}
	if s.NSolute < 0 || s.NSolute > s.N {
		return fmt.Errorf("molecule: NSolute %d out of range", s.NSolute)
	}
	nw := 0
	for i, k := range s.Kind {
		switch k {
		case Solute:
			if s.Type[i] == TypeW {
				return fmt.Errorf("molecule: solute atom %d has water type", i)
			}
		case Water:
			nw++
		default:
			return fmt.Errorf("molecule: atom %d has unknown kind %d", i, k)
		}
	}
	if nw != s.NWater() {
		return fmt.Errorf("molecule: kind slice has %d waters, NSolute says %d", nw, s.NWater())
	}
	for _, b := range s.Bonds {
		if b.I < 0 || b.I >= s.N || b.J < 0 || b.J >= s.N || b.I == b.J {
			return fmt.Errorf("molecule: bad bond %+v", b)
		}
	}
	for _, a := range s.Angles {
		if a.I < 0 || a.I >= s.N || a.J < 0 || a.J >= s.N || a.K < 0 || a.K >= s.N {
			return fmt.Errorf("molecule: bad angle %+v", a)
		}
	}
	for _, d := range s.Dihedrals {
		for _, x := range [4]int{d.I, d.J, d.K, d.L} {
			if x < 0 || x >= s.N {
				return fmt.Errorf("molecule: bad dihedral %+v", d)
			}
		}
	}
	for _, im := range s.Impropers {
		for _, x := range [4]int{im.I, im.J, im.K, im.L} {
			if x < 0 || x >= s.N {
				return fmt.Errorf("molecule: bad improper %+v", im)
			}
		}
	}
	return nil
}

// Clone returns a deep copy.
func (s *System) Clone() *System {
	c := *s
	c.Kind = append([]Kind(nil), s.Kind...)
	c.Type = append([]int(nil), s.Type...)
	c.Pos = append([]float64(nil), s.Pos...)
	c.Charge = append([]float64(nil), s.Charge...)
	c.Mass = append([]float64(nil), s.Mass...)
	c.Bonds = append([]Bond(nil), s.Bonds...)
	c.Angles = append([]Angle(nil), s.Angles...)
	c.Dihedrals = append([]Dihedral(nil), s.Dihedrals...)
	c.Impropers = append([]Improper(nil), s.Impropers...)
	return &c
}

// Config drives the synthetic complex generator.
type Config struct {
	Name        string
	SoluteAtoms int
	Waters      int
	Seed        int64
	// Interleave stores solute atoms and their hydration waters
	// adjacently (solute at even indices while both last), the layout the
	// original solvation code produces.  This ordering is what makes the
	// pseudo-random pair distribution resonate at even server counts (the
	// paper's load-imbalance anomaly); set false for a blocked layout.
	Interleave bool
	// DensityPerA3 is the target mass-center density; 0 means the 0.0335
	// centers/A^3 of liquid water with single-site waters.
	DensityPerA3 float64
}

// aqueousDensity is mass centers per cubic Angstrom for single-unit water.
const aqueousDensity = 0.0335

// Generate builds a synthetic complex: a self-avoiding-ish polymer chain
// for the solute placed in the box center, surrounded by water mass
// centers on a jittered lattice at realistic density.
func Generate(cfg Config) *System {
	if cfg.DensityPerA3 <= 0 {
		cfg.DensityPerA3 = aqueousDensity
	}
	n := cfg.SoluteAtoms + cfg.Waters
	box := math.Cbrt(float64(n) / cfg.DensityPerA3)
	rng := rand.New(rand.NewSource(cfg.Seed))

	sol, placed := genChain(rng, cfg.SoluteAtoms, box)
	wat := genWaters(rng, cfg.Waters, box, &placed)

	s := &System{
		Name:    cfg.Name,
		N:       n,
		NSolute: cfg.SoluteAtoms,
		Kind:    make([]Kind, 0, n),
		Type:    make([]int, 0, n),
		Pos:     make([]float64, 0, 3*n),
		Charge:  make([]float64, 0, n),
		Mass:    make([]float64, 0, n),
		Box:     box,
	}

	// Decide storage order, remembering where each solute atom lands so
	// the topology can be rewired.
	solIdx := make([]int, cfg.SoluteAtoms)
	appendSolute := func(i int) {
		solIdx[i] = s.N0()
		t := soluteType(i)
		s.Kind = append(s.Kind, Solute)
		s.Type = append(s.Type, t)
		s.Pos = append(s.Pos, sol[3*i], sol[3*i+1], sol[3*i+2])
		s.Charge = append(s.Charge, soluteCharge(i))
		s.Mass = append(s.Mass, typeMass(t))
	}
	appendWater := func(i int) {
		s.Kind = append(s.Kind, Water)
		s.Type = append(s.Type, TypeW)
		s.Pos = append(s.Pos, wat[3*i], wat[3*i+1], wat[3*i+2])
		s.Charge = append(s.Charge, 0)
		s.Mass = append(s.Mass, 18.015)
	}
	if cfg.Interleave {
		na, nw := cfg.SoluteAtoms, cfg.Waters
		common := na
		if nw < common {
			common = nw
		}
		for i := 0; i < common; i++ {
			appendSolute(i)
			appendWater(i)
		}
		for i := common; i < na; i++ {
			appendSolute(i)
		}
		for i := common; i < nw; i++ {
			appendWater(i)
		}
	} else {
		for i := 0; i < cfg.SoluteAtoms; i++ {
			appendSolute(i)
		}
		for i := 0; i < cfg.Waters; i++ {
			appendWater(i)
		}
	}

	buildTopology(s, solIdx)
	return s
}

// N0 returns the number of mass centers appended so far (generator
// internal).
func (s *System) N0() int { return len(s.Kind) }

// clashCell is the smallest side, in Angstrom, of a clashGrid cell.  It
// lies above both clash radii (1.6 A along the chain, 1.5 A for waters)
// with room to spare for rounding in a cell index, so every atom closer
// than a clash radius to a point lies in the 27 cells around the point's.
const clashCell = 1.7

// clashGrid buckets the atoms placed so far in a cell linked list over
// the box: head holds each cell's most recently inserted atom and next
// the atom inserted into the same cell before it, -1 ending both.
// Atoms outside the box fall into its border cells, which keeps the
// 27-cell neighbourhood complete.  A sparse box gets wider cells, at most
// 64 per atom, so head never outgrows the atoms it indexes.
type clashGrid struct {
	pos  []float64 // flat [3n] coordinates the indices refer to
	nc   int       // cells per side
	inv  float64   // cells per Angstrom
	head []int32
	next []int32
}

func newClashGrid(box float64, pos []float64) clashGrid {
	nc := max(1, min(int(box/clashCell), int(math.Cbrt(64*float64(len(pos)/3)))))
	g := clashGrid{
		pos:  pos,
		nc:   nc,
		inv:  float64(nc) / box,
		head: make([]int32, nc*nc*nc),
		next: make([]int32, len(pos)/3),
	}
	for c := range g.head {
		g.head[c] = -1
	}
	return g
}

// cell maps one coordinate to its cell index along an axis.
func (g *clashGrid) cell(v float64) int {
	return min(max(int(v*g.inv), 0), g.nc-1)
}

// insert adds atom i.
func (g *clashGrid) insert(i int) {
	c := (g.cell(g.pos[3*i])*g.nc+g.cell(g.pos[3*i+1]))*g.nc + g.cell(g.pos[3*i+2])
	g.next[i] = g.head[c]
	g.head[c] = int32(i)
}

// minDist2 returns the smallest squared distance from (x, y, z) to an
// inserted atom in the 27 cells around the point's, +Inf when there is
// none, returning early once a distance falls below stop.  Below the
// clash radius the answer is exact: every atom that close lies in those
// cells, and the distance is the same expression over the same operands
// an all-pairs scan evaluates.  Above it the answer is only known to be
// above it — and no generator decision depends on more than that.
func (g *clashGrid) minDist2(x, y, z, stop float64) float64 {
	best := math.Inf(1)
	cx, cy, cz := g.cell(x), g.cell(y), g.cell(z)
	for ix := max(cx-1, 0); ix <= min(cx+1, g.nc-1); ix++ {
		for iy := max(cy-1, 0); iy <= min(cy+1, g.nc-1); iy++ {
			for iz := max(cz-1, 0); iz <= min(cz+1, g.nc-1); iz++ {
				for j := g.head[(ix*g.nc+iy)*g.nc+iz]; j >= 0; j = g.next[j] {
					dx := x - g.pos[3*j]
					dy := y - g.pos[3*j+1]
					dz := z - g.pos[3*j+2]
					if d := dx*dx + dy*dy + dz*dz; d < best {
						best = d
						if best < stop {
							return best
						}
					}
				}
			}
		}
	}
	return best
}

// genChain lays a self-avoiding polymer chain with 1.5 A bonds inside a
// sphere of radius box/3 around the box center: candidate steps that come
// within 1.6 A of an earlier (non-bonded) atom are rejected, and among
// failed tries the best candidate wins so the generator never stalls.  It
// returns the chain with every atom in a clashGrid.
//
// A candidate's clearance decides the outcome only while it is below
// 1.6 A: a first clearance at or above it wins and ends the tries, and it
// beats every earlier candidate's, which were all below.  So the grid's
// neighbourhood minimum picks exactly the atoms an all-pairs scan would.
func genChain(rng *rand.Rand, n int, box float64) ([]float64, clashGrid) {
	pos := make([]float64, 3*n)
	grid := newClashGrid(box, pos)
	if n == 0 {
		return pos, grid
	}
	cx := box / 2
	r := box / 3
	x, y, z := cx, cx, cx
	pos[0], pos[1], pos[2] = x, y, z
	const bond = 1.5
	const minD2 = 1.6 * 1.6
	for i := 1; i < n; i++ {
		bestX, bestY, bestZ := x, y, z
		bestClearance := -1.0
		for try := 0; try < 30; try++ {
			theta := math.Acos(2*rng.Float64() - 1)
			phi := 2 * math.Pi * rng.Float64()
			nx := x + bond*math.Sin(theta)*math.Cos(phi)
			ny := y + bond*math.Sin(theta)*math.Sin(phi)
			nz := z + bond*math.Cos(theta)
			dx, dy, dz := nx-cx, ny-cx, nz-cx
			if dx*dx+dy*dy+dz*dz > r*r {
				continue // stay inside the globule
			}
			// Clearance against all atoms except the bonded predecessor,
			// which enters the grid only once atom i is placed.
			clearance := grid.minDist2(nx, ny, nz, 0)
			if clearance > bestClearance {
				bestClearance, bestX, bestY, bestZ = clearance, nx, ny, nz
			}
			if clearance >= minD2 {
				break
			}
		}
		x, y, z = bestX, bestY, bestZ
		pos[3*i], pos[3*i+1], pos[3*i+2] = x, y, z
		grid.insert(i - 1)
	}
	grid.insert(n - 1)
	return pos, grid
}

// genWaters fills the box with jittered-lattice waters, skipping sites
// within 1.5 A of a solute atom in sol.
func genWaters(rng *rand.Rand, n int, box float64, sol *clashGrid) []float64 {
	pos := make([]float64, 0, 3*n)
	if n == 0 {
		return pos
	}
	// Lattice slightly denser than needed so skipped sites do not starve
	// the fill.
	side := int(math.Ceil(math.Cbrt(float64(n) * 1.6)))
	h := box / float64(side)
	const minD2 = 1.5 * 1.5
outer:
	for ix := 0; ix < side; ix++ {
		for iy := 0; iy < side; iy++ {
			for iz := 0; iz < side; iz++ {
				if len(pos) >= 3*n {
					break outer
				}
				x := (float64(ix) + 0.35 + 0.3*rng.Float64()) * h
				y := (float64(iy) + 0.35 + 0.3*rng.Float64()) * h
				z := (float64(iz) + 0.35 + 0.3*rng.Float64()) * h
				if sol.minDist2(x, y, z, minD2) >= minD2 {
					pos = append(pos, x, y, z)
				}
			}
		}
	}
	// If skipping left a shortfall, place the remainder randomly.
	for len(pos) < 3*n {
		pos = append(pos, rng.Float64()*box, rng.Float64()*box, rng.Float64()*box)
	}
	return pos
}

// soluteType cycles through a protein-like composition.
func soluteType(i int) int {
	switch i % 8 {
	case 0, 3, 5:
		return TypeC
	case 1:
		return TypeN
	case 2:
		return TypeO
	case 7:
		if i%56 == 7 {
			return TypeS
		}
		return TypeC
	default:
		return TypeH
	}
}

// soluteCharge assigns small alternating partial charges summing to ~0.
func soluteCharge(i int) float64 {
	switch i % 4 {
	case 0:
		return +0.30
	case 1:
		return -0.35
	case 2:
		return +0.25
	default:
		return -0.20
	}
}

func typeMass(t int) float64 {
	switch t {
	case TypeC:
		return 12.011
	case TypeN:
		return 14.007
	case TypeO:
		return 15.999
	case TypeH:
		return 1.008
	case TypeS:
		return 32.06
	case TypeW:
		return 18.015
	}
	return 1
}

// buildTopology wires chain bonds, angles, dihedrals and sparse impropers
// over the solute chain (indices are storage positions via solIdx).
func buildTopology(s *System, solIdx []int) {
	na := len(solIdx)
	for i := 0; i+1 < na; i++ {
		s.Bonds = append(s.Bonds, Bond{I: solIdx[i], J: solIdx[i+1], Kb: 450, B0: 1.5})
	}
	for i := 0; i+2 < na; i++ {
		s.Angles = append(s.Angles, Angle{
			I: solIdx[i], J: solIdx[i+1], K: solIdx[i+2],
			Ktheta: 60, Theta0: 1.911, // ~109.5 deg
		})
	}
	for i := 0; i+3 < na; i++ {
		s.Dihedrals = append(s.Dihedrals, Dihedral{
			I: solIdx[i], J: solIdx[i+1], K: solIdx[i+2], L: solIdx[i+3],
			Kphi: 1.4, N: 3, Delta: 0,
		})
	}
	for i := 0; i+3 < na; i += 4 {
		s.Impropers = append(s.Impropers, Improper{
			I: solIdx[i], J: solIdx[i+1], K: solIdx[i+2], L: solIdx[i+3],
			Kxi: 40, Xi0: 0,
		})
	}
}

// Antennapedia returns the paper's medium complex: the Antennapedia
// homeodomain from Drosophila with DNA, 1575 atoms in 2714 waters — 4289
// mass centers.
func Antennapedia() *System {
	return Generate(Config{
		Name: "Antennapedia/DNA (medium)", SoluteAtoms: 1575, Waters: 2714,
		Seed: 42, Interleave: true,
	})
}

// LFB returns the paper's large complex: the LFB homeodomain NMR
// structure, 1655 atoms in 4634 waters — 6289 mass centers.
func LFB() *System {
	return Generate(Config{
		Name: "LFB homeodomain (large)", SoluteAtoms: 1655, Waters: 4634,
		Seed: 43, Interleave: true,
	})
}

// SmallComplex returns the small problem size used for calibration.
func SmallComplex() *System {
	return Generate(Config{
		Name: "small complex", SoluteAtoms: 460, Waters: 840,
		Seed: 44, Interleave: true,
	})
}

// TestComplex returns a tiny system for unit tests.
func TestComplex(soluteAtoms, waters int, seed int64) *System {
	return Generate(Config{
		Name: "test complex", SoluteAtoms: soluteAtoms, Waters: waters,
		Seed: seed, Interleave: true,
	})
}

// ExpandWaters returns a copy of the system with every single-unit water
// replaced by a three-site water (O + 2 H), the pre-optimization model of
// Opal used by the water-model ablation.  Bonded terms for the added O-H
// bonds and H-O-H angles are included; charges follow SPC-like values.
func (s *System) ExpandWaters(seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	nw := s.NWater()
	out := &System{
		Name:    s.Name + " (3-site waters)",
		N:       s.NSolute + 3*nw,
		NSolute: s.NSolute,
		Box:     s.Box,
	}
	out.Kind = make([]Kind, 0, out.N)
	out.Type = make([]int, 0, out.N)
	out.Pos = make([]float64, 0, 3*out.N)
	out.Charge = make([]float64, 0, out.N)
	out.Mass = make([]float64, 0, out.N)
	remap := make([]int, s.N)
	const oh = 0.9572
	for i := 0; i < s.N; i++ {
		remap[i] = len(out.Kind)
		x, y, z := s.Pos[3*i], s.Pos[3*i+1], s.Pos[3*i+2]
		if s.Kind[i] == Solute {
			out.Kind = append(out.Kind, Solute)
			out.Type = append(out.Type, s.Type[i])
			out.Pos = append(out.Pos, x, y, z)
			out.Charge = append(out.Charge, s.Charge[i])
			out.Mass = append(out.Mass, s.Mass[i])
			continue
		}
		o := len(out.Kind)
		// Oxygen.
		out.Kind = append(out.Kind, Water)
		out.Type = append(out.Type, TypeO)
		out.Pos = append(out.Pos, x, y, z)
		out.Charge = append(out.Charge, -0.82)
		out.Mass = append(out.Mass, 15.999)
		// Two hydrogens at the right O-H distance, random orientation.
		for h := 0; h < 2; h++ {
			theta := math.Acos(2*rng.Float64() - 1)
			phi := 2 * math.Pi * rng.Float64()
			out.Kind = append(out.Kind, Water)
			out.Type = append(out.Type, TypeH)
			out.Pos = append(out.Pos,
				x+oh*math.Sin(theta)*math.Cos(phi),
				y+oh*math.Sin(theta)*math.Sin(phi),
				z+oh*math.Cos(theta))
			out.Charge = append(out.Charge, 0.41)
			out.Mass = append(out.Mass, 1.008)
		}
		out.Bonds = append(out.Bonds,
			Bond{I: o, J: o + 1, Kb: 450, B0: oh},
			Bond{I: o, J: o + 2, Kb: 450, B0: oh})
		out.Angles = append(out.Angles, Angle{I: o + 1, J: o, K: o + 2, Ktheta: 55, Theta0: 1.824})
	}
	for _, b := range s.Bonds {
		out.Bonds = append(out.Bonds, Bond{I: remap[b.I], J: remap[b.J], Kb: b.Kb, B0: b.B0})
	}
	for _, a := range s.Angles {
		out.Angles = append(out.Angles, Angle{I: remap[a.I], J: remap[a.J], K: remap[a.K], Ktheta: a.Ktheta, Theta0: a.Theta0})
	}
	for _, d := range s.Dihedrals {
		out.Dihedrals = append(out.Dihedrals, Dihedral{I: remap[d.I], J: remap[d.J], K: remap[d.K], L: remap[d.L], Kphi: d.Kphi, N: d.N, Delta: d.Delta})
	}
	for _, im := range s.Impropers {
		out.Impropers = append(out.Impropers, Improper{I: remap[im.I], J: remap[im.J], K: remap[im.K], L: remap[im.L], Kxi: im.Kxi, Xi0: im.Xi0})
	}
	return out
}
