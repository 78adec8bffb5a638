package molecule

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// fingerprint pins a generated system: its sizes, the bits of its box,
// its topology counts and an FNV-64a hash over the bits of every
// coordinate.  Two systems with equal fingerprints are, for every run
// built on them, the same input.
func fingerprint(s *System) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range s.Pos {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("n=%d solute=%d box=%016x bonds=%d angles=%d dihedrals=%d impropers=%d pos=%016x",
		s.N, s.NSolute, math.Float64bits(s.Box), len(s.Bonds), len(s.Angles),
		len(s.Dihedrals), len(s.Impropers), h.Sum64())
}

// bench is the root benchmarks' and bench/'s way of naming a complex.
func bench(name string, atoms, waters int, seed int64) func() *System {
	return func() *System {
		return Generate(Config{Name: name, SoluteAtoms: atoms, Waters: waters, Seed: seed, Interleave: true})
	}
}

// goldenSystems are the generated systems that goldens elsewhere depend
// on: the paper's complexes, the bench's sim-* workloads (TestComplex(2,
// 4, 9) and the 390 + 680 sim-physics complex, which is also the root
// benchmarks' medium system), the root benchmarks' small and large
// systems and the harness tests' three sizes.  The scaled sizes of
// harness.Sizes are pinned in the harness package.
var goldenSystems = []struct {
	name string
	gen  func() *System
	want string
}{
	{"SmallComplex", SmallComplex,
		"n=1300 solute=460 box=4040ed8a42fae79a bonds=459 angles=458 dihedrals=457 impropers=115 pos=995912912398ee2c"},
	{"Antennapedia", Antennapedia,
		"n=4289 solute=1575 box=4049334c15245211 bonds=1574 angles=1573 dihedrals=1572 impropers=393 pos=815c930c70742e7c"},
	{"LFB", LFB,
		"n=6289 solute=1655 box=404ca12ed90aae88 bonds=1654 angles=1653 dihedrals=1652 impropers=413 pos=39faf56cbe044e85"},
	{"TestComplex(2,4,9)", func() *System { return TestComplex(2, 4, 9) },
		"n=6 solute=2 box=40168c1f039bc195 bonds=1 angles=0 dihedrals=0 impropers=0 pos=8ac381cc2d808923"},
	{"bench medium 390+680", bench("medium (bench)", 390, 680, 42),
		"n=1070 solute=390 box=403fba6f9270192f bonds=389 angles=388 dihedrals=387 impropers=97 pos=45bed05e07df4c07"},
	{"bench small 115+210", bench("small (bench)", 115, 210, 44),
		"n=325 solute=115 box=403553eb1a7f5925 bonds=114 angles=113 dihedrals=112 impropers=28 pos=120ad45397e5e9b0"},
	{"bench large 410+1160", bench("large (bench)", 410, 1160, 43),
		"n=1570 solute=410 box=404206e477f6dee7 bonds=409 angles=408 dihedrals=407 impropers=102 pos=ceb92e95d013a547"},
	{"TestComplex(110,190,44)", func() *System { return TestComplex(110, 190, 44) },
		"n=300 solute=110 box=4034c42b45a6c318 bonds=109 angles=108 dihedrals=107 impropers=27 pos=e184dda529bfbb31"},
	{"TestComplex(300,500,42)", func() *System { return TestComplex(300, 500, 42) },
		"n=800 solute=300 box=403ccc0d2d0e6104 bonds=299 angles=298 dihedrals=297 impropers=75 pos=476c20000188a40b"},
	{"TestComplex(430,870,43)", func() *System { return TestComplex(430, 870, 43) },
		"n=1300 solute=430 box=4040ed8a42fae79a bonds=429 angles=428 dihedrals=427 impropers=107 pos=cf49c2ce5888d3fc"},
}

// TestGeneratorGolden holds the generator to its output bit for bit: a
// moved coordinate fails here, naming the system, before it shows up as
// drift in a fidelity, allocation or bench golden.
func TestGeneratorGolden(t *testing.T) {
	for _, g := range goldenSystems {
		if got := fingerprint(g.gen()); got != g.want {
			t.Errorf("%s:\n got %s\nwant %s", g.name, got, g.want)
		}
	}
}

// refGenChain is genChain with the all-pairs clash check: every
// candidate is compared with every earlier atom.  It is the reference the
// cell-list generator must match bit for bit.
func refGenChain(rng *rand.Rand, n int, box float64) []float64 {
	pos := make([]float64, 3*n)
	if n == 0 {
		return pos
	}
	cx := box / 2
	r := box / 3
	x, y, z := cx, cx, cx
	pos[0], pos[1], pos[2] = x, y, z
	const bond = 1.5
	const minD2 = 1.6 * 1.6
	minDist2To := func(px, py, pz float64, upto int) float64 {
		best := math.Inf(1)
		for j := 0; j < upto; j++ {
			dx := px - pos[3*j]
			dy := py - pos[3*j+1]
			dz := pz - pos[3*j+2]
			if d := dx*dx + dy*dy + dz*dz; d < best {
				best = d
			}
		}
		return best
	}
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
				continue
			}
			clearance := minDist2To(nx, ny, nz, i-1)
			if clearance > bestClearance {
				bestClearance, bestX, bestY, bestZ = clearance, nx, ny, nz
			}
			if clearance >= minD2 {
				break
			}
		}
		x, y, z = bestX, bestY, bestZ
		pos[3*i], pos[3*i+1], pos[3*i+2] = x, y, z
	}
	return pos
}

// refGenWaters is genWaters with the all-solute scan per lattice site,
// the reference for the cell-list version.
func refGenWaters(rng *rand.Rand, n int, box float64, sol []float64) []float64 {
	pos := make([]float64, 0, 3*n)
	if n == 0 {
		return pos
	}
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
				ok := true
				for j := 0; j+2 < len(sol); j += 3 {
					dx, dy, dz := x-sol[j], y-sol[j+1], z-sol[j+2]
					if dx*dx+dy*dy+dz*dz < minD2 {
						ok = false
						break
					}
				}
				if ok {
					pos = append(pos, x, y, z)
				}
			}
		}
	}
	for len(pos) < 3*n {
		pos = append(pos, rng.Float64()*box, rng.Float64()*box, rng.Float64()*box)
	}
	return pos
}

// refPositions lays the reference chain and waters out in cfg's storage
// order, as Generate does.
func refPositions(cfg Config) []float64 {
	if cfg.DensityPerA3 <= 0 {
		cfg.DensityPerA3 = aqueousDensity
	}
	box := math.Cbrt(float64(cfg.SoluteAtoms+cfg.Waters) / cfg.DensityPerA3)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sol := refGenChain(rng, cfg.SoluteAtoms, box)
	wat := refGenWaters(rng, cfg.Waters, box, sol)
	if !cfg.Interleave {
		return append(sol, wat...)
	}
	var pos []float64
	na, nw := cfg.SoluteAtoms, cfg.Waters
	for i := 0; i < max(na, nw); i++ {
		if i < na {
			pos = append(pos, sol[3*i:3*i+3]...)
		}
		if i < nw {
			pos = append(pos, wat[3*i:3*i+3]...)
		}
	}
	return pos
}

// TestGenerateMatchesReference draws random complexes — 2-400 solute
// atoms, 4-800 waters, both layouts, a third of them at a non-default
// density down to 0.001 per A^3 — and requires Generate to place every
// atom on the reference generator's coordinates, bit for bit.
func TestGenerateMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{
			SoluteAtoms: 2 + r.Intn(399),
			Waters:      4 + r.Intn(797),
			Seed:        r.Int63(),
			Interleave:  seed%2 == 0,
		}
		if seed%3 == 0 { // sparse boxes reach the grid's cells-per-atom cap
			cfg.DensityPerA3 = 0.001 + 0.05*r.Float64()
		}
		got, want := Generate(cfg).Pos, refPositions(cfg)
		if len(got) != len(want) {
			t.Fatalf("seed %d %+v: %d coordinates, reference has %d", seed, cfg, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d %+v: coordinate %d = %v, reference %v", seed, cfg, i, got[i], want[i])
			}
		}
	}
}
