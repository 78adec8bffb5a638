package forcefield

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"opalperf/internal/molecule"
)

// numGrad computes the numerical gradient of energy(pos) at pos.
func numGrad(pos []float64, energy func([]float64) float64) []float64 {
	const h = 1e-6
	g := make([]float64, len(pos))
	for i := range pos {
		orig := pos[i]
		pos[i] = orig + h
		ep := energy(pos)
		pos[i] = orig - h
		em := energy(pos)
		pos[i] = orig
		g[i] = (ep - em) / (2 * h)
	}
	return g
}

func gradClose(t *testing.T, analytic, numeric []float64, tol float64, what string) {
	t.Helper()
	for i := range analytic {
		scale := 1 + math.Abs(analytic[i]) + math.Abs(numeric[i])
		if math.Abs(analytic[i]-numeric[i])/scale > tol {
			t.Fatalf("%s: grad[%d] analytic %v vs numeric %v", what, i, analytic[i], numeric[i])
		}
	}
}

func randPos(rng *rand.Rand, n int) []float64 {
	pos := make([]float64, 3*n)
	for i := range pos {
		pos[i] = rng.Float64() * 4
	}
	return pos
}

func TestPairEnergyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		pos := randPos(rng, 2)
		// Keep the pair from sitting on top of itself.
		pos[3] += 1.5
		c12, c6, qq := 5000.0, 30.0, 0.8
		if trial%3 == 0 {
			qq = 0 // water pair: LJ only
		}
		energy := func(p []float64) float64 {
			g := make([]float64, len(p))
			ev, ec := PairEnergy(p, 0, 1, c12, c6, qq, g)
			return ev + ec
		}
		grad := make([]float64, 6)
		PairEnergy(pos, 0, 1, c12, c6, qq, grad)
		gradClose(t, grad, numGrad(pos, energy), 1e-4, "pair")
	}
}

func TestPairEnergyValues(t *testing.T) {
	// At r = 2 with c12 = 2^12, c6 = 2^6: evdw = 2^12/2^12 - 2^6/2^6 = 0.
	pos := []float64{0, 0, 0, 2, 0, 0}
	g := make([]float64, 6)
	ev, ec := PairEnergy(pos, 0, 1, 4096, 64, 2.0, g)
	if math.Abs(ev) > 1e-12 {
		t.Errorf("evdw = %v, want 0", ev)
	}
	if math.Abs(ec-1.0) > 1e-12 {
		t.Errorf("ecoul = %v, want 1 (qq/r = 2/2)", ec)
	}
}

func TestUnchargedPairHasNoCoulomb(t *testing.T) {
	pos := []float64{0, 0, 0, 1.7, 0, 0}
	g := make([]float64, 6)
	_, ec := PairEnergy(pos, 0, 1, 1000, 10, 0, g)
	if ec != 0 {
		t.Errorf("ecoul = %v for uncharged pair", ec)
	}
}

func TestBondGradientAndMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := molecule.Bond{I: 0, J: 1, Kb: 450, B0: 1.5}
	for trial := 0; trial < 25; trial++ {
		pos := randPos(rng, 2)
		pos[3] += 1.0
		energy := func(p []float64) float64 {
			g := make([]float64, len(p))
			return BondEnergy(p, b, g)
		}
		grad := make([]float64, 6)
		BondEnergy(pos, b, grad)
		gradClose(t, grad, numGrad(pos, energy), 1e-4, "bond")
	}
	// Exactly at b0 the energy and gradient vanish.
	pos := []float64{0, 0, 0, 1.5, 0, 0}
	g := make([]float64, 6)
	if e := BondEnergy(pos, b, g); e != 0 {
		t.Errorf("energy at minimum = %v", e)
	}
	for _, v := range g {
		if v != 0 {
			t.Errorf("gradient at minimum = %v", g)
		}
	}
}

func TestAngleGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := molecule.Angle{I: 0, J: 1, K: 2, Ktheta: 60, Theta0: 1.9}
	for trial := 0; trial < 25; trial++ {
		pos := randPos(rng, 3)
		energy := func(p []float64) float64 {
			g := make([]float64, len(p))
			return AngleEnergy(p, a, g)
		}
		grad := make([]float64, 9)
		AngleEnergy(pos, a, grad)
		gradClose(t, grad, numGrad(pos, energy), 1e-3, "angle")
	}
}

func TestAngleAtEquilibrium(t *testing.T) {
	// 90-degree angle with theta0 = pi/2: zero energy.
	a := molecule.Angle{I: 0, J: 1, K: 2, Ktheta: 60, Theta0: math.Pi / 2}
	pos := []float64{1, 0, 0, 0, 0, 0, 0, 1, 0}
	g := make([]float64, 9)
	if e := AngleEnergy(pos, a, g); math.Abs(e) > 1e-12 {
		t.Errorf("energy = %v", e)
	}
}

func TestDihedralGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := molecule.Dihedral{I: 0, J: 1, K: 2, L: 3, Kphi: 1.4, N: 3, Delta: 0.5}
	for trial := 0; trial < 25; trial++ {
		pos := randPos(rng, 4)
		energy := func(p []float64) float64 {
			g := make([]float64, len(p))
			return DihedralEnergy(p, d, g)
		}
		grad := make([]float64, 12)
		DihedralEnergy(pos, d, grad)
		gradClose(t, grad, numGrad(pos, energy), 1e-3, "dihedral")
	}
}

func TestImproperGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	im := molecule.Improper{I: 0, J: 1, K: 2, L: 3, Kxi: 40, Xi0: 0.3}
	for trial := 0; trial < 25; trial++ {
		pos := randPos(rng, 4)
		energy := func(p []float64) float64 {
			g := make([]float64, len(p))
			return ImproperEnergy(p, im, g)
		}
		grad := make([]float64, 12)
		ImproperEnergy(pos, im, grad)
		gradClose(t, grad, numGrad(pos, energy), 1e-3, "improper")
	}
}

func TestDegenerateGeometryIsSafe(t *testing.T) {
	// Collinear atoms make dihedrals undefined; the term must return 0
	// without NaN.
	pos := []float64{0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0}
	g := make([]float64, 12)
	d := molecule.Dihedral{I: 0, J: 1, K: 2, L: 3, Kphi: 1, N: 1}
	if e := DihedralEnergy(pos, d, g); math.IsNaN(e) {
		t.Error("NaN from collinear dihedral")
	}
	a := molecule.Angle{I: 0, J: 1, K: 2, Ktheta: 1, Theta0: 1}
	if e := AngleEnergy(pos, a, g); math.IsNaN(e) {
		t.Error("NaN from collinear angle")
	}
	// Coincident bond atoms.
	b := molecule.Bond{I: 0, J: 0, Kb: 1, B0: 1}
	pos2 := []float64{0, 0, 0}
	g2 := make([]float64, 3)
	if e := BondEnergy(pos2, b, g2); math.IsNaN(e) {
		t.Error("NaN from zero-length bond")
	}
}

func TestBondedEnergyAggregates(t *testing.T) {
	sys := molecule.TestComplex(8, 4, 11)
	grad := make([]float64, 3*sys.N)
	e, ops := BondedEnergy(sys, sys.Pos, grad)
	if math.IsNaN(e) {
		t.Fatal("NaN bonded energy")
	}
	if ops.Canonical() <= 0 {
		t.Fatal("no ops counted")
	}
	// Op count must equal the per-term tables.
	want := BondOps.Times(float64(len(sys.Bonds))).
		Plus(AngleOps.Times(float64(len(sys.Angles)))).
		Plus(DihedralOps.Times(float64(len(sys.Dihedrals)))).
		Plus(ImproperOps.Times(float64(len(sys.Impropers))))
	if ops != want {
		t.Errorf("ops = %+v, want %+v", ops, want)
	}
}

// Property: the total gradient of any term sums to zero over the atoms
// (Newton's third law / translation invariance).
func TestForcesSumToZeroProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pos := randPos(rng, 4)
		pos[3] += 1.2 // avoid singular overlaps
		grad := make([]float64, 12)
		PairEnergy(pos, 0, 1, 100, 10, 0.5, grad)
		BondEnergy(pos, molecule.Bond{I: 0, J: 1, Kb: 100, B0: 1}, grad)
		AngleEnergy(pos, molecule.Angle{I: 0, J: 1, K: 2, Ktheta: 10, Theta0: 1}, grad)
		DihedralEnergy(pos, molecule.Dihedral{I: 0, J: 1, K: 2, L: 3, Kphi: 1, N: 2, Delta: 0.1}, grad)
		ImproperEnergy(pos, molecule.Improper{I: 0, J: 1, K: 2, L: 3, Kxi: 5, Xi0: 0}, grad)
		for d := 0; d < 3; d++ {
			sum := grad[d] + grad[3+d] + grad[6+d] + grad[9+d]
			if math.Abs(sum) > 1e-8*(1+math.Abs(grad[d])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLJTableSymmetricPositive(t *testing.T) {
	tab := BuildLJ(DefaultLJ())
	for i := 0; i < tab.NTypes; i++ {
		for j := 0; j < tab.NTypes; j++ {
			c12a, c6a := tab.Coeffs(i, j)
			c12b, c6b := tab.Coeffs(j, i)
			if c12a != c12b || c6a != c6b {
				t.Fatalf("LJ table asymmetric at (%d,%d)", i, j)
			}
			if c12a <= 0 || c6a <= 0 {
				t.Fatalf("non-positive LJ coeffs at (%d,%d)", i, j)
			}
		}
	}
}

func TestLJMinimumLocation(t *testing.T) {
	// For V = c12/r^12 - c6/r^6 the minimum sits at r = (2 c12/c6)^(1/6)
	// = 2^(1/6) sigma.
	params := []LJParams{{Sigma: 3.0, Eps: 0.2}}
	tab := BuildLJ(params)
	c12, c6 := tab.Coeffs(0, 0)
	rmin := math.Pow(2*c12/c6, 1.0/6.0)
	if math.Abs(rmin-3.0*math.Pow(2, 1.0/6.0)) > 1e-9 {
		t.Errorf("rmin = %v", rmin)
	}
	// Energy at the minimum is -eps.
	pos := []float64{0, 0, 0, rmin, 0, 0}
	g := make([]float64, 6)
	ev, _ := PairEnergy(pos, 0, 1, c12, c6, 0, g)
	if math.Abs(ev+0.2) > 1e-9 {
		t.Errorf("well depth = %v, want -0.2", ev)
	}
}

func TestExclusions(t *testing.T) {
	sys := molecule.TestComplex(6, 2, 21)
	ex := BuildExclusions(sys)
	// Every bond is excluded, in both orders.
	for _, b := range sys.Bonds {
		if !ex.Excluded(b.I, b.J) || !ex.Excluded(b.J, b.I) {
			t.Fatalf("bond (%d,%d) not excluded", b.I, b.J)
		}
	}
	// 1-3 neighbours via angles.
	for _, a := range sys.Angles {
		if !ex.Excluded(a.I, a.K) {
			t.Fatalf("angle ends (%d,%d) not excluded", a.I, a.K)
		}
	}
	// A water pair is never excluded (waters sit at odd indices 1 and 3
	// in the interleaved layout).
	if sys.Kind[1] != molecule.Water || sys.Kind[3] != molecule.Water {
		t.Fatal("test assumption about interleaving broken")
	}
	if ex.Excluded(1, 3) {
		t.Error("water pair excluded")
	}
}

// TestExclusionsRoundTrip sends the set the way Init does: Keys() out,
// ExclusionsFromKeys back.  The keys must come out ascending (a map used
// to order them differently on every run) and the rebuilt table must
// answer every query alike.
func TestExclusionsRoundTrip(t *testing.T) {
	sys := molecule.TestComplex(9, 5, 21)
	ex := BuildExclusions(sys)
	keys := ex.Keys()
	if len(keys) != ex.Len() || len(keys) == 0 {
		t.Fatalf("%d keys for %d exclusions", len(keys), ex.Len())
	}
	if !slices.IsSorted(keys) || len(slices.Compact(slices.Clone(keys))) != len(keys) {
		t.Fatalf("keys not strictly ascending: %v", keys)
	}
	// The wire order does not matter, nor do duplicates.
	shuffled := append(slices.Clone(keys), keys[0])
	slices.Reverse(shuffled)
	ex2 := ExclusionsFromKeys(sys.N, shuffled)
	if ex2.Len() != ex.Len() || !slices.Equal(ex2.Keys(), keys) {
		t.Fatalf("round trip changed the set: %d vs %d exclusions", ex2.Len(), ex.Len())
	}
	for i := 0; i < sys.N; i++ {
		if !slices.Equal(ex2.Row(i), ex.Row(i)) {
			t.Fatalf("row %d: %v, want %v", i, ex2.Row(i), ex.Row(i))
		}
		if !slices.IsSorted(ex.Row(i)) || (len(ex.Row(i)) > 0 && int(ex.Row(i)[0]) <= i) {
			t.Fatalf("row %d = %v: want partners above the row, ascending", i, ex.Row(i))
		}
		for j := 0; j < sys.N; j++ {
			want := i != j && slices.Contains(keys, int64(min(i, j))*int64(sys.N)+int64(max(i, j)))
			if ex.Excluded(i, j) != want || ex2.Excluded(i, j) != want {
				t.Fatalf("Excluded(%d,%d) = %v / %v after the round trip, want %v", i, j, ex.Excluded(i, j), ex2.Excluded(i, j), want)
			}
		}
	}
}

func TestExclusionsFromKeysRejectsMalformedKey(t *testing.T) {
	reject := func(n int, key int64) {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "malformed exclusion key") {
				t.Errorf("key %d for %d centers: recovered %q, want the malformed-key panic", key, n, msg)
			}
		}()
		ExclusionsFromKeys(n, []int64{key})
	}
	for _, key := range []int64{-1, 3*5 + 3, 4*5 + 1, 5 * 5} {
		reject(5, key)
	}
	reject(0, 7)
}

// BenchmarkExcluded times one membership query over the bench system's
// solute rows, hits and misses alike.
func BenchmarkExcluded(b *testing.B) {
	sys := molecule.Generate(molecule.Config{
		Name: "medium (bench)", SoluteAtoms: 390, Waters: 680, Seed: 42, Interleave: true,
	})
	ex := BuildExclusions(sys)
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := (2 * n) % sys.N
		if ex.Excluded(i, (i+2*(n%8))%sys.N) {
			hits++
		}
	}
	if hits == 0 && b.N > 100 {
		b.Fatal("no query hit an exclusion, benchmark is vacuous")
	}
}

func TestDist2(t *testing.T) {
	pos := []float64{0, 0, 0, 3, 4, 0}
	if d := Dist2(pos, 0, 1); d != 25 {
		t.Errorf("dist2 = %v", d)
	}
}
