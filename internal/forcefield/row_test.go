package forcefield

import (
	"math"
	"math/rand"
	"testing"
)

// randomRowSystem builds a random mass-center system plus one pair-list
// row: positions, per-type LJ coefficients, charges (a fraction zeroed to
// exercise the cheap uncharged branch) and a partner set for atom i.
func randomRowSystem(rng *rand.Rand, n int) (pos []float64, types []int, charges []float64, lj *LJTable, i int, js []int32) {
	lj = BuildLJ(DefaultLJ())
	pos = make([]float64, 3*n)
	types = make([]int, n)
	charges = make([]float64, n)
	for k := 0; k < n; k++ {
		pos[3*k] = 50 * rng.Float64()
		pos[3*k+1] = 50 * rng.Float64()
		pos[3*k+2] = 50 * rng.Float64()
		types[k] = rng.Intn(lj.NTypes)
		if rng.Float64() < 0.6 {
			charges[k] = 2*rng.Float64() - 1
		}
	}
	i = rng.Intn(n)
	for k := i + 1; k < n; k++ {
		if rng.Float64() < 0.5 {
			js = append(js, int32(k))
		}
	}
	return pos, types, charges, lj, i, js
}

// scalarRow is the historical per-pair evaluation path of md.evalList:
// a Coeffs lookup and one PairEnergy call per partner, continuing the sums
// evdw0 and ecoul0.
func scalarRow(pos []float64, i int, js []int32, types []int, lj *LJTable, charges, grad []float64, evdw0, ecoul0 float64) (evdw, ecoul float64, nCharged, nPlain int) {
	evdw, ecoul = evdw0, ecoul0
	qi := charges[i]
	ti := types[i]
	for _, j32 := range js {
		j := int(j32)
		c12, c6 := lj.Coeffs(ti, types[j])
		qq := CoulombK * qi * charges[j]
		ev, ec := PairEnergy(pos, i, j, c12, c6, qq, grad)
		evdw += ev
		ecoul += ec
		if qq != 0 {
			nCharged++
		} else {
			nPlain++
		}
	}
	return evdw, ecoul, nCharged, nPlain
}

func assertRowMatchesScalar(t *testing.T, pos []float64, i int, js []int32, types []int, lj *LJTable, charges []float64) {
	t.Helper()
	assertRowMatchesScalarFrom(t, pos, i, js, types, lj, charges, 0, 0)
}

// assertRowMatchesScalarFrom holds PairEnergyRow, continuing the sums
// evdw0 and ecoul0, to scalarRow bit for bit.
func assertRowMatchesScalarFrom(t *testing.T, pos []float64, i int, js []int32, types []int, lj *LJTable, charges []float64, evdw0, ecoul0 float64) {
	t.Helper()
	gradS := make([]float64, 3*len(types))
	evS, ecS, ncS, npS := scalarRow(pos, i, js, types, lj, charges, gradS, evdw0, ecoul0)
	assertRowGives(t, pos, i, js, types, lj, charges, evdw0, ecoul0, evS, ecS, ncS, npS, gradS)
}

// assertRowMatchesLoop holds PairEnergyRow to rowLoop, its Go loop, bit
// for bit.
func assertRowMatchesLoop(t *testing.T, pos []float64, i int, js []int32, types []int, lj *LJTable, charges []float64, evdw0, ecoul0 float64) {
	t.Helper()
	gradS := make([]float64, 3*len(types))
	c12Row, c6Row := lj.Row(types[i])
	evS, ecS, ncS, npS := rowLoop(pos, i, js, types, c12Row, c6Row, charges[i], charges, gradS, evdw0, ecoul0)
	assertRowGives(t, pos, i, js, types, lj, charges, evdw0, ecoul0, evS, ecS, ncS, npS, gradS)
}

// assertRowGives runs PairEnergyRow and requires the reference's sums,
// pair split and gradient (evS, ecS, ncS, npS, gradS) bit for bit.
func assertRowGives(t *testing.T, pos []float64, i int, js []int32, types []int, lj *LJTable, charges []float64, evdw0, ecoul0, evS, ecS float64, ncS, npS int, gradS []float64) {
	t.Helper()
	gradR := make([]float64, 3*len(types))
	c12Row, c6Row := lj.Row(types[i])
	evR, ecR, ncR, npR := PairEnergyRow(pos, i, js, types, c12Row, c6Row, charges[i], charges, gradR, evdw0, ecoul0)
	if math.Float64bits(evS) != math.Float64bits(evR) {
		t.Fatalf("evdw differs: reference %x (%v), row %x (%v)",
			math.Float64bits(evS), evS, math.Float64bits(evR), evR)
	}
	if math.Float64bits(ecS) != math.Float64bits(ecR) {
		t.Fatalf("ecoul differs: reference %x (%v), row %x (%v)",
			math.Float64bits(ecS), ecS, math.Float64bits(ecR), ecR)
	}
	if ncS != ncR || npS != npR {
		t.Fatalf("flop accounting differs: reference (%d charged, %d plain), row (%d, %d)", ncS, npS, ncR, npR)
	}
	for k := range gradS {
		if math.Float64bits(gradS[k]) != math.Float64bits(gradR[k]) {
			t.Fatalf("grad[%d] differs: reference %x (%v), row %x (%v)",
				k, math.Float64bits(gradS[k]), gradS[k], math.Float64bits(gradR[k]), gradR[k])
		}
	}
}

// TestPairEnergyRowMatchesScalar is the property test of the batched
// kernel: over many random systems the row evaluation must match the
// per-pair path bit-for-bit in energies, gradient and pair accounting.
func TestPairEnergyRowMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(60)
		pos, types, charges, lj, i, js := randomRowSystem(rng, n)
		assertRowMatchesScalar(t, pos, i, js, types, lj, charges)
	}
}

// TestPairEnergyRowAccumulators checks the accumulator threading: seeding
// the row kernel with prior sums must behave exactly like continuing the
// scalar += loop from those sums.
func TestPairEnergyRowAccumulators(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pos, types, charges, lj, i, js := randomRowSystem(rng, 40)
	assertRowMatchesScalarFrom(t, pos, i, js, types, lj, charges, 1.25, -3.5)
}

func TestLJTableRow(t *testing.T) {
	lj := BuildLJ(DefaultLJ())
	for ti := 0; ti < lj.NTypes; ti++ {
		c12Row, c6Row := lj.Row(ti)
		if len(c12Row) != lj.NTypes || len(c6Row) != lj.NTypes {
			t.Fatalf("Row(%d) lengths %d/%d, want %d", ti, len(c12Row), len(c6Row), lj.NTypes)
		}
		for tj := 0; tj < lj.NTypes; tj++ {
			c12, c6 := lj.Coeffs(ti, tj)
			if c12Row[tj] != c12 || c6Row[tj] != c6 {
				t.Fatalf("Row(%d)[%d] = (%v, %v), Coeffs = (%v, %v)", ti, tj, c12Row[tj], c6Row[tj], c12, c6)
			}
		}
	}
}

// FuzzPairEnergyRow drives the equivalence property from fuzzed seeds.
func FuzzPairEnergyRow(f *testing.F) {
	f.Add(int64(1), uint8(8))
	f.Add(int64(77), uint8(33))
	f.Add(int64(-19), uint8(2))
	// Rows of 16 to 30 partners whose lanes, summed in another order,
	// round differently.
	f.Add(int64(1), uint8(62))
	f.Add(int64(3), uint8(61))
	f.Add(int64(9), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8) {
		n := 2 + int(nRaw)%63
		rng := rand.New(rand.NewSource(seed))
		pos, types, charges, lj, i, js := randomRowSystem(rng, n)
		assertRowMatchesScalar(t, pos, i, js, types, lj, charges)
	})
}
