package forcefield

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The pair kernels must give the Go loops' bits on every build: these
// tests run the vector kernels where the host has them and the portable
// loops under -tags purego, -race or on another architecture.

// keepWithinLoop is the Go filter loop of KeepWithin, the reference the
// vector kernel is held to.
func keepWithinLoop(pos []float64, xi, yi, zi, c2 float64, js, out []int32) int {
	n := 0
	for _, j := range js {
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

// keepRangeLoop is the Go loop of KeepRange.
func keepRangeLoop(pos []float64, xi, yi, zi, c2 float64, lo, hi int, out []int32) int {
	n := 0
	j := int32(lo)
	for p := pos[3*lo : 3*hi]; len(p) >= 3; p = p[3:] {
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

// FuzzKeepWithin holds KeepWithin to its Go loop: 0 to 19 candidates on a
// small integer grid, so that a squared distance often equals c2 exactly,
// with NaN and ±Inf coordinates where the bits of specials ask for them,
// into a separate buffer and in place.  KeepRange is held to its loop over
// a run of as many consecutive centers.
func FuzzKeepWithin(f *testing.F) {
	f.Add(int64(1), uint8(8), uint64(0))
	f.Add(int64(2), uint8(19), uint64(0x0123_4567_89ab_cdef))
	f.Add(int64(-5), uint8(4), uint64(1<<63|1))
	f.Add(int64(9), uint8(0), uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, specials uint64) {
		rng := rand.New(rand.NewSource(seed))
		n := 24
		pos := make([]float64, 3*n)
		for k := range pos {
			pos[k] = float64(rng.Intn(9))
		}
		// Two bits per coordinate of the first 32: nothing, NaN, +Inf, -Inf.
		for k := 0; k < 32 && k < len(pos); k++ {
			switch specials >> (2 * k) & 3 {
			case 1:
				pos[k] = math.NaN()
			case 2:
				pos[k] = math.Inf(1)
			case 3:
				pos[k] = math.Inf(-1)
			}
		}
		js := make([]int32, int(nRaw)%20)
		for k := range js {
			js[k] = int32(rng.Intn(n))
		}
		i := rng.Intn(n)
		xi, yi, zi := pos[3*i], pos[3*i+1], pos[3*i+2]
		c2 := float64(rng.Intn(60))
		if len(js) > 0 && rng.Intn(2) == 0 {
			c2 = Dist2(pos, i, int(js[rng.Intn(len(js))])) // a d2 == c2 tie
		}
		want := make([]int32, len(js))
		nWant := keepWithinLoop(pos, xi, yi, zi, c2, js, want)
		got := make([]int32, len(js))
		if nGot := KeepWithin(pos, xi, yi, zi, c2, js, got); nGot != nWant || !slices.Equal(got[:nGot], want[:nWant]) {
			t.Fatalf("KeepWithin kept %v, the Go loop %v (c2 %v, candidates %v)", got[:nGot], want[:nWant], c2, js)
		}
		inPlace := slices.Clone(js)
		if nGot := KeepWithin(pos, xi, yi, zi, c2, inPlace, inPlace); nGot != nWant || !slices.Equal(inPlace[:nGot], want[:nWant]) {
			t.Fatalf("KeepWithin in place kept %v, the Go loop %v", inPlace[:nGot], want[:nWant])
		}
		lo := rng.Intn(n - len(js) + 1)
		hi := lo + len(js)
		nWant = keepRangeLoop(pos, xi, yi, zi, c2, lo, hi, want)
		if nGot := KeepRange(pos, xi, yi, zi, c2, lo, hi, got); nGot != nWant || !slices.Equal(got[:nGot], want[:nWant]) {
			t.Fatalf("KeepRange(%d, %d) kept %v, the Go loop %v", lo, hi, got[:nGot], want[:nWant])
		}
	})
}

// rowLoop is PairEnergyRow's Go loop over the whole row.
func rowLoop(pos []float64, i int, js []int32, types []int, c12Row, c6Row []float64, qi float64, charges, grad []float64, evdw0, ecoul0 float64) (evdw, ecoul float64, nCharged, nPlain int) {
	evdw, ecoul = evdw0, ecoul0
	xi := pos[3*i]
	yi := pos[3*i+1]
	zi := pos[3*i+2]
	qk := CoulombK * qi
	gi := grad[3*i : 3*i+3 : 3*i+3]
	for _, j32 := range js {
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

// TestPairEnergyRowSpecialValues holds PairEnergyRow to scalarRow and to
// its own Go loop bit for bit on rows long enough for two vector blocks
// and a tail, each with one kind of special value in its first block.
// scalarRow is no reference for a -0 Coulomb sum: it adds PairEnergy's +0
// term for an uncharged pair, which makes the sum +0, where the row loop
// adds nothing.
func TestPairEnergyRowSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name           string
		edit           func(pos, charges []float64, lj *LJTable)
		evdw0, ecoul0  float64
		unchargedAfter bool // zero every partner's charge
	}{
		{name: "r2 = 0", edit: func(pos, _ []float64, _ *LJTable) { copy(pos[3*2:3*2+3], pos[0:3]) }},
		{name: "NaN coordinate", edit: func(pos, _ []float64, _ *LJTable) { pos[3*3+1] = math.NaN() }},
		{name: "Inf coordinate", edit: func(pos, _ []float64, _ *LJTable) { pos[3*1] = math.Inf(-1) }},
		{name: "charges ±0", edit: func(_, charges []float64, _ *LJTable) {
			charges[1], charges[2], charges[5] = 0, negZero, negZero
		}},
		{name: "own charge -0", edit: func(_, charges []float64, _ *LJTable) { charges[0] = negZero }},
		{name: "ecoul0 = -0, uncharged partners", ecoul0: negZero, unchargedAfter: true},
		{name: "sums -0, uncharged partners", evdw0: negZero, ecoul0: negZero, unchargedAfter: true},
		{name: "c12 = c6 = 0", edit: func(_, _ []float64, lj *LJTable) {
			clear(lj.C12)
			clear(lj.C6)
		}},
		{name: "c12 = c6 = 0 and r2 = 0", edit: func(pos, _ []float64, lj *LJTable) {
			clear(lj.C12)
			clear(lj.C6)
			copy(pos[3*4:3*4+3], pos[0:3])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			n := 12
			pos, types, charges, lj, _, _ := randomRowSystem(rng, n)
			for k := range charges {
				charges[k] = 2*rng.Float64() - 1 // every center charged unless edited
			}
			if tc.unchargedAfter {
				clear(charges[1:])
			}
			if tc.edit != nil {
				tc.edit(pos, charges, lj)
			}
			js := make([]int32, n-1) // 1..11: two blocks of four and a tail of three
			for k := range js {
				js[k] = int32(k + 1)
			}
			if math.Signbit(tc.ecoul0) {
				assertRowMatchesLoop(t, pos, 0, js, types, lj, charges, tc.evdw0, tc.ecoul0)
			} else {
				assertRowMatchesScalarFrom(t, pos, 0, js, types, lj, charges, tc.evdw0, tc.ecoul0)
				assertRowMatchesLoop(t, pos, 0, js, types, lj, charges, tc.evdw0, tc.ecoul0)
			}
		})
	}
}

// TestPairEnergyRowGradIsPos passes one slice as positions and gradient,
// with a partner twice in one block of four: the loop then reads
// coordinates it has just written, and the row must do the same.
func TestPairEnergyRowGradIsPos(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pos, types, charges, lj, _, _ := randomRowSystem(rng, 20)
	js := []int32{1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	c12Row, c6Row := lj.Row(types[0])
	want := slices.Clone(pos)
	evS, ecS, _, _ := rowLoop(want, 0, js, types, c12Row, c6Row, charges[0], charges, want, 0, 0)
	evR, ecR, _, _ := PairEnergyRow(pos, 0, js, types, c12Row, c6Row, charges[0], charges, pos, 0, 0)
	if math.Float64bits(evS) != math.Float64bits(evR) || math.Float64bits(ecS) != math.Float64bits(ecR) {
		t.Fatalf("sums differ: loop (%v, %v), row (%v, %v)", evS, ecS, evR, ecR)
	}
	for k := range want {
		if math.Float64bits(want[k]) != math.Float64bits(pos[k]) {
			t.Fatalf("pos/grad[%d] differs: loop %v, row %v", k, want[k], pos[k])
		}
	}
}

// TestPairKernelsPanicOnBadIndex puts a bad partner index or type in the
// second block of a row: each must panic with the Go index error, and no
// element past the end of grad may change.
func TestPairKernelsPanicOnBadIndex(t *testing.T) {
	const n = 12
	mustPanic := func(t *testing.T, run func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			err, ok := r.(runtime.Error)
			if !ok || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("recovered %v, want a Go index error", r)
			}
		}()
		run()
	}
	row := func(bad int32, badType bool) func() {
		return func() {
			rng := rand.New(rand.NewSource(3))
			pos, types, charges, lj, _, _ := randomRowSystem(rng, n)
			js := []int32{1, 2, 3, 4, 5, 6, bad, 8, 9}
			if badType {
				js[6] = 7
				types[7] = lj.NTypes
			}
			backing := make([]float64, 3*n+6)
			for k := 3 * n; k < len(backing); k++ {
				backing[k] = float64(k)
			}
			grad := backing[: 3*n : 3*n]
			defer func() {
				for k := 3 * n; k < len(backing); k++ {
					if backing[k] != float64(k) {
						t.Errorf("element %d past grad changed to %v", k-3*n, backing[k])
					}
				}
			}()
			c12Row, c6Row := lj.Row(types[0])
			PairEnergyRow(pos, 0, js, types, c12Row, c6Row, charges[0], charges, grad, 0, 0)
		}
	}
	keep := func(bad int32) func() {
		return func() {
			pos := make([]float64, 3*n)
			js := []int32{1, 2, 3, 4, 5, 6, bad, 8, 9}
			KeepWithin(pos, 0, 0, 0, 100, js, make([]int32, len(js)))
		}
	}
	t.Run("row index n", func(t *testing.T) { mustPanic(t, row(n, false)) })
	t.Run("row index -1", func(t *testing.T) { mustPanic(t, row(-1, false)) })
	t.Run("row type NTypes", func(t *testing.T) { mustPanic(t, row(0, true)) })
	t.Run("filter index n", func(t *testing.T) { mustPanic(t, keep(n)) })
	t.Run("filter index -1", func(t *testing.T) { mustPanic(t, keep(-1)) })
	t.Run("range past n", func(t *testing.T) {
		mustPanic(t, func() { KeepRange(make([]float64, 3*n), 0, 0, 0, 100, 2, n+1, make([]int32, n)) })
	})
	t.Run("range from -4", func(t *testing.T) {
		mustPanic(t, func() { KeepRange(make([]float64, 3*n), 0, 0, 0, 100, -4, 6, make([]int32, n)) })
	})
}
