package pairlist

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"opalperf/internal/forcefield"
	"opalperf/internal/hpm"
	"opalperf/internal/molecule"
)

// allPairsUpdate is the literal list update of the paper's eq. 3 — every
// partner j > i of every owned row checked in turn — which Update is
// charged for and must reproduce in every result it hands out.
func allPairsUpdate(n int, rows []int, pos []float64, cutoff float64, excl *forcefield.Exclusions) (pairs [][]int32, nactive, checks int, ops hpm.Ops) {
	c2 := cutoff * cutoff
	useCut := cutoff > 0
	nexcl := 0
	pairs = make([][]int32, len(rows))
	for r, i := range rows {
		for j := i + 1; j < n; j++ {
			checks++
			if useCut && forcefield.Dist2(pos, i, j) > c2 {
				continue
			}
			if excl != nil && excl.Excluded(i, j) {
				nexcl++
				continue
			}
			pairs[r] = append(pairs[r], int32(j))
		}
		nactive += len(pairs[r])
	}
	ops = forcefield.PairCheckOps.Times(float64(checks))
	ops = ops.Plus(forcefield.ExclusionOps.Times(float64(nexcl)))
	return pairs, nactive, checks, ops
}

func opsBits(o hpm.Ops) [7]uint64 {
	return [7]uint64{
		math.Float64bits(o.Add), math.Float64bits(o.Mul), math.Float64bits(o.Div),
		math.Float64bits(o.Sqrt), math.Float64bits(o.Exp), math.Float64bits(o.Trig),
		math.Float64bits(o.Cmp),
	}
}

// TestUpdateMatchesAllPairs drives one List per (system, strategy, p)
// through a call sequence that mixes everything the staleness rule must
// see through — sub-skin jitter, a jump beyond the skin, a changed
// cut-off, a centre outside the box, no cut-off, no exclusion set — and
// holds every call to the all-pairs oracle.
func TestUpdateMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	reused, rebuilt := 0, 0
	for trial := 0; trial < 6; trial++ {
		sys := molecule.TestComplex(4+rng.Intn(20), 2+rng.Intn(60), int64(100+trial))
		n := sys.N
		// The bonded exclusions plus one pair that makes some row's last
		// partner (n-1) an excluded one.
		keys := forcefield.BuildExclusions(sys).Keys()
		keys = append(keys, int64(rng.Intn(n-1))*int64(n)+int64(n-1))
		excl := forcefield.ExclusionsFromKeys(n, keys)

		for _, strat := range []Strategy{LCG, RoundRobin, Folded} {
			for p := 1; p <= 8; p++ {
				rows := RowsOf(Owners(n, p, strat, int64(trial)), rng.Intn(p))
				l := NewList(n, rows)
				if len(rows) == 0 {
					// More servers than row pairs: nothing to sweep.
					_, _, _, wantOps := allPairsUpdate(n, rows, sys.Pos, 8, excl)
					if checks, ops := l.Update(sys.Pos, 8, excl); checks != 0 || opsBits(ops) != opsBits(wantOps) || l.NActive != 0 {
						t.Fatalf("trial %d %v p=%d: empty list charged %d checks, %+v", trial, strat, p, checks, ops)
					}
					continue
				}
				pos := append([]float64(nil), sys.Pos...)
				cutoff := 5 + 4*rng.Float64()

				// check runs one Update against the oracle and reports
				// whether it rebuilt the candidates.
				check := func(step string, cutoff float64, excl *forcefield.Exclusions) bool {
					t.Helper()
					before := l.Rebuilds
					checks, ops := l.Update(pos, cutoff, excl)
					wantPairs, wantActive, wantChecks, wantOps := allPairsUpdate(n, rows, pos, cutoff, excl)
					for r := range rows {
						if !slices.Equal(l.Pairs[r], wantPairs[r]) {
							t.Fatalf("trial %d %v p=%d %s: row %d partners %v, want %v", trial, strat, p, step, rows[r], l.Pairs[r], wantPairs[r])
						}
					}
					if l.NActive != wantActive || checks != wantChecks || opsBits(ops) != opsBits(wantOps) {
						t.Fatalf("trial %d %v p=%d %s: active %d checks %d ops %+v, want %d %d %+v",
							trial, strat, p, step, l.NActive, checks, ops, wantActive, wantChecks, wantOps)
					}
					if l.Bytes() != 4*wantActive {
						t.Fatalf("trial %d %v p=%d %s: Bytes %d, want %d", trial, strat, p, step, l.Bytes(), 4*wantActive)
					}
					if l.Rebuilds != before {
						rebuilt++
						return true
					}
					reused++
					return false
				}
				jitter := func(amp float64) {
					for k := range pos {
						pos[k] += amp * (2*rng.Float64() - 1)
					}
				}

				if !check("first", cutoff, excl) {
					t.Fatal("first update reused candidates it never built")
				}
				if check("unchanged", cutoff, excl) {
					t.Fatal("update on unchanged positions rebuilt the candidates")
				}
				for s := 0; s < 4; s++ {
					// Accumulates: a few of these stay under the margin,
					// enough of them cross it.
					jitter(0.3)
					check("jitter", cutoff, excl)
				}
				c := 3 * rng.Intn(n)
				pos[c] += 1.5 * skin
				if !check("jump", cutoff, excl) {
					t.Fatal("a jump beyond the skin reused stale candidates")
				}
				jitter(0.01)
				if check("settle", cutoff, excl) {
					t.Fatal("sub-skin jitter right after a rebuild rebuilt again")
				}
				cutoff += 1.5
				if !check("cutoff grown", cutoff, excl) {
					t.Fatal("a changed cut-off reused candidates built for another")
				}
				pos[3*rng.Intn(n)+1] = -7
				pos[3*rng.Intn(n)+2] = sys.Box + 9
				check("outside box", cutoff, excl)
				if !check("no cutoff", 0, excl) || !check("negative cutoff", -1, excl) {
					t.Fatal("an update without a cut-off did not rebuild")
				}
				check("cutoff back", cutoff, excl)
				if !check("no exclusions", cutoff, nil) {
					t.Fatal("a changed exclusion set reused candidates screened by another")
				}
				jitter(0.01)
				if check("no exclusions again", cutoff, nil) {
					t.Fatal("sub-skin jitter without exclusions rebuilt")
				}
				if !check("exclusions back", cutoff, excl) {
					t.Fatal("a changed exclusion set reused candidates screened by another")
				}
				pos[0] = math.NaN()
				if !check("NaN centre", cutoff, excl) {
					t.Fatal("a NaN position passed the staleness test")
				}
				pos[0] = 0

				// The worst case the skin is sized for: a pair outside the
				// cut-off whose two centres head straight for each other.
				a, b := rows[0], rows[0]+1
				for b < n && excl.Excluded(a, b) {
					b++
				}
				if b == n {
					continue
				}
				place := func(gap float64) {
					pos[3*b], pos[3*b+1], pos[3*b+2] = pos[3*a]+cutoff+gap, pos[3*a+1], pos[3*a+2]
				}
				closeIn := func(each float64) {
					pos[3*a] += each
					pos[3*b] -= each
				}
				place(0.85 * skin)
				l = NewList(n, rows)
				check("apart", cutoff, excl)
				closeIn(0.44 * skin)
				if check("closing under the margin", cutoff, excl) {
					t.Fatal("two centres 0.44 skin from their reference rebuilt the candidates")
				}
				if !slices.Contains(l.Pairs[0], int32(b)) {
					t.Fatalf("pair (%d,%d) closed to inside the cut-off and is not listed", a, b)
				}
				place(0.97 * skin)
				if !check("apart again", cutoff, excl) {
					t.Fatal("a centre moved half a skin and the candidates were reused")
				}
				closeIn(0.49 * skin)
				if !check("closing past the margin", cutoff, excl) {
					t.Fatal("two centres 0.49 skin from their reference reused the candidates")
				}
				if !slices.Contains(l.Pairs[0], int32(b)) {
					t.Fatalf("pair (%d,%d) closed to inside the cut-off and is not listed", a, b)
				}
			}
		}
	}
	if reused == 0 || rebuilt == 0 {
		t.Fatalf("sequence exercised %d reuses and %d rebuilds; need both", reused, rebuilt)
	}
	t.Logf("%d updates reused the candidates, %d rebuilt them", reused, rebuilt)
}
