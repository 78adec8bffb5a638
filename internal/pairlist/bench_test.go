package pairlist

import (
	"math/rand"
	"testing"

	"opalperf/internal/forcefield"
	"opalperf/internal/molecule"
)

// benchSystem is the 1070-centre complex of the front-door benchmark's
// sim-physics workload, at that workload's cut-off.
func benchSystem() (*molecule.System, *forcefield.Exclusions) {
	sys := molecule.Generate(molecule.Config{
		Name: "medium (bench)", SoluteAtoms: 390, Waters: 680, Seed: 42, Interleave: true,
	})
	return sys, forcefield.BuildExclusions(sys)
}

const benchCutoff = 10

// BenchmarkUpdate times the two branches of Update per charged check:
// "reuse" repeats the update on unchanged positions (the staleness test
// plus the candidate filter), "rebuild" alternates two position sets more
// than the skin apart so every call sweeps all pairs first.
func BenchmarkUpdate(b *testing.B) {
	sys, excl := benchSystem()
	moved := append([]float64(nil), sys.Pos...)
	for k := range moved {
		moved[k] += skin
	}
	allRows := RowsOf(Owners(sys.N, 1, LCG, 1), 0)
	quarter := RowsOf(Owners(sys.N, 4, LCG, 1), 0)
	for _, rows := range []struct {
		name string
		rows []int
	}{{"all", allRows}, {"quarter", quarter}} {
		for _, branch := range []struct {
			name string
			pos  [2][]float64 // alternated
		}{{"rebuild", [2][]float64{sys.Pos, moved}}, {"reuse", [2][]float64{sys.Pos, sys.Pos}}} {
			b.Run(branch.name+"/rows="+rows.name, func(b *testing.B) {
				l := NewList(sys.N, rows.rows)
				l.Update(branch.pos[0], benchCutoff, excl)
				l.Update(branch.pos[1], benchCutoff, excl)
				before := l.Rebuilds
				checks := 0
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					c, _ := l.Update(branch.pos[n%2], benchCutoff, excl)
					checks += c
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(checks), "ns/check")
				want := 0
				if branch.name == "rebuild" {
					want = b.N
				}
				if rebuilt := l.Rebuilds - before; rebuilt != want {
					b.Fatalf("%d of %d updates rebuilt the candidates, want %d", rebuilt, b.N, want)
				}
			})
		}
	}
}

// BenchmarkUpdateTinyLists times what the lists cost the front-door
// benchmark's 6-centre workloads per op: eight servers' lists (five of
// them without rows) built from scratch and updated over a 400-step
// trajectory of small moves, 3 200 calls in all.
func BenchmarkUpdateTinyLists(b *testing.B) {
	sys := molecule.TestComplex(2, 4, 9)
	excl := forcefield.BuildExclusions(sys)
	owners := Owners(sys.N, 8, LCG, 7)
	rng := rand.New(rand.NewSource(1))
	traj := make([][]float64, 400)
	pos := append([]float64(nil), sys.Pos...)
	for s := range traj {
		for k := range pos {
			pos[k] += 0.02 * (2*rng.Float64() - 1)
		}
		traj[s] = append([]float64(nil), pos...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var lists [8]*List
		for r := range lists {
			lists[r] = NewList(sys.N, RowsOf(owners, r))
		}
		for _, pos := range traj {
			for _, l := range lists {
				l.Update(pos, benchCutoff, excl)
			}
		}
	}
}
