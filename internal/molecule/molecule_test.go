package molecule

import (
	"math"
	"testing"
)

func TestPaperComplexSizes(t *testing.T) {
	med := Antennapedia()
	if med.N != 4289 || med.NSolute != 1575 || med.NWater() != 2714 {
		t.Errorf("medium sizes: n=%d solute=%d water=%d", med.N, med.NSolute, med.NWater())
	}
	lrg := LFB()
	if lrg.N != 6289 || lrg.NSolute != 1655 || lrg.NWater() != 4634 {
		t.Errorf("large sizes: n=%d solute=%d water=%d", lrg.N, lrg.NSolute, lrg.NWater())
	}
	// Paper: medium gamma = 2714/4289.
	if math.Abs(med.Gamma()-2714.0/4289.0) > 1e-12 {
		t.Errorf("gamma = %v", med.Gamma())
	}
}

func TestGeneratedSystemsValidate(t *testing.T) {
	for _, s := range []*System{Antennapedia(), LFB(), SmallComplex(), TestComplex(20, 30, 7)} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestDensityRealistic(t *testing.T) {
	s := Antennapedia()
	d := s.Density()
	if d < 0.030 || d > 0.040 {
		t.Errorf("density = %v centers/A^3, want ~0.0335", d)
	}
}

func TestNTilde(t *testing.T) {
	s := Antennapedia()
	// ~140 neighbours inside 10 A at aqueous density.
	nt := s.NTilde(10)
	if nt < 100 || nt > 180 {
		t.Errorf("ntilde(10A) = %v, want ~140", nt)
	}
	// Huge cut-off: capped at n-1.
	if got := s.NTilde(1e6); got != float64(s.N-1) {
		t.Errorf("ntilde(huge) = %v, want %v", got, s.N-1)
	}
}

func TestCutoffEffective(t *testing.T) {
	s := Antennapedia() // box ~50 A
	if !s.CutoffEffective(10) {
		t.Error("10 A cut-off should be effective")
	}
	if s.CutoffEffective(200) {
		t.Error("200 A cut-off should be ineffective")
	}
	if s.CutoffEffective(0) {
		t.Error("zero cut-off means none")
	}
}

func TestInterleavedOrdering(t *testing.T) {
	s := TestComplex(10, 25, 1)
	// First 2*10 entries alternate solute, water.
	for i := 0; i < 20; i++ {
		want := Water
		if i%2 == 0 {
			want = Solute
		}
		if s.Kind[i] != want {
			t.Fatalf("kind[%d] = %v, want %v", i, s.Kind[i], want)
		}
	}
	// Tail is all water.
	for i := 20; i < s.N; i++ {
		if s.Kind[i] != Water {
			t.Fatalf("tail kind[%d] = %v", i, s.Kind[i])
		}
	}
}

func TestBlockedOrdering(t *testing.T) {
	s := Generate(Config{SoluteAtoms: 5, Waters: 7, Seed: 1, Interleave: false})
	for i := 0; i < 5; i++ {
		if s.Kind[i] != Solute {
			t.Fatalf("kind[%d] = %v, want solute", i, s.Kind[i])
		}
	}
	for i := 5; i < 12; i++ {
		if s.Kind[i] != Water {
			t.Fatalf("kind[%d] = %v, want water", i, s.Kind[i])
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyCounts(t *testing.T) {
	s := TestComplex(10, 5, 2)
	if len(s.Bonds) != 9 {
		t.Errorf("bonds = %d, want 9", len(s.Bonds))
	}
	if len(s.Angles) != 8 {
		t.Errorf("angles = %d, want 8", len(s.Angles))
	}
	if len(s.Dihedrals) != 7 {
		t.Errorf("dihedrals = %d, want 7", len(s.Dihedrals))
	}
	if len(s.Impropers) == 0 {
		t.Error("no impropers generated")
	}
	// Bonds must have the generated bond length (approximately, since
	// positions were laid out at exactly 1.5 A).
	for _, b := range s.Bonds {
		dx := s.Pos[3*b.I] - s.Pos[3*b.J]
		dy := s.Pos[3*b.I+1] - s.Pos[3*b.J+1]
		dz := s.Pos[3*b.I+2] - s.Pos[3*b.J+2]
		r := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if math.Abs(r-1.5) > 1e-9 {
			t.Fatalf("bond length = %v", r)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := TestComplex(15, 20, 99)
	b := TestComplex(15, 20, 99)
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatal("generation is not deterministic")
		}
	}
	c := TestComplex(15, 20, 100)
	same := true
	for i := range a.Pos {
		if a.Pos[i] != c.Pos[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different systems")
	}
}

func TestWatersHaveNoCharge(t *testing.T) {
	s := TestComplex(5, 10, 3)
	for i := 0; i < s.N; i++ {
		if s.Kind[i] == Water && s.Charge[i] != 0 {
			t.Fatalf("water %d has charge %v", i, s.Charge[i])
		}
		if s.Kind[i] == Water && s.Type[i] != TypeW {
			t.Fatalf("water %d has type %d", i, s.Type[i])
		}
	}
}

func TestWatersInsideBox(t *testing.T) {
	s := TestComplex(8, 50, 4)
	for i := 0; i < s.N; i++ {
		for d := 0; d < 3; d++ {
			x := s.Pos[3*i+d]
			if x < -s.Box*0.5 || x > 1.5*s.Box {
				t.Fatalf("atom %d coordinate %v far outside box %v", i, x, s.Box)
			}
		}
	}
}

func TestClone(t *testing.T) {
	s := TestComplex(5, 5, 6)
	c := s.Clone()
	c.Pos[0] += 100
	c.Bonds[0].Kb = 0
	if s.Pos[0] == c.Pos[0] || s.Bonds[0].Kb == 0 {
		t.Error("clone shares storage with original")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s := TestComplex(5, 5, 6)
	bad := s.Clone()
	bad.Bonds = append(bad.Bonds, Bond{I: 0, J: 99})
	if bad.Validate() == nil {
		t.Error("bad bond not caught")
	}
	bad2 := s.Clone()
	bad2.Pos = bad2.Pos[:3]
	if bad2.Validate() == nil {
		t.Error("short pos not caught")
	}
	bad3 := s.Clone()
	bad3.Kind[0] = Water // miscount
	if bad3.Validate() == nil {
		t.Error("kind miscount not caught")
	}
	bad4 := s.Clone()
	bad4.Dihedrals = append(bad4.Dihedrals, Dihedral{I: -1})
	if bad4.Validate() == nil {
		t.Error("bad dihedral not caught")
	}
}

func TestExpandWaters(t *testing.T) {
	s := TestComplex(4, 6, 5)
	e := s.ExpandWaters(1)
	if e.N != 4+3*6 {
		t.Fatalf("expanded n = %d, want %d", e.N, 4+18)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	// Two O-H bonds and one angle per water added.
	if len(e.Bonds) != len(s.Bonds)+12 {
		t.Errorf("bonds = %d, want %d", len(e.Bonds), len(s.Bonds)+12)
	}
	if len(e.Angles) != len(s.Angles)+6 {
		t.Errorf("angles = %d", len(e.Angles))
	}
	// Water sites are charged in the 3-site model and neutral per
	// molecule.
	var q float64
	for i := 0; i < e.N; i++ {
		if e.Kind[i] == Water {
			q += e.Charge[i]
		}
	}
	if math.Abs(q) > 1e-9 {
		t.Errorf("net water charge = %v", q)
	}
	// Solute topology survived with remapped indices.
	if len(e.Dihedrals) != len(s.Dihedrals) {
		t.Errorf("dihedrals lost: %d vs %d", len(e.Dihedrals), len(s.Dihedrals))
	}
}

func TestGammaEdgeCases(t *testing.T) {
	s := &System{}
	if s.Gamma() != 0 || s.Density() != 0 {
		t.Error("empty system gamma/density should be 0")
	}
}

// BenchmarkGenerate prices generating the paper's three complexes, the
// cold-start cost a never-seen (size, scale) pays before anything runs.
func BenchmarkGenerate(b *testing.B) {
	for _, c := range []struct {
		name string
		gen  func() *System
	}{{"small", SmallComplex}, {"medium", Antennapedia}, {"large", LFB}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = c.gen()
			}
		})
	}
}

var benchSink *System
