package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"opalperf/internal/molecule"
)

// fingerprint pins a generated system: sizes, box bits, topology counts
// and an FNV-64a hash over the bits of every coordinate (the molecule
// package's generator golden uses the same form).
func fingerprint(s *molecule.System) string {
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

// TestSizesGolden pins the scaled systems the scenario corpus (scale
// 0.02) and the run-schema tests (0.05) build on, bit for bit, and holds
// the single-size constructor to the same systems.
func TestSizesGolden(t *testing.T) {
	golden := []struct {
		scale float64
		size  string
		want  string
	}{
		{0.05, "small",
			"n=65 solute=23 box=4028f1f592a42eff bonds=22 angles=21 dihedrals=20 impropers=5 pos=e0a394ec8f3c6857"},
		{0.05, "medium",
			"n=213 solute=78 box=4032869e72706efb bonds=77 angles=76 dihedrals=75 impropers=19 pos=59542c51ad4cec1c"},
		{0.05, "large",
			"n=313 solute=82 box=40350fdffaa8284a bonds=81 angles=80 dihedrals=79 impropers=20 pos=3f48d4b3839b62a1"},
		{0.02, "small",
			"n=25 solute=9 box=40222419f6371369 bonds=8 angles=7 dihedrals=6 impropers=2 pos=efbaef7c437ce3b2"},
		{0.02, "medium",
			"n=85 solute=31 box=402b474f6937cdd8 bonds=30 angles=29 dihedrals=28 impropers=7 pos=f371286ff8c15445"},
		{0.02, "large",
			"n=125 solute=33 box=402f054d3ce61198 bonds=32 angles=31 dihedrals=30 impropers=8 pos=6254aa064f18cf1d"},
	}
	for _, g := range golden {
		set := Sizes(g.scale)[g.size]
		if got := fingerprint(set); got != g.want {
			t.Errorf("Sizes(%g)[%q]:\n got %s\nwant %s", g.scale, g.size, got, g.want)
		}
		one, err := Size(g.size, g.scale)
		if err != nil {
			t.Fatal(err)
		}
		if one.Name != set.Name || fingerprint(one) != fingerprint(set) {
			t.Errorf("Size(%q, %g) = %s %s, Sizes has %s %s", g.size, g.scale,
				one.Name, fingerprint(one), set.Name, fingerprint(set))
		}
	}
	for _, size := range []string{"small", "medium", "large"} {
		one, err := Size(size, 1)
		if err != nil {
			t.Fatal(err)
		}
		if full := Sizes(1)[size]; one.Name != full.Name || fingerprint(one) != fingerprint(full) {
			t.Errorf("Size(%q, 1) is not Sizes(1)[%q]", size, size)
		}
	}
	if _, err := Size("huge", 1); err == nil {
		t.Error("Size accepted an unknown name")
	}
}
