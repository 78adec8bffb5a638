package molecule

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	s := TestComplex(12, 18, 77)
	s.Name = "round trip complex"
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || got.N != s.N || got.NSolute != s.NSolute || got.Box != s.Box {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range s.Pos {
		if got.Pos[i] != s.Pos[i] {
			t.Fatalf("pos[%d] = %v, want %v (must be bit exact)", i, got.Pos[i], s.Pos[i])
		}
	}
	for i := 0; i < s.N; i++ {
		if got.Kind[i] != s.Kind[i] || got.Type[i] != s.Type[i] ||
			got.Charge[i] != s.Charge[i] || got.Mass[i] != s.Mass[i] {
			t.Fatalf("atom %d mismatch", i)
		}
	}
	if len(got.Bonds) != len(s.Bonds) || len(got.Angles) != len(s.Angles) ||
		len(got.Dihedrals) != len(s.Dihedrals) || len(got.Impropers) != len(s.Impropers) {
		t.Fatal("topology counts mismatch")
	}
	for i := range s.Bonds {
		if got.Bonds[i] != s.Bonds[i] {
			t.Fatalf("bond %d mismatch", i)
		}
	}
	for i := range s.Dihedrals {
		if got.Dihedrals[i] != s.Dihedrals[i] {
			t.Fatalf("dihedral %d mismatch", i)
		}
	}
}

func TestWriteDeterministic(t *testing.T) {
	s := TestComplex(6, 9, 5)
	var a, b bytes.Buffer
	s.Write(&a)
	s.Write(&b)
	if a.String() != b.String() {
		t.Fatal("serialization not deterministic")
	}
}

// corruptInputs are malformed complex files Read must reject, each a
// small edit of a valid one.
func corruptInputs() []struct{ name, src string } {
	s := TestComplex(4, 4, 3)
	var buf bytes.Buffer
	s.Write(&buf)
	good := buf.String()
	lines := func() []string { return strings.Split(good, "\n") }
	badKind := lines()
	badKind[4] = "9 " + strings.SplitN(badKind[4], " ", 2)[1]
	return []struct{ name, src string }{
		{"empty", ""},
		{"no name", strings.Replace(good, "name", "nom", 1)},
		{"bad box", strings.Replace(good, "box ", "box x", 1)},
		{"truncated atoms", strings.Join(lines()[:5], "\n")},
		{"bad kind", strings.Join(badKind, "\n")},
		{"bad bond index", strings.Replace(good, "bonds 3", "bonds 3\n0 999 1 1", 1)},
		// The header alone asks for 10^14 atoms: Read must hit the end of
		// the file, not allocate what the header claims.
		{"huge atom count", "name x\nbox 10\natoms 100000000000000 0\n"},
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	for _, c := range corruptInputs() {
		if _, err := Read(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: corruption accepted", c.name)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	s := TestComplex(3, 3, 2)
	var buf bytes.Buffer
	s.Write(&buf)
	padded := "# leading comment\n\n" + strings.Replace(buf.String(), "box", "# inner\nbox", 1)
	got, err := Read(strings.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	if got.N != s.N {
		t.Fatal("padded read mismatch")
	}
}

func TestWriteXYZ(t *testing.T) {
	s := TestComplex(2, 1, 1)
	var buf bytes.Buffer
	if err := s.WriteXYZ(&buf, "frame 0", nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2+s.N {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0] != "3" || lines[1] != "frame 0" {
		t.Errorf("header = %q %q", lines[0], lines[1])
	}
	if !strings.HasPrefix(lines[2], "C ") {
		t.Errorf("first atom line = %q", lines[2])
	}
	// Water line uses the OW element.
	found := false
	for _, l := range lines[2:] {
		if strings.HasPrefix(l, "OW ") {
			found = true
		}
	}
	if !found {
		t.Error("no water line")
	}
	// Wrong coordinate count rejected.
	if err := s.WriteXYZ(&buf, "x", make([]float64, 5)); err == nil {
		t.Error("bad frame accepted")
	}
}
