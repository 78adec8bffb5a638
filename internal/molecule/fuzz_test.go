package molecule

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead hardens the complex parser: arbitrary text must either parse
// into a valid system or fail with an error, never panic; accepted input
// must survive a write/read round trip.
func FuzzRead(f *testing.F) {
	for _, c := range [][3]int{{4, 5, 1}, {2, 4, 9}, {12, 18, 77}, {0, 3, 2}} {
		var buf bytes.Buffer
		TestComplex(c[0], c[1], int64(c[2])).Write(&buf)
		f.Add(buf.String())
	}
	for _, c := range corruptInputs() {
		f.Add(c.src)
	}
	f.Add("name x\nbox 10\natoms 0 0\nbonds 0\nangles 0\ndihedrals 0\nimpropers 0\n")
	f.Add("name x\nbox nan\n")
	f.Add("# only a comment")

	f.Fuzz(func(t *testing.T, src string) {
		s, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid system: %v", err)
		}
		var out bytes.Buffer
		if err := s.Write(&out); err != nil {
			t.Fatalf("accepted system fails to write: %v", err)
		}
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if again.N != s.N || len(again.Bonds) != len(s.Bonds) {
			t.Fatal("round trip changed the system")
		}
	})
}
