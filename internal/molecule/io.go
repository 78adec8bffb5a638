package molecule

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// A plain text format for molecular complexes, in the spirit of Opal's
// input decks: a header with the box and counts, then one line per mass
// center and per bonded term.  Deterministic output, round-trip exact
// (coordinates are serialized with full float64 precision).

// Write serializes the system with shortest-decimal coordinates: exact
// round trip, human-readable, what -save files carry.
func (s *System) Write(w io.Writer) error { return s.write(w, 'g') }

// WriteExact serializes the system with hexadecimal floating-point
// coordinates.  The round trip through Read is just as exact
// (strconv.ParseFloat accepts both forms), but formatting is ~3x
// cheaper than the shortest-decimal search — the periodic-checkpoint
// hot path uses it to stay inside the recovery plane's overhead budget.
func (s *System) WriteExact(w io.Writer) error { return s.write(w, 'x') }

func (s *System) write(w io.Writer, ffmt byte) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# opalperf molecular complex\n")
	fmt.Fprintf(bw, "name %s\n", strings.ReplaceAll(s.Name, "\n", " "))
	fmt.Fprintf(bw, "box %s\n", ftoa(s.Box))
	fmt.Fprintf(bw, "atoms %d %d\n", s.N, s.NSolute)
	// The per-atom and per-term lines are built with strconv appends into
	// one reused buffer: periodic checkpointing serializes the full system
	// every interval, and fmt's per-field boxing dominated that snapshot
	// cost.  The bytes emitted are identical to the fmt form.
	buf := make([]byte, 0, 128)
	num := func(v int) { buf = strconv.AppendInt(buf, int64(v), 10); buf = append(buf, ' ') }
	flt := func(v float64) { buf = strconv.AppendFloat(buf, v, ffmt, -1, 64); buf = append(buf, ' ') }
	line := func() {
		buf[len(buf)-1] = '\n'
		bw.Write(buf)
		buf = buf[:0]
	}
	for i := 0; i < s.N; i++ {
		num(int(s.Kind[i]))
		num(s.Type[i])
		flt(s.Pos[3*i])
		flt(s.Pos[3*i+1])
		flt(s.Pos[3*i+2])
		flt(s.Charge[i])
		flt(s.Mass[i])
		line()
	}
	fmt.Fprintf(bw, "bonds %d\n", len(s.Bonds))
	for _, b := range s.Bonds {
		num(b.I)
		num(b.J)
		flt(b.Kb)
		flt(b.B0)
		line()
	}
	fmt.Fprintf(bw, "angles %d\n", len(s.Angles))
	for _, a := range s.Angles {
		num(a.I)
		num(a.J)
		num(a.K)
		flt(a.Ktheta)
		flt(a.Theta0)
		line()
	}
	fmt.Fprintf(bw, "dihedrals %d\n", len(s.Dihedrals))
	for _, d := range s.Dihedrals {
		num(d.I)
		num(d.J)
		num(d.K)
		num(d.L)
		flt(d.Kphi)
		num(d.N)
		flt(d.Delta)
		line()
	}
	fmt.Fprintf(bw, "impropers %d\n", len(s.Impropers))
	for _, im := range s.Impropers {
		num(im.I)
		num(im.J)
		num(im.K)
		num(im.L)
		flt(im.Kxi)
		flt(im.Xi0)
		line()
	}
	return bw.Flush()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Read parses a system written by Write and validates it.
func Read(r io.Reader) (*System, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	next := func() ([]string, error) {
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			return strings.Fields(text), nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("molecule: line %d: unexpected end of file", line)
	}
	errf := func(format string, args ...any) error {
		return fmt.Errorf("molecule: line %d: %s", line, fmt.Sprintf(format, args...))
	}

	s := &System{}
	// name
	f, err := next()
	if err != nil {
		return nil, err
	}
	if f[0] != "name" {
		return nil, errf("expected name, got %q", f[0])
	}
	s.Name = strings.Join(f[1:], " ")
	// box
	if f, err = next(); err != nil {
		return nil, err
	}
	if f[0] != "box" || len(f) != 2 {
		return nil, errf("expected box")
	}
	if s.Box, err = strconv.ParseFloat(f[1], 64); err != nil {
		return nil, errf("bad box: %v", err)
	}
	// atoms
	if f, err = next(); err != nil {
		return nil, err
	}
	if f[0] != "atoms" || len(f) != 3 {
		return nil, errf("expected atoms <n> <nsolute>")
	}
	n, err1 := strconv.Atoi(f[1])
	ns, err2 := strconv.Atoi(f[2])
	if err1 != nil || err2 != nil || n < 0 || ns < 0 || ns > n {
		return nil, errf("bad atom counts")
	}
	s.N, s.NSolute = n, ns
	// The header's count is not trusted to size anything: atoms are
	// appended as their lines arrive, so a lying header ends in an
	// unexpected end of file, not in an allocation it asked for.
	for i := 0; i < n; i++ {
		if f, err = next(); err != nil {
			return nil, err
		}
		if len(f) != 7 {
			return nil, errf("expected 7 atom fields, got %d", len(f))
		}
		kind, err := strconv.Atoi(f[0])
		if err != nil || (kind != int(Solute) && kind != int(Water)) {
			return nil, errf("bad kind %q", f[0])
		}
		typ, err := strconv.Atoi(f[1])
		if err != nil || typ < 0 || typ >= NumTypes {
			return nil, errf("bad type %q", f[1])
		}
		var v [5]float64 // x, y, z, charge, mass
		for d, what := range [5]string{"coordinate", "coordinate", "coordinate", "charge", "mass"} {
			if v[d], err = strconv.ParseFloat(f[2+d], 64); err != nil {
				return nil, errf("bad %s: %v", what, err)
			}
		}
		s.Kind = append(s.Kind, Kind(kind))
		s.Type = append(s.Type, typ)
		s.Pos = append(s.Pos, v[0], v[1], v[2])
		s.Charge = append(s.Charge, v[3])
		s.Mass = append(s.Mass, v[4])
	}
	// bonded sections
	readCount := func(key string) (int, error) {
		if f, err = next(); err != nil {
			return 0, err
		}
		if f[0] != key || len(f) != 2 {
			return 0, errf("expected %s <count>", key)
		}
		c, err := strconv.Atoi(f[1])
		if err != nil || c < 0 {
			return 0, errf("bad %s count", key)
		}
		return c, nil
	}
	ints := func(fields []string, k int) ([]int, error) {
		out := make([]int, k)
		for i := 0; i < k; i++ {
			v, err := strconv.Atoi(fields[i])
			if err != nil {
				return nil, errf("bad index %q", fields[i])
			}
			out[i] = v
		}
		return out, nil
	}
	floats := func(fields []string, k int) ([]float64, error) {
		out := make([]float64, k)
		for i := 0; i < k; i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, errf("bad value %q", fields[i])
			}
			out[i] = v
		}
		return out, nil
	}

	nb, err := readCount("bonds")
	if err != nil {
		return nil, err
	}
	for k := 0; k < nb; k++ {
		if f, err = next(); err != nil {
			return nil, err
		}
		if len(f) != 4 {
			return nil, errf("expected 4 bond fields")
		}
		ij, err := ints(f, 2)
		if err != nil {
			return nil, err
		}
		vv, err := floats(f[2:], 2)
		if err != nil {
			return nil, err
		}
		s.Bonds = append(s.Bonds, Bond{I: ij[0], J: ij[1], Kb: vv[0], B0: vv[1]})
	}
	na, err := readCount("angles")
	if err != nil {
		return nil, err
	}
	for k := 0; k < na; k++ {
		if f, err = next(); err != nil {
			return nil, err
		}
		if len(f) != 5 {
			return nil, errf("expected 5 angle fields")
		}
		ijk, err := ints(f, 3)
		if err != nil {
			return nil, err
		}
		vv, err := floats(f[3:], 2)
		if err != nil {
			return nil, err
		}
		s.Angles = append(s.Angles, Angle{I: ijk[0], J: ijk[1], K: ijk[2], Ktheta: vv[0], Theta0: vv[1]})
	}
	nd, err := readCount("dihedrals")
	if err != nil {
		return nil, err
	}
	for k := 0; k < nd; k++ {
		if f, err = next(); err != nil {
			return nil, err
		}
		if len(f) != 7 {
			return nil, errf("expected 7 dihedral fields")
		}
		idx, err := ints(f, 4)
		if err != nil {
			return nil, err
		}
		kphi, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			return nil, errf("bad kphi")
		}
		mult, err := strconv.Atoi(f[5])
		if err != nil {
			return nil, errf("bad multiplicity")
		}
		delta, err := strconv.ParseFloat(f[6], 64)
		if err != nil {
			return nil, errf("bad delta")
		}
		s.Dihedrals = append(s.Dihedrals, Dihedral{
			I: idx[0], J: idx[1], K: idx[2], L: idx[3], Kphi: kphi, N: mult, Delta: delta})
	}
	ni, err := readCount("impropers")
	if err != nil {
		return nil, err
	}
	for k := 0; k < ni; k++ {
		if f, err = next(); err != nil {
			return nil, err
		}
		if len(f) != 6 {
			return nil, errf("expected 6 improper fields")
		}
		idx, err := ints(f, 4)
		if err != nil {
			return nil, err
		}
		vv, err := floats(f[4:], 2)
		if err != nil {
			return nil, err
		}
		s.Impropers = append(s.Impropers, Improper{
			I: idx[0], J: idx[1], K: idx[2], L: idx[3], Kxi: vv[0], Xi0: vv[1]})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// WriteXYZ appends one frame in the ubiquitous XYZ trajectory format: an
// atom count, a comment, then "element x y z" per mass center.
func (s *System) WriteXYZ(w io.Writer, comment string, pos []float64) error {
	if pos == nil {
		pos = s.Pos
	}
	if len(pos) != 3*s.N {
		return fmt.Errorf("molecule: XYZ frame has %d coordinates for %d atoms", len(pos), s.N)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n%s\n", s.N, strings.ReplaceAll(comment, "\n", " "))
	for i := 0; i < s.N; i++ {
		fmt.Fprintf(bw, "%s %.6f %.6f %.6f\n",
			elementOf(s.Type[i]), pos[3*i], pos[3*i+1], pos[3*i+2])
	}
	return bw.Flush()
}

func elementOf(t int) string {
	switch t {
	case TypeC:
		return "C"
	case TypeN:
		return "N"
	case TypeO:
		return "O"
	case TypeH:
		return "H"
	case TypeS:
		return "S"
	case TypeW:
		return "OW" // single-unit water centered on the oxygen
	}
	return "X"
}
