package md

import "opalperf/internal/molecule"

// SpaceEntry is one row of the space-complexity table of Section 2.6.
type SpaceEntry struct {
	Name  string
	Order string // growth order as printed in the paper
	Bytes int64  // bytes for this system at the given server count
}

// SpaceModel computes the sizes of Opal's data structures for a system
// distributed over p servers, reproducing the Section 2.6 table: the pair
// list (which scales down with the number of servers), the replicated atom
// coordinates, gradients and interaction parameters (which do not), and
// the scalar energy values.  cutoff <= 0 means no effective cut-off, i.e.
// the full quadratic list.
func SpaceModel(sys *molecule.System, cutoff float64, p int) []SpaceEntry {
	if p < 1 {
		p = 1
	}
	n := float64(sys.N)
	var pairs float64
	if sys.CutoffEffective(cutoff) {
		pairs = n * sys.NTilde(cutoff) / 2
	} else {
		pairs = n * (n - 1) / 2
	}
	d := newNBData(sys, cutoff)
	return []SpaceEntry{
		{
			Name:  "pair list",
			Order: "c (1-2g)^2 n^2 / p",
			Bytes: int64(8 * pairs / float64(p)), // 2 x 4-byte indices per pair
		},
		{
			Name:  "atom coordinates",
			Order: "c n",
			Bytes: int64(3 * 8 * n),
		},
		{
			Name:  "atom gradients",
			Order: "c n",
			Bytes: int64(3 * 8 * n),
		},
		{
			Name:  "atom interactions",
			Order: "c n",
			Bytes: int64(d.bytes()),
		},
		{
			Name:  "energy values",
			Order: "c",
			Bytes: 16,
		},
	}
}
