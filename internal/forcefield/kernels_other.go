//go:build !amd64 || purego || race

package forcefield

// The portable build has no vector kernels: PairEnergyRow, KeepWithin and
// KeepRange run their Go loops over the whole row.  The race build is portable too,
// so the detector sees every access of the pair loops.

func rowBlocks(pos []float64, i int, js []int32, types []int, c12Row, c6Row []float64, qk float64, charges, grad []float64, evdw, ecoul float64) (done int, evdwOut, ecoulOut float64, nCharged int) {
	return 0, evdw, ecoul, 0
}

func keepBlocks(pos []float64, xi, yi, zi, c2 float64, js, out []int32) (done, kept int) {
	return 0, 0
}

func keepRangeBlocks(pos []float64, xi, yi, zi, c2 float64, lo, hi int, out []int32) (done, kept int) {
	return 0, 0
}
