//go:build amd64 && !purego && !race

package forcefield

import (
	"math"
	"unsafe"
)

// The AVX2 pair kernels of kernels_amd64.s.  Each runs the Go loop's IEEE
// operations in the Go operand order, four pairs to a vector and without
// FMA, and folds the lanes into the running sums one at a time in pair
// order, so it reorders nothing (DESIGN.md §9, "Host kernels").  The row
// and filter kernels check each index before they load through it and
// stop at the first block with a bad one; the caller's Go loop then takes
// the rest of the row from that block on and panics where it always did.
// The range kernel's range is checked whole before it is called.

// haveAVX2 is set once: the CPU has AVX2 and POPCNT and the OS saves the
// YMM registers.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	const sseState, avxState = 1 << 1, 1 << 2
	if xgetbv()&(sseState|avxState) != sseState|avxState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() uint32

// rowArgs holds rowAVX2's arguments and results; the assembly takes the
// field offsets from go_asm.h.
type rowArgs struct {
	pos, charges, grad, c12, c6 *float64
	types                       *int
	js                          *int32
	nj                          int // len(js)
	jmax                        int // partners need 0 <= j <= jmax
	tmax                        int // their types need 0 <= t <= tmax
	i                           int
	xi, yi, zi, qk              float64
	evdw, ecoul                 float64 // in and out
	done, nCharged              int     // out; nCharged starts at 0
}

//go:noescape
func rowAVX2(a *rowArgs)

// rowBlocks runs PairEnergyRow's loop over js in blocks of four and
// returns how many partners it took, the running sums and how many of
// those partners were charged.  It takes none when grad shares memory with
// the operands it reads, since the Go loop would then read what it wrote.
func rowBlocks(pos []float64, i int, js []int32, types []int, c12Row, c6Row []float64, qk float64, charges, grad []float64, evdw, ecoul float64) (done int, evdwOut, ecoulOut float64, nCharged int) {
	lim := min(len(pos)/3, len(types), len(charges), len(grad)/3)
	ntypes := min(len(c12Row), len(c6Row))
	if !haveAVX2 || lim == 0 || ntypes == 0 ||
		overlaps(grad, pos) || overlaps(grad, charges) || overlaps(grad, c12Row) || overlaps(grad, c6Row) {
		return 0, evdw, ecoul, 0
	}
	a := rowArgs{
		pos: &pos[0], charges: &charges[0], grad: &grad[0], c12: &c12Row[0], c6: &c6Row[0],
		types: &types[0], js: &js[0], nj: len(js),
		jmax: lim - 1, tmax: ntypes - 1, i: i,
		xi: pos[3*i], yi: pos[3*i+1], zi: pos[3*i+2], qk: qk,
		evdw: evdw, ecoul: ecoul,
	}
	rowAVX2(&a)
	return a.done, a.evdw, a.ecoul, a.nCharged
}

//go:noescape
func keepAVX2(pos []float64, jmax int, xi, yi, zi, c2 float64, js, out []int32) (done, kept int)

// keepBlocks runs KeepWithin's loop over js in blocks of four and returns
// how many candidates it took and how many of them it kept.  It takes none
// when out is shorter than js or overlaps it other than in place: a block's
// store of four indices must land on candidates it has already read.
func keepBlocks(pos []float64, xi, yi, zi, c2 float64, js, out []int32) (done, kept int) {
	lim := len(pos) / 3
	if !haveAVX2 || lim == 0 || len(out) < len(js) ||
		(overlaps(js, out) && unsafe.SliceData(js) != unsafe.SliceData(out)) {
		return 0, 0
	}
	return keepAVX2(pos, lim-1, xi, yi, zi, c2, js, out)
}

//go:noescape
func keepRangeAVX2(pos []float64, xi, yi, zi, c2 float64, lo, hi int, out []int32) (done, kept int)

// keepRangeBlocks is keepBlocks over the partners lo, ..., hi-1.
func keepRangeBlocks(pos []float64, xi, yi, zi, c2 float64, lo, hi int, out []int32) (done, kept int) {
	if !haveAVX2 || lo < 0 || hi < lo || hi > len(pos)/3 || hi > math.MaxInt32 || hi-lo > len(out) {
		return 0, 0
	}
	return keepRangeAVX2(pos, xi, yi, zi, c2, lo, hi, out)
}

// overlaps reports whether a and b share any element.
func overlaps[E any](a, b []E) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(a[0])
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b))*size && b0 < a0+uintptr(len(a))*size
}
