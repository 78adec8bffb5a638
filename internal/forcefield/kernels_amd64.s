//go:build amd64 && !purego && !race

#include "go_asm.h"
#include "textflag.h"

// The AVX2 pair kernels; kernels_amd64.go states their contract.  VEX
// encoding throughout (a legacy SSE instruction after a 256-bit one costs
// a state transition), VZEROUPPER before every return.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func keepAVX2(pos []float64, jmax int, xi, yi, zi, c2 float64, js, out []int32) (done, kept int)
//
// Per block of four candidates j: check 0 <= j <= jmax, load the three
// coordinates, d2 = (dx*dx + dy*dy) + dz*dz with dx = xi - x, keep
// !(d2 > c2) (NGT_UQ, so NaN is kept), store the kept indices in order at
// out[kept] and advance kept by their count.
TEXT ·keepAVX2(SB), NOSPLIT, $0-128
	MOVQ         pos_base+0(FP), SI
	MOVQ         jmax+24(FP), R13
	VBROADCASTSD xi+32(FP), Y10
	VBROADCASTSD yi+40(FP), Y11
	VBROADCASTSD zi+48(FP), Y12
	VBROADCASTSD c2+56(FP), Y13
	MOVQ         js_base+64(FP), DI
	MOVQ         js_len+72(FP), CX
	MOVQ         out_base+88(FP), R8
	LEAQ         compress<>(SB), R9
	XORQ         BX, BX                // candidates done
	XORQ         DX, DX                // candidates kept

keepLoop:
	LEAQ        4(BX), R10
	CMPQ        R10, CX
	JGT         keepDone
	MOVLQSX     (DI)(BX*4), R11
	CMPQ        R11, R13
	JHI         keepDone               // unsigned: a negative j fails too
	LEAQ        (R11)(R11*2), R11
	VMOVUPD     (SI)(R11*8), X3        // [x0, y0]
	VMOVSD      16(SI)(R11*8), X5      // z0
	MOVLQSX     4(DI)(BX*4), R11
	CMPQ        R11, R13
	JHI         keepDone
	LEAQ        (R11)(R11*2), R11
	VMOVUPD     (SI)(R11*8), X4        // [x1, y1]
	VMOVHPD     16(SI)(R11*8), X5, X5  // [z0, z1]
	MOVLQSX     8(DI)(BX*4), R11
	CMPQ        R11, R13
	JHI         keepDone
	LEAQ        (R11)(R11*2), R11
	VINSERTF128 $1, (SI)(R11*8), Y3, Y3 // [x0, y0 | x2, y2]
	VMOVSD      16(SI)(R11*8), X6
	MOVLQSX     12(DI)(BX*4), R11
	CMPQ        R11, R13
	JHI         keepDone
	LEAQ        (R11)(R11*2), R11
	VINSERTF128 $1, (SI)(R11*8), Y4, Y4 // [x1, y1 | x3, y3]
	VMOVHPD     16(SI)(R11*8), X6, X6   // [z2, z3]
	VINSERTF128 $1, X6, Y5, Y5          // z
	VUNPCKHPD   Y4, Y3, Y6              // y
	VUNPCKLPD   Y4, Y3, Y3              // x
	VSUBPD      Y3, Y10, Y3             // dx = xi - x
	VSUBPD      Y6, Y11, Y4
	VSUBPD      Y5, Y12, Y5
	VMULPD      Y3, Y3, Y3
	VMULPD      Y4, Y4, Y4
	VADDPD      Y4, Y3, Y3
	VMULPD      Y5, Y5, Y5
	VADDPD      Y5, Y3, Y3              // d2
	VCMPPD      $0x1a, Y13, Y3, Y3      // NGT_UQ(d2, c2)
	VMOVMSKPD   Y3, R11
	MOVQ        R11, R12
	SHLQ        $4, R12
	VMOVDQU     (DI)(BX*4), X0          // j
	VPERMILPS   (R9)(R12*1), X0, X1     // the kept lanes first, in order
	VMOVDQU     X1, (R8)(DX*4)          // kept <= done: inside out, on read candidates
	POPCNTL     R11, R11
	ADDQ        R11, DX
	MOVQ        R10, BX
	JMP         keepLoop

keepDone:
	MOVQ BX, done+112(FP)
	MOVQ DX, kept+120(FP)
	VZEROUPPER
	RET

// func keepRangeAVX2(pos []float64, xi, yi, zi, c2 float64, lo, hi int, out []int32) (done, kept int)
//
// keepAVX2 over the partners lo, lo+1, ..., hi-1, whose coordinates are
// contiguous: per block of four, three loads and a transpose replace the
// gathers.  The caller has checked 0 <= lo <= hi, 3*hi <= len(pos) and
// hi - lo <= len(out).
TEXT ·keepRangeAVX2(SB), NOSPLIT, $0-112
	MOVQ         pos_base+0(FP), SI
	VBROADCASTSD xi+24(FP), Y10
	VBROADCASTSD yi+32(FP), Y11
	VBROADCASTSD zi+40(FP), Y12
	VBROADCASTSD c2+48(FP), Y13
	MOVQ         lo+56(FP), AX
	MOVQ         hi+64(FP), CX
	MOVQ         out_base+72(FP), R8
	LEAQ         compress<>(SB), R9
	VPBROADCASTD lo+56(FP), X14
	VPADDD       lanes<>(SB), X14, X14 // [lo, lo+1, lo+2, lo+3]
	MOVQ         AX, BX                // next partner
	XORQ         DX, DX                // partners kept
	LEAQ         (AX)(AX*2), R11
	LEAQ         (SI)(R11*8), SI       // &pos[3*lo]

rangeLoop:
	LEAQ      4(BX), R10
	CMPQ      R10, CX
	JGT       rangeDone
	VMOVUPD   (SI), Y0                // [x0 y0 z0 x1]
	VMOVUPD   32(SI), Y1              // [y1 z1 x2 y2]
	VMOVUPD   64(SI), Y2              // [z2 x3 y3 z3]
	VBLENDPD  $4, Y1, Y0, Y3
	VBLENDPD  $2, Y2, Y3, Y3
	VPERMPD   $0x6c, Y3, Y3           // x
	VBLENDPD  $9, Y1, Y0, Y4
	VBLENDPD  $4, Y2, Y4, Y4
	VPERMPD   $0xb1, Y4, Y4           // y
	VBLENDPD  $2, Y1, Y0, Y5
	VBLENDPD  $9, Y2, Y5, Y5
	VPERMPD   $0xc6, Y5, Y5           // z
	VSUBPD    Y3, Y10, Y3             // dx = xi - x
	VSUBPD    Y4, Y11, Y4
	VSUBPD    Y5, Y12, Y5
	VMULPD    Y3, Y3, Y3
	VMULPD    Y4, Y4, Y4
	VADDPD    Y4, Y3, Y3
	VMULPD    Y5, Y5, Y5
	VADDPD    Y5, Y3, Y3              // d2
	VCMPPD    $0x1a, Y13, Y3, Y3      // NGT_UQ(d2, c2)
	VMOVMSKPD Y3, R11
	MOVQ      R11, R12
	SHLQ      $4, R12
	VPERMILPS (R9)(R12*1), X14, X1
	VMOVDQU   X1, (R8)(DX*4)
	POPCNTL   R11, R11
	ADDQ      R11, DX
	VPADDD    four<>(SB), X14, X14
	ADDQ      $96, SI
	MOVQ      R10, BX
	JMP       rangeLoop

rangeDone:
	SUBQ AX, BX
	MOVQ BX, done+96(FP)
	MOVQ DX, kept+104(FP)
	VZEROUPPER
	RET

// func rowAVX2(a *rowArgs)
//
// Per block of four partners j: check 0 <= j <= jmax, j != i and
// 0 <= types[j] <= tmax, lane by lane before loading through them, then
// evaluate as PairEnergyRow's loop, in its operand order:
//   r2 = (dx*dx + dy*dy) + dz*dz, inv2 = 1/r2, inv6 = (inv2*inv2)*inv2,
//   inv12 = inv6*inv6, ev = c12*inv12 - c6*inv6,
//   g = ((-12*c12)*inv12 + (6*c6)*inv6)*inv2, qq = qk*q_j,
//   and where qq != 0 (NEQ_UQ): ec = qq*sqrt(inv2), g = g - ec*inv2.
// An uncharged lane's ec is -0.0, which leaves any sum it is added to as
// it was.  The lanes then go into [evdw, ecoul], gi and grad[j] one at a
// time in pair order; gi stays in registers (no j is i) and is stored once.
TEXT ·rowAVX2(SB), NOSPLIT, $0-8
	MOVQ    a+0(FP), AX
	MOVQ    rowArgs_pos(AX), SI
	MOVQ    rowArgs_types(AX), R8
	MOVQ    rowArgs_charges(AX), R9
	MOVQ    rowArgs_grad(AX), R10
	MOVQ    rowArgs_c12(AX), R11
	MOVQ    rowArgs_c6(AX), R12
	MOVQ    rowArgs_js(AX), DI
	MOVQ    rowArgs_nj(AX), CX
	XORQ    BX, BX                 // partners done
	MOVQ    rowArgs_i(AX), DX
	LEAQ    (DX)(DX*2), DX
	VMOVUPD (R10)(DX*8), X13       // [gi0, gi1]
	VMOVSD  16(R10)(DX*8), X14     // gi2
	VMOVUPD rowArgs_evdw(AX), X15  // [evdw, ecoul]

rowLoop:
	LEAQ 4(BX), R14
	CMPQ R14, CX
	JGT  rowDone

	// lane 0: j in DX, types[j] in R13
	MOVLQSX (DI)(BX*4), DX
	CMPQ    DX, rowArgs_jmax(AX)
	JHI     rowDone                // unsigned: a negative j fails too
	CMPQ    DX, rowArgs_i(AX)
	JEQ     rowDone
	MOVQ    (R8)(DX*8), R13
	CMPQ    R13, rowArgs_tmax(AX)
	JHI     rowDone
	VMOVSD  (R11)(R13*8), X3       // c12
	VMOVSD  (R12)(R13*8), X4       // c6
	VMOVSD  (R9)(DX*8), X0         // q
	LEAQ    (DX)(DX*2), DX
	VMOVUPD (SI)(DX*8), X5         // [x0, y0]
	VMOVSD  16(SI)(DX*8), X7       // z0

	// lane 1
	MOVLQSX 4(DI)(BX*4), DX
	CMPQ    DX, rowArgs_jmax(AX)
	JHI     rowDone
	CMPQ    DX, rowArgs_i(AX)
	JEQ     rowDone
	MOVQ    (R8)(DX*8), R13
	CMPQ    R13, rowArgs_tmax(AX)
	JHI     rowDone
	VMOVHPD (R11)(R13*8), X3, X3
	VMOVHPD (R12)(R13*8), X4, X4
	VMOVHPD (R9)(DX*8), X0, X0
	LEAQ    (DX)(DX*2), DX
	VMOVUPD (SI)(DX*8), X6         // [x1, y1]
	VMOVHPD 16(SI)(DX*8), X7, X7   // [z0, z1]

	// lane 2
	MOVLQSX     8(DI)(BX*4), DX
	CMPQ        DX, rowArgs_jmax(AX)
	JHI         rowDone
	CMPQ        DX, rowArgs_i(AX)
	JEQ         rowDone
	MOVQ        (R8)(DX*8), R13
	CMPQ        R13, rowArgs_tmax(AX)
	JHI         rowDone
	VMOVSD      (R11)(R13*8), X11
	VMOVSD      (R12)(R13*8), X12
	VMOVSD      (R9)(DX*8), X1
	LEAQ        (DX)(DX*2), DX
	VINSERTF128 $1, (SI)(DX*8), Y5, Y5 // [x0, y0 | x2, y2]
	VMOVSD      16(SI)(DX*8), X2

	// lane 3
	MOVLQSX     12(DI)(BX*4), DX
	CMPQ        DX, rowArgs_jmax(AX)
	JHI         rowDone
	CMPQ        DX, rowArgs_i(AX)
	JEQ         rowDone
	MOVQ        (R8)(DX*8), R13
	CMPQ        R13, rowArgs_tmax(AX)
	JHI         rowDone
	VMOVHPD     (R11)(R13*8), X11, X11
	VMOVHPD     (R12)(R13*8), X12, X12
	VMOVHPD     (R9)(DX*8), X1, X1
	LEAQ        (DX)(DX*2), DX
	VINSERTF128 $1, (SI)(DX*8), Y6, Y6 // [x1, y1 | x3, y3]
	VMOVHPD     16(SI)(DX*8), X2, X2   // [z2, z3]

	VINSERTF128  $1, X11, Y3, Y3   // c12
	VINSERTF128  $1, X12, Y4, Y4   // c6
	VINSERTF128  $1, X1, Y0, Y0    // q
	VINSERTF128  $1, X2, Y7, Y7    // z
	VUNPCKHPD    Y6, Y5, Y2        // y
	VUNPCKLPD    Y6, Y5, Y5        // x
	VBROADCASTSD rowArgs_xi(AX), Y8
	VSUBPD       Y5, Y8, Y5        // dx = xi - x
	VBROADCASTSD rowArgs_yi(AX), Y8
	VSUBPD       Y2, Y8, Y6
	VBROADCASTSD rowArgs_zi(AX), Y8
	VSUBPD       Y7, Y8, Y7

	VMULPD  Y5, Y5, Y8
	VMULPD  Y6, Y6, Y9
	VADDPD  Y9, Y8, Y8
	VMULPD  Y7, Y7, Y9
	VADDPD  Y9, Y8, Y8             // r2
	VMOVUPD one<>(SB), Y9
	VDIVPD  Y8, Y9, Y8             // inv2 = 1 / r2
	VMULPD  Y8, Y8, Y9
	VMULPD  Y8, Y9, Y9             // inv6
	VMULPD  Y9, Y9, Y10            // inv12
	VMULPD  Y10, Y3, Y11
	VMULPD  Y9, Y4, Y12
	VSUBPD  Y12, Y11, Y11          // ev = c12*inv12 - c6*inv6
	VMULPD  minus12<>(SB), Y3, Y3
	VMULPD  Y10, Y3, Y3            // (-12*c12)*inv12
	VMULPD  six<>(SB), Y4, Y4
	VMULPD  Y9, Y4, Y4             // (6*c6)*inv6
	VADDPD  Y4, Y3, Y3
	VMULPD  Y8, Y3, Y3             // g

	VBROADCASTSD rowArgs_qk(AX), Y1
	VMULPD       Y0, Y1, Y4         // qq = qk * q_j
	VMOVUPD      negzero<>(SB), Y12
	VCMPPD       $4, Y12, Y4, Y9    // charged: NEQ_UQ(qq, 0)
	VSQRTPD      Y8, Y10            // rinv
	VMULPD       Y10, Y4, Y4        // qq*rinv
	VMULPD       Y8, Y4, Y10
	VSUBPD       Y10, Y3, Y10       // g - (qq*rinv)*inv2
	VBLENDVPD    Y9, Y10, Y3, Y3    // g
	VBLENDVPD    Y9, Y4, Y12, Y4    // ec, -0.0 where uncharged
	VMOVMSKPD    Y9, DX
	POPCNTL      DX, DX
	ADDQ         DX, rowArgs_nCharged(AX)

	VMULPD    Y5, Y3, Y5           // gx = g*dx
	VMULPD    Y6, Y3, Y6           // gy
	VMULPD    Y7, Y3, Y7           // gz
	VUNPCKLPD Y4, Y11, Y8          // [ev0, ec0 | ev2, ec2]
	VUNPCKHPD Y4, Y11, Y9          // [ev1, ec1 | ev3, ec3]
	VUNPCKLPD Y6, Y5, Y10          // [gx0, gy0 | gx2, gy2]
	VUNPCKHPD Y6, Y5, Y12          // [gx1, gy1 | gx3, gy3]

	// lane 0
	VADDPD    X8, X15, X15
	VADDPD    X10, X13, X13
	VADDSD    X7, X14, X14
	MOVLQSX   (DI)(BX*4), DX
	LEAQ      (DX)(DX*2), DX
	VMOVUPD   (R10)(DX*8), X1
	VSUBPD    X10, X1, X1
	VMOVUPD   X1, (R10)(DX*8)
	VMOVSD    16(R10)(DX*8), X1
	VSUBSD    X7, X1, X1
	VMOVSD    X1, 16(R10)(DX*8)

	// lane 1
	VPERMILPD $1, X7, X2           // gz1
	VADDPD    X9, X15, X15
	VADDPD    X12, X13, X13
	VADDSD    X2, X14, X14
	MOVLQSX   4(DI)(BX*4), DX
	LEAQ      (DX)(DX*2), DX
	VMOVUPD   (R10)(DX*8), X1
	VSUBPD    X12, X1, X1
	VMOVUPD   X1, (R10)(DX*8)
	VMOVSD    16(R10)(DX*8), X1
	VSUBSD    X2, X1, X1
	VMOVSD    X1, 16(R10)(DX*8)

	// lane 2
	VEXTRACTF128 $1, Y8, X8
	VEXTRACTF128 $1, Y10, X10
	VEXTRACTF128 $1, Y7, X7        // [gz2, gz3]
	VADDPD    X8, X15, X15
	VADDPD    X10, X13, X13
	VADDSD    X7, X14, X14
	MOVLQSX   8(DI)(BX*4), DX
	LEAQ      (DX)(DX*2), DX
	VMOVUPD   (R10)(DX*8), X1
	VSUBPD    X10, X1, X1
	VMOVUPD   X1, (R10)(DX*8)
	VMOVSD    16(R10)(DX*8), X1
	VSUBSD    X7, X1, X1
	VMOVSD    X1, 16(R10)(DX*8)

	// lane 3
	VEXTRACTF128 $1, Y9, X9
	VEXTRACTF128 $1, Y12, X12
	VPERMILPD $1, X7, X2           // gz3
	VADDPD    X9, X15, X15
	VADDPD    X12, X13, X13
	VADDSD    X2, X14, X14
	MOVLQSX   12(DI)(BX*4), DX
	LEAQ      (DX)(DX*2), DX
	VMOVUPD   (R10)(DX*8), X1
	VSUBPD    X12, X1, X1
	VMOVUPD   X1, (R10)(DX*8)
	VMOVSD    16(R10)(DX*8), X1
	VSUBSD    X2, X1, X1
	VMOVSD    X1, 16(R10)(DX*8)

	MOVQ R14, BX
	JMP  rowLoop

rowDone:
	MOVQ    rowArgs_i(AX), DX
	LEAQ    (DX)(DX*2), DX
	VMOVUPD X13, (R10)(DX*8)
	VMOVSD  X14, 16(R10)(DX*8)
	VMOVUPD X15, rowArgs_evdw(AX)
	MOVQ    BX, rowArgs_done(AX)
	VZEROUPPER
	RET

DATA one<>+0(SB)/8, $1.0
DATA one<>+8(SB)/8, $1.0
DATA one<>+16(SB)/8, $1.0
DATA one<>+24(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $32

DATA minus12<>+0(SB)/8, $-12.0
DATA minus12<>+8(SB)/8, $-12.0
DATA minus12<>+16(SB)/8, $-12.0
DATA minus12<>+24(SB)/8, $-12.0
GLOBL minus12<>(SB), RODATA|NOPTR, $32

DATA six<>+0(SB)/8, $6.0
DATA six<>+8(SB)/8, $6.0
DATA six<>+16(SB)/8, $6.0
DATA six<>+24(SB)/8, $6.0
GLOBL six<>(SB), RODATA|NOPTR, $32

DATA negzero<>+0(SB)/8, $0x8000000000000000
DATA negzero<>+8(SB)/8, $0x8000000000000000
DATA negzero<>+16(SB)/8, $0x8000000000000000
DATA negzero<>+24(SB)/8, $0x8000000000000000
GLOBL negzero<>(SB), RODATA|NOPTR, $32

DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
GLOBL lanes<>(SB), RODATA|NOPTR, $16

DATA four<>+0(SB)/4, $4
DATA four<>+4(SB)/4, $4
DATA four<>+8(SB)/4, $4
DATA four<>+12(SB)/4, $4
GLOBL four<>(SB), RODATA|NOPTR, $16

// compress<> row m lists the lanes set in the 4-bit mask m, in order, as
// VPERMILPS selectors; the unused tail selects lane 0.
DATA compress<>+0(SB)/4, $0
DATA compress<>+4(SB)/4, $0
DATA compress<>+8(SB)/4, $0
DATA compress<>+12(SB)/4, $0
DATA compress<>+16(SB)/4, $0
DATA compress<>+20(SB)/4, $0
DATA compress<>+24(SB)/4, $0
DATA compress<>+28(SB)/4, $0
DATA compress<>+32(SB)/4, $1
DATA compress<>+36(SB)/4, $0
DATA compress<>+40(SB)/4, $0
DATA compress<>+44(SB)/4, $0
DATA compress<>+48(SB)/4, $0
DATA compress<>+52(SB)/4, $1
DATA compress<>+56(SB)/4, $0
DATA compress<>+60(SB)/4, $0
DATA compress<>+64(SB)/4, $2
DATA compress<>+68(SB)/4, $0
DATA compress<>+72(SB)/4, $0
DATA compress<>+76(SB)/4, $0
DATA compress<>+80(SB)/4, $0
DATA compress<>+84(SB)/4, $2
DATA compress<>+88(SB)/4, $0
DATA compress<>+92(SB)/4, $0
DATA compress<>+96(SB)/4, $1
DATA compress<>+100(SB)/4, $2
DATA compress<>+104(SB)/4, $0
DATA compress<>+108(SB)/4, $0
DATA compress<>+112(SB)/4, $0
DATA compress<>+116(SB)/4, $1
DATA compress<>+120(SB)/4, $2
DATA compress<>+124(SB)/4, $0
DATA compress<>+128(SB)/4, $3
DATA compress<>+132(SB)/4, $0
DATA compress<>+136(SB)/4, $0
DATA compress<>+140(SB)/4, $0
DATA compress<>+144(SB)/4, $0
DATA compress<>+148(SB)/4, $3
DATA compress<>+152(SB)/4, $0
DATA compress<>+156(SB)/4, $0
DATA compress<>+160(SB)/4, $1
DATA compress<>+164(SB)/4, $3
DATA compress<>+168(SB)/4, $0
DATA compress<>+172(SB)/4, $0
DATA compress<>+176(SB)/4, $0
DATA compress<>+180(SB)/4, $1
DATA compress<>+184(SB)/4, $3
DATA compress<>+188(SB)/4, $0
DATA compress<>+192(SB)/4, $2
DATA compress<>+196(SB)/4, $3
DATA compress<>+200(SB)/4, $0
DATA compress<>+204(SB)/4, $0
DATA compress<>+208(SB)/4, $0
DATA compress<>+212(SB)/4, $2
DATA compress<>+216(SB)/4, $3
DATA compress<>+220(SB)/4, $0
DATA compress<>+224(SB)/4, $1
DATA compress<>+228(SB)/4, $2
DATA compress<>+232(SB)/4, $3
DATA compress<>+236(SB)/4, $0
DATA compress<>+240(SB)/4, $0
DATA compress<>+244(SB)/4, $1
DATA compress<>+248(SB)/4, $2
DATA compress<>+252(SB)/4, $3
GLOBL compress<>(SB), RODATA|NOPTR, $256
