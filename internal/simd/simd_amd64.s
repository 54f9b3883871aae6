//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 kernels. Each must return exactly what its generic loop in
// generic.go returns, and these are the places where that is easy to get
// wrong:
//
//   - Go assembly lists operands in the reverse of Intel's order, and
//     MINPD/MAXPD are not symmetric: Intel's MINPD a, b returns b when the
//     two compare equal or either is NaN. So "VMINPD lo, v, lo" is
//     lo = (v < lo) ? v : lo, which keeps the earlier of two equal values
//     and skips a NaN v, as the generic loop's "if v < lo" does; likewise
//     "VMAXPD m, d, m" skips a NaN difference as the scalar audit does.
//   - ±0: lanes cannot keep "first in index order" across lanes, so a zero
//     extreme may carry the other sign; simd.go recomputes a block whose
//     extreme is a zero with the generic loop.
//   - Non-finite values are found as the sum of v−v, which is +0 for finite
//     v and NaN otherwise, as the generic scan does four values at a time.
//   - Quantize: VROUNDPD $3 (toward zero) equals int64() on the
//     non-negative (v−lo)/step + 0.5; adding 2^52 and XOR-ing away its bits
//     turns the integral float into the integer, exactly for any offset
//     below 2^52 (szx caps offsets at 2^40); lo + k·step is VMULPD then
//     VADDPD, never a fused multiply-add, because the scalar code rounds
//     twice (gc does not fuse on amd64); and the post-check is VCMPPD with
//     predicate 2, LE_OS, which is false for NaN as the scalar <= is.
//   - Unpack: a code of at most 40 bits below 2^52 becomes a float64
//     exactly by OR-ing in the bits of 2^52 and subtracting 2^52; base +
//     k·step is VMULPD then VADDPD, with the product as the first source
//     as the scalar ADDSD has it; and the kernel reads 16 bytes from each
//     group's byte at[2], past the group's own bytes, so the Go side runs
//     it only on groups whose reads end inside src.
//   - Only VEX-encoded instructions touch X or Y registers from a
//     kernel's first YMM instruction to its VZEROUPPER: a legacy-SSE
//     instruction while the upper halves are dirty (MOVQ mem, X8 for
//     VMOVQ) stalls on a state transition each call, about 4× slower
//     overall (TestAsmStaysVEX).

DATA half<>+0(SB)/8, $0x3fe0000000000000  // 0.5
GLOBL half<>(SB), RODATA|NOPTR, $8
DATA two52<>+0(SB)/8, $0x4330000000000000 // 2^52
GLOBL two52<>(SB), RODATA|NOPTR, $8
DATA absMask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $8

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func minMaxAVX2(x []float64, lo, hi float64) (mn, mx, nonFinite float64)
//
// Two sets of lanes (Y0–Y1–Y4 and Y2–Y3–Y5) take alternate vectors, so the
// dependency chains of one iteration overlap those of the next.
TEXT ·minMaxAVX2(SB), NOSPLIT, $0-64
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	SHRQ         $2, CX
	VBROADCASTSD lo+24(FP), Y0
	VBROADCASTSD hi+32(FP), Y1
	VMOVAPD      Y0, Y2
	VMOVAPD      Y1, Y3
	VXORPD       Y4, Y4, Y4
	VXORPD       Y5, Y5, Y5

pairs:
	CMPQ    CX, $2
	JB      single
	VMOVUPD (SI), Y6
	VMOVUPD 32(SI), Y7
	VMINPD  Y0, Y6, Y0 // Y0 = (Y6 < Y0) ? Y6 : Y0
	VMAXPD  Y1, Y6, Y1 // Y1 = (Y6 > Y1) ? Y6 : Y1
	VMINPD  Y2, Y7, Y2
	VMAXPD  Y3, Y7, Y3
	VSUBPD  Y6, Y6, Y6 // v−v: +0 or NaN
	VSUBPD  Y7, Y7, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	ADDQ    $64, SI
	SUBQ    $2, CX
	JMP     pairs

single:
	TESTQ   CX, CX
	JZ      reduce
	VMOVUPD (SI), Y6
	VMINPD  Y0, Y6, Y0
	VMAXPD  Y1, Y6, Y1
	VSUBPD  Y6, Y6, Y6
	VADDPD  Y6, Y4, Y4

reduce:
	// Lanes hold no NaN unless the sum below is NaN, when the caller
	// discards the extremes, so the reduction order matters only for
	// the sign of a zero, which the caller resolves.
	VMINPD       Y2, Y0, Y0
	VMAXPD       Y3, Y1, Y1
	VADDPD       Y5, Y4, Y4
	VEXTRACTF128 $1, Y0, X2
	VMINPD       X2, X0, X0
	VPERMILPD    $1, X0, X2
	VMINPD       X2, X0, X0
	VEXTRACTF128 $1, Y1, X3
	VMAXPD       X3, X1, X1
	VPERMILPD    $1, X1, X3
	VMAXPD       X3, X1, X1
	VEXTRACTF128 $1, Y4, X5
	VADDPD       X5, X4, X4
	VPERMILPD    $1, X4, X5
	VADDPD       X5, X4, X4
	VZEROUPPER
	MOVSD        X0, mn+40(FP)
	MOVSD        X1, mx+48(FP)
	MOVSD        X4, nonFinite+56(FP)
	RET

// func maxAbsDiffAVX2(m float64, o, r []float64) float64
//
// Every lane starts at m and only ever takes a difference greater than
// itself, so lanes that compare equal hold the same bits (|d| is never −0)
// and the cross-lane reduction order cannot show.
TEXT ·maxAbsDiffAVX2(SB), NOSPLIT, $0-64
	MOVSD        m+0(FP), X0
	MOVQ         o_base+8(FP), SI
	MOVQ         o_len+16(FP), CX
	MOVQ         r_base+32(FP), DI
	SHRQ         $2, CX
	VBROADCASTSD X0, Y0
	VMOVAPD      Y0, Y1
	VBROADCASTSD absMask<>(SB), Y2

pairs:
	CMPQ    CX, $2
	JB      single
	VMOVUPD (SI), Y3
	VMOVUPD 32(SI), Y4
	VSUBPD  (DI), Y3, Y3   // o − r
	VSUBPD  32(DI), Y4, Y4
	VANDPD  Y2, Y3, Y3     // |o − r|
	VANDPD  Y2, Y4, Y4
	VMAXPD  Y0, Y3, Y0     // Y0 = (d > Y0) ? d : Y0; a NaN d is skipped
	VMAXPD  Y1, Y4, Y1
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $2, CX
	JMP     pairs

single:
	TESTQ   CX, CX
	JZ      reduce
	VMOVUPD (SI), Y3
	VSUBPD  (DI), Y3, Y3
	VANDPD  Y2, Y3, Y3
	VMAXPD  Y0, Y3, Y0

reduce:
	VMAXPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXPD       X1, X0, X0
	VZEROUPPER
	MOVSD        X0, ret+56(FP)
	RET

// func quantizeAVX2(dst []uint64, x []float64, lo, step, eb float64) bool
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-73
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	SHRQ         $2, CX
	VBROADCASTSD lo+48(FP), Y0
	VBROADCASTSD step+56(FP), Y1
	VBROADCASTSD eb+64(FP), Y2
	VBROADCASTSD half<>(SB), Y3
	VBROADCASTSD two52<>(SB), Y4
	VBROADCASTSD absMask<>(SB), Y5
	VPCMPEQQ     Y6, Y6, Y6 // every lane has passed so far

loop:
	VMOVUPD  (SI), Y7      // v
	VSUBPD   Y0, Y7, Y8    // v − lo
	VDIVPD   Y1, Y8, Y8    // (v − lo) / step
	VADDPD   Y3, Y8, Y8    // + 0.5
	VROUNDPD $3, Y8, Y8    // toward zero: k, as a float
	VMULPD   Y1, Y8, Y9    // k·step, rounded once
	VADDPD   Y0, Y9, Y9    // lo + k·step, rounded again
	VSUBPD   Y7, Y9, Y9    // (lo + k·step) − v
	VANDPD   Y5, Y9, Y9    // |·|
	VCMPPD   $2, Y2, Y9, Y9 // |·| <= eb (LE_OS)
	VANDPD   Y9, Y6, Y6
	VADDPD   Y4, Y8, Y8    // k + 2^52: k sits in the low mantissa bits
	VXORPD   Y4, Y8, Y8    // clear 2^52's bits: k as an integer
	VMOVDQU  Y8, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DI
	DECQ     CX
	JNZ      loop

	VMOVMSKPD Y6, AX
	VZEROUPPER
	CMPL      AX, $15
	SETEQ     ret+72(FP)
	RET

// func unpackGroupsAVX2(dst []float64, src []byte, plan *unpackPlan, base, step float64)
//
// One group of 8 codes a loop: codes 0–3 into Y8 and 4–7 into Y9, each
// from two 16-byte loads, one a 128-bit lane.
TEXT ·unpackGroupsAVX2(SB), NOSPLIT, $0-72
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	SHRQ         $3, CX
	MOVQ         src_base+24(FP), SI
	MOVQ         plan+48(FP), R8
	MOVQ         128(R8), R9  // at[0]: codes 2–3
	MOVQ         136(R8), R10 // at[1]: codes 4–5
	MOVQ         144(R8), R11 // at[2]: codes 6–7
	MOVQ         160(R8), R12 // nb: the group's bytes
	VMOVQ        152(R8), X7  // 64 − nb
	VBROADCASTSD base+56(FP), Y0
	VBROADCASTSD step+64(FP), Y1
	VBROADCASTSD two52<>(SB), Y2
	VMOVDQU      0(R8), Y3    // shuf[0]
	VMOVDQU      32(R8), Y4   // shuf[1]
	VMOVDQU      64(R8), Y5   // shift[0]
	VMOVDQU      96(R8), Y6   // shift[1]

loop:
	VMOVDQU     (SI), X8
	VINSERTI128 $1, (SI)(R9*1), Y8, Y8
	VMOVDQU     (SI)(R10*1), X9
	VINSERTI128 $1, (SI)(R11*1), Y9, Y9
	VPSHUFB     Y3, Y8, Y8 // each lane: its code's big-endian window
	VPSHUFB     Y4, Y9, Y9
	VPSLLVQ     Y5, Y8, Y8 // drop the bits before the code
	VPSLLVQ     Y6, Y9, Y9
	VPSRLQ      X7, Y8, Y8 // k in the low nb bits
	VPSRLQ      X7, Y9, Y9
	VPOR        Y2, Y8, Y8 // 2^52 + k, as a float64
	VPOR        Y2, Y9, Y9
	VSUBPD      Y2, Y8, Y8 // k, exactly
	VSUBPD      Y2, Y9, Y9
	VMULPD      Y1, Y8, Y8 // k·step, rounded once
	VMULPD      Y1, Y9, Y9
	VADDPD      Y0, Y8, Y8 // k·step + base, rounded again
	VADDPD      Y0, Y9, Y9
	VMOVUPD     Y8, (DI)
	VMOVUPD     Y9, 32(DI)
	ADDQ        R12, SI
	ADDQ        $64, DI
	DECQ        CX
	JNZ         loop

	VZEROUPPER
	RET
