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
//   - Interp: operands take element loads, VMOVSD/VMOVHPD at P, P+S,
//     P+2S, P+3S and VINSERTF128, which read exactly the scalar loop's
//     addresses at any stride and never past the slice. A prototype with
//     32-byte loads and VUNPCKLPD/VPERMPD at stride 2 measured 10.8 ns a
//     point against 7.7 for element loads: along the last axis every
//     neighbour load overlaps the previous group's 8-byte recon stores,
//     which stalls store forwarding. The cubic prediction is
//     ((9b − a) + 9c − d)·(1/16), Predict's order, never fused, with the
//     first source of each add the operand gc's ADDSD keeps, so two NaN
//     neighbours give the generic loop's NaN. The encode bin gets +0
//     added, because VROUNDPD keeps the sign of a −0 that the scalar
//     int bin has not, and a −0 prediction plus a −0 product would decode
//     to −0 where Go has +0. A group with one lane that is not a plain
//     code ends the call before anything of it is stored: the generic
//     loop takes the group up to that lane, and the caller codes the lane
//     and calls again.
//   - AddCos: math.cos's small-argument path, operation for operation.
//     A group runs only if every lane has x = |base + t| < 2^29
//     (VCMPPD LT_OQ, false for NaN), so x·(4/π) < 2^31 and VCVTTPD2DQ
//     truncates it exactly, as uint64() does; j += j&1 and VCVTDQ2PD
//     give y. Where math.cos branches on the octant, the kernel computes
//     both polynomials, in math.cos's association, and blends them with
//     VBLENDVPD on j&2 in each lane's sign bit, then flips the sign with
//     an XOR of ((j+2)>>2 & 1) << 63. Every product is a VMULPD rounded
//     before its add, never an FMA: gc emits one on amd64 only for an
//     explicit math.FMA. A NaN amp or dst keeps gc's operand order: the
//     scalar loop's MULSD has the cosine as its first source and its
//     ADDSD the product, so with both NaN the product's (amp's) payload
//     wins, and so it does in VMULPD and VADDPD here.
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

DATA nine<>+0(SB)/8, $0x4022000000000000      // 9
GLOBL nine<>(SB), RODATA|NOPTR, $8
DATA sixteenth<>+0(SB)/8, $0x3fb0000000000000 // 1/16
GLOBL sixteenth<>(SB), RODATA|NOPTR, $8

// The interp kernels take a run's points four at a time, a group: lane j
// of every operand is point j of the group, j·S bytes past the operand's
// pointer (S in R8, 3S in R9), and its code sits j·PS bytes past the
// group's first code (PS in R14). Both kernels hold
//
//	SI  the group's first point in recon    R10  SI − near    R11  SI + near
//	BX  the group's first code              R12  SI − 3·near  R13  SI + 3·near
//	CX  groups left                         DX   the stencil: 0 left, 1 linear, 2 cubic
//
// and keep 9 in Y15.

// LOAD4 fills yk with the four values at P, P+S, P+2S and P+3S, using xt.
#define LOAD4(P, xk, yk, xt) \
	VMOVSD      (P), xk;         \
	VMOVHPD     (P)(R8*1), xk, xk; \
	VMOVSD      (P)(R8*2), xt;   \
	VMOVHPD     (P)(R9*1), xt, xt; \
	VINSERTF128 $1, xt, yk, yk

// STORE4 writes Y4's lanes to SI, SI+S, SI+2S and SI+3S.
#define STORE4 \
	VMOVSD       X4, (SI);       \
	VMOVHPD      X4, (SI)(R8*1); \
	VEXTRACTF128 $1, Y4, X4;     \
	VMOVSD       X4, (SI)(R8*2); \
	VMOVHPD      X4, (SI)(R9*1)

// SETUP derives the registers above from SI, S in R8 and near in R12.
#define SETUP \
	LEAQ         (R8)(R8*2), R9;      \
	MOVQ         SI, R10;             \
	SUBQ         R12, R10;            \
	LEAQ         (SI)(R12*1), R11;    \
	LEAQ         (R12)(R12*2), R12;   \
	LEAQ         (SI)(R12*1), R13;    \
	NEGQ         R12;                 \
	ADDQ         SI, R12;             \
	VBROADCASTSD nine<>(SB), Y15

// LINEAR leaves (b + c)·0.5 in Y0, b already there; CUBIC leaves
// ((9b − a) + 9c − d)·(1/16). These are Predict's operations in its
// order, each rounded, never fused. With two NaN operands x86 returns the
// first source's NaN, so each operation's first source is the one the
// ADDSD or SUBSD gc emits for Predict has as its destination.
#define LINEAR \
	LOAD4(R11, X1, Y1, X4);      \
	VADDPD       Y1, Y0, Y0;     \
	VBROADCASTSD half<>(SB), Y1; \
	VMULPD       Y1, Y0, Y0

#define CUBIC \
	LOAD4(R12, X0, Y0, X4);           \
	LOAD4(R10, X1, Y1, X4);           \
	LOAD4(R11, X2, Y2, X4);           \
	LOAD4(R13, X3, Y3, X4);           \
	VMULPD       Y15, Y1, Y1;         \
	VSUBPD       Y0, Y1, Y1;          \
	VMULPD       Y15, Y2, Y2;         \
	VADDPD       Y2, Y1, Y1;          \
	VSUBPD       Y3, Y1, Y1;          \
	VBROADCASTSD sixteenth<>(SB), Y0; \
	VMULPD       Y0, Y1, Y0

// func interpEncodeKernel(codes *uint16, recon, data *float64, stride, near, pstep, groups, stencil int, q *interpQuant) int
//
// Each group: the predictions, then d = (v − pred)/eb2, bin = trunc(d) +
// trunc(2·(d − trunc(d))) + 0 (quant.Round; the +0 turns a −0 bin into
// the +0 that float64(int) gives, or a −0 prediction would decode to −0
// where Go has +0), rec = pred + bin·eb2, the product rounded first, and
// the test that every lane is plain: −radF < bin < binHi, which a d out
// of range, NaN or ±Inf fails too, and !(e > eb) && !(e < −eb) for
// e = rec − v, predicates NGT_US and NLT_US, true for a NaN e as the
// scalar post-check is. A group that is not plain in every lane ends the
// call before anything of it is written.
TEXT ·interpEncodeKernel(SB), NOSPLIT, $0-80
	MOVQ         codes+0(FP), BX
	MOVQ         recon+8(FP), SI
	MOVQ         data+16(FP), DI
	MOVQ         stride+24(FP), R8
	MOVQ         near+32(FP), R12
	MOVQ         pstep+40(FP), R14
	MOVQ         groups+48(FP), CX
	MOVQ         stencil+56(FP), DX
	MOVQ         q+64(FP), AX
	VBROADCASTSD 0(AX), Y8     // eb2
	VBROADCASTSD 8(AX), Y9     // eb
	VBROADCASTSD 16(AX), Y10   // −eb
	VBROADCASTSD 24(AX), Y11   // −radF
	VBROADCASTSD 32(AX), Y12   // binHi
	VXORPD       Y13, Y13, Y13 // +0
	VPBROADCASTD 40(AX), X14   // radius, int32 lanes
	SETUP

encLoop:
	CMPQ DX, $1
	JA   encCubic
	LOAD4(R10, X0, Y0, X4) // b: the left stencil's prediction
	JB   encQuantize
	LINEAR
	JMP  encQuantize

encCubic:
	CUBIC

encQuantize:
	LOAD4(DI, X1, Y1, X2)       // v
	VSUBPD    Y0, Y1, Y2        // v − pred
	VDIVPD    Y8, Y2, Y2        // d
	VROUNDPD  $3, Y2, Y3        // trunc(d)
	VSUBPD    Y3, Y2, Y4        // its fraction
	VADDPD    Y4, Y4, Y4        // twice that
	VROUNDPD  $3, Y4, Y4        // trunc of it: −1, 0 or +1
	VADDPD    Y4, Y3, Y3        // bin
	VADDPD    Y13, Y3, Y3       // −0 → +0
	VMULPD    Y8, Y3, Y4        // bin·eb2, rounded once
	VADDPD    Y4, Y0, Y4        // rec = pred + bin·eb2, rounded again
	VSUBPD    Y1, Y4, Y5        // e = rec − v
	VCMPPD    $0x0a, Y9, Y5, Y6 // !(e > eb)
	VCMPPD    $0x05, Y10, Y5, Y7 // !(e < −eb)
	VANDPD    Y7, Y6, Y6
	VCMPPD    $0x1e, Y11, Y3, Y7 // bin > −radF
	VANDPD    Y7, Y6, Y6
	VCMPPD    $0x11, Y12, Y3, Y7 // bin < binHi
	VANDPD    Y7, Y6, Y6
	VMOVMSKPD Y6, AX
	CMPL      AX, $15
	JNE       encDone

	VCVTTPD2DQY Y3, X3          // bin, int32 lanes
	VPADDD      X14, X3, X3     // code = bin + radius
	VPEXTRW     $0, X3, (BX)
	VPEXTRW     $2, X3, (BX)(R14*1)
	VPEXTRW     $4, X3, (BX)(R14*2)
	LEAQ        (BX)(R14*2), AX
	VPEXTRW     $6, X3, (AX)(R14*1)
	STORE4
	LEAQ        (SI)(R8*4), SI
	LEAQ        (DI)(R8*4), DI
	LEAQ        (R10)(R8*4), R10
	LEAQ        (R11)(R8*4), R11
	LEAQ        (R12)(R8*4), R12
	LEAQ        (R13)(R8*4), R13
	LEAQ        (BX)(R14*4), BX
	DECQ        CX
	JNZ         encLoop

encDone:
	VZEROUPPER
	MOVQ groups+48(FP), AX
	SUBQ CX, AX
	MOVQ AX, ret+72(FP)
	RET

// func interpDecodeKernel(codes *uint16, recon *float64, stride, near, pstep, groups, stencil int, q *interpQuant) int
//
// Each group: the four codes, zero-extended into int32 lanes, and the end
// of the call before anything is written if one of them is 0 (an escape)
// or 0xFFFF (a wide marker); else the predictions and rec = pred +
// (code − radius)·eb2, the product rounded first.
TEXT ·interpDecodeKernel(SB), NOSPLIT, $0-72
	MOVQ         codes+0(FP), BX
	MOVQ         recon+8(FP), SI
	MOVQ         stride+16(FP), R8
	MOVQ         near+24(FP), R12
	MOVQ         pstep+32(FP), R14
	MOVQ         groups+40(FP), CX
	MOVQ         stencil+48(FP), DX
	MOVQ         q+56(FP), AX
	VBROADCASTSD 0(AX), Y8      // eb2
	VPXOR        X13, X13, X13  // 0
	VPCMPEQD     X12, X12, X12
	VPSRLD       $16, X12, X12  // 0xFFFF
	VPBROADCASTD 40(AX), X14    // radius
	SETUP

decLoop:
	VPXOR    X5, X5, X5
	VPINSRW  $0, (BX), X5, X5
	VPINSRW  $2, (BX)(R14*1), X5, X5
	VPINSRW  $4, (BX)(R14*2), X5, X5
	LEAQ     (BX)(R14*2), AX
	VPINSRW  $6, (AX)(R14*1), X5, X5
	VPCMPEQD X13, X5, X6
	VPCMPEQD X12, X5, X7
	VPOR     X7, X6, X6
	VPTEST   X6, X6
	JNZ      decDone
	VPSUBD    X14, X5, X5       // code − radius
	VCVTDQ2PD X5, Y5
	VMULPD    Y8, Y5, Y5        // ·eb2, rounded once

	CMPQ DX, $1
	JA   decCubic
	LOAD4(R10, X0, Y0, X4)
	JB   decRecover
	LINEAR
	JMP  decRecover

decCubic:
	CUBIC

decRecover:
	VADDPD Y5, Y0, Y4           // pred + (code − radius)·eb2
	STORE4
	LEAQ   (SI)(R8*4), SI
	LEAQ   (R10)(R8*4), R10
	LEAQ   (R11)(R8*4), R11
	LEAQ   (R12)(R8*4), R12
	LEAQ   (R13)(R8*4), R13
	LEAQ   (BX)(R14*4), BX
	DECQ   CX
	JNZ    decLoop

decDone:
	VZEROUPPER
	MOVQ groups+40(FP), AX
	SUBQ CX, AX
	MOVQ AX, ret+64(FP)
	RET

// The cos kernel's constants, each math.cos's own: 4/π, π/4 split in
// three parts, the 2^29 bound of its small-argument path, its sin and cos
// polynomials' coefficients from the highest order down, and 1.
DATA cosTab<>+0(SB)/8, $0x3ff45f306dc9c883   // 4/π
DATA cosTab<>+8(SB)/8, $0x3fe921fb40000000   // PI4A
DATA cosTab<>+16(SB)/8, $0x3e64442d00000000  // PI4B
DATA cosTab<>+24(SB)/8, $0x3ce8469898cc5170  // PI4C
DATA cosTab<>+32(SB)/8, $0x41c0000000000000  // 2^29
DATA cosTab<>+40(SB)/8, $0x3de5d8fd1fd19ccd  // _sin[0]
DATA cosTab<>+48(SB)/8, $0xbe5ae5e5a9291f5d  // _sin[1]
DATA cosTab<>+56(SB)/8, $0x3ec71de3567d48a1  // _sin[2]
DATA cosTab<>+64(SB)/8, $0xbf2a01a019bfdf03  // _sin[3]
DATA cosTab<>+72(SB)/8, $0x3f8111111110f7d0  // _sin[4]
DATA cosTab<>+80(SB)/8, $0xbfc5555555555548  // _sin[5]
DATA cosTab<>+88(SB)/8, $0xbda8fa49a0861a9b  // _cos[0]
DATA cosTab<>+96(SB)/8, $0x3e21ee9d7b4e3f05  // _cos[1]
DATA cosTab<>+104(SB)/8, $0xbe927e4f7eac4bc6 // _cos[2]
DATA cosTab<>+112(SB)/8, $0x3efa01a019c844f5 // _cos[3]
DATA cosTab<>+120(SB)/8, $0xbf56c16c16c14f91 // _cos[4]
DATA cosTab<>+128(SB)/8, $0x3fa555555555554b // _cos[5]
DATA cosTab<>+136(SB)/8, $0x3ff0000000000000 // 1
GLOBL cosTab<>(SB), RODATA|NOPTR, $144

DATA onesD<>+0(SB)/8, $0x0000000100000001 // 1 in each int32 lane
DATA onesD<>+8(SB)/8, $0x0000000100000001
GLOBL onesD<>(SB), RODATA|NOPTR, $16
DATA twosQ<>+0(SB)/8, $2 // 2 in each int64 lane
DATA twosQ<>+8(SB)/8, $2
DATA twosQ<>+16(SB)/8, $2
DATA twosQ<>+24(SB)/8, $2
GLOBL twosQ<>(SB), RODATA|NOPTR, $32

// The cos kernel takes two groups of four a loop, A and B, each in six
// registers — x, then z, in Y2 and Y8; j in X3/Y3 and X9/Y9; zz in Y4 and
// Y10; the cosine polynomial, then the result, in Y5 and Y11; the sine
// polynomial, then s, in Y6 and Y12; a temporary in Y7 and Y13 — and
// broadcasts each constant once for both into Y14 or Y15. Y0 holds base,
// Y1 amp.

// COSARGS leaves x = |base + t| in Y2 and Y8, from t there, and in AX
// and BX the masks of A's and B's lanes with x < 2^29 (LT_OQ, false for
// NaN).
#define COSARGS \
	VADDPD       Y2, Y0, Y2;             \
	VADDPD       Y8, Y0, Y8;             \
	VBROADCASTSD absMask<>(SB), Y14;     \
	VANDPD       Y14, Y2, Y2;            \
	VANDPD       Y14, Y8, Y8;            \
	VBROADCASTSD cosTab<>+32(SB), Y15;   \
	VCMPPD       $0x11, Y15, Y2, Y7;     \
	VCMPPD       $0x11, Y15, Y8, Y13;    \
	VMOVMSKPD    Y7, AX;                 \
	VMOVMSKPD    Y13, BX

// COSPOLY multiplies both groups' cosine and sine polynomials by zz and
// adds their next coefficients, _cos at off+48 and _sin at off: one
// Horner step of math.cos's, the product rounded, then the sum.
#define COSPOLY(off) \
	VMULPD       Y4, Y5, Y5;                \
	VMULPD       Y4, Y6, Y6;                \
	VMULPD       Y10, Y11, Y11;             \
	VMULPD       Y10, Y12, Y12;             \
	VBROADCASTSD cosTab<>+(off+48)(SB), Y14; \
	VBROADCASTSD cosTab<>+(off)(SB), Y15;    \
	VADDPD       Y14, Y5, Y5;               \
	VADDPD       Y15, Y6, Y6;               \
	VADDPD       Y14, Y11, Y11;             \
	VADDPD       Y15, Y12, Y12

// COS2 leaves amp·cos(x) in Y5 and Y11, from x in Y2 and Y8: math.cos's
// small-argument path, operation for operation. The sine and cosine
// polynomials are both computed and blended by j&2, and the sign is
// flipped by an XOR, where math.cos branches.
#define COS2 \
	VBROADCASTSD cosTab<>+0(SB), Y14;  \
	VMULPD       Y14, Y2, Y7;          \
	VMULPD       Y14, Y8, Y13;         \
	VCVTTPD2DQY  Y7, X3;               \
	VCVTTPD2DQY  Y13, X9;              \
	VPAND        onesD<>(SB), X3, X7;  \
	VPAND        onesD<>(SB), X9, X13; \
	VPADDD       X7, X3, X3;           \
	VPADDD       X13, X9, X9;          \
	VCVTDQ2PD    X3, Y7;               \
	VCVTDQ2PD    X9, Y13;              \
	VBROADCASTSD cosTab<>+8(SB), Y14;  \
	VMULPD       Y14, Y7, Y4;          \
	VMULPD       Y14, Y13, Y10;        \
	VSUBPD       Y4, Y2, Y2;           \
	VSUBPD       Y10, Y8, Y8;          \
	VBROADCASTSD cosTab<>+16(SB), Y14; \
	VMULPD       Y14, Y7, Y4;          \
	VMULPD       Y14, Y13, Y10;        \
	VSUBPD       Y4, Y2, Y2;           \
	VSUBPD       Y10, Y8, Y8;          \
	VBROADCASTSD cosTab<>+24(SB), Y14; \
	VMULPD       Y14, Y7, Y4;          \
	VMULPD       Y14, Y13, Y10;        \
	VSUBPD       Y4, Y2, Y2;           \
	VSUBPD       Y10, Y8, Y8;          \
	VMULPD       Y2, Y2, Y4;           \
	VMULPD       Y8, Y8, Y10;          \
	VBROADCASTSD cosTab<>+88(SB), Y5;  \
	VBROADCASTSD cosTab<>+40(SB), Y6;  \
	VMOVAPD      Y5, Y11;              \
	VMOVAPD      Y6, Y12;              \
	COSPOLY(48);                       \
	COSPOLY(56);                       \
	COSPOLY(64);                       \
	COSPOLY(72);                       \
	COSPOLY(80);                       \
	VMULPD       Y4, Y4, Y7;           \
	VMULPD       Y10, Y10, Y13;        \
	VMULPD       Y5, Y7, Y7;           \
	VMULPD       Y11, Y13, Y13;        \
	VBROADCASTSD half<>(SB), Y14;      \
	VMULPD       Y4, Y14, Y5;          \
	VMULPD       Y10, Y14, Y11;        \
	VBROADCASTSD cosTab<>+136(SB), Y14; \
	VSUBPD       Y5, Y14, Y5;          \
	VSUBPD       Y11, Y14, Y11;        \
	VADDPD       Y7, Y5, Y5;           \
	VADDPD       Y13, Y11, Y11;        \
	VMULPD       Y4, Y2, Y7;           \
	VMULPD       Y10, Y8, Y13;         \
	VMULPD       Y6, Y7, Y7;           \
	VMULPD       Y12, Y13, Y13;        \
	VADDPD       Y7, Y2, Y6;           \
	VADDPD       Y13, Y8, Y12;         \
	VPMOVZXDQ    X3, Y3;               \
	VPMOVZXDQ    X9, Y9;               \
	VPSLLQ       $62, Y3, Y7;          \
	VPSLLQ       $62, Y9, Y13;         \
	VBLENDVPD    Y7, Y6, Y5, Y5;       \
	VBLENDVPD    Y13, Y12, Y11, Y11;   \
	VPADDQ       twosQ<>(SB), Y3, Y3;  \
	VPADDQ       twosQ<>(SB), Y9, Y9;  \
	VPSRLQ       $2, Y3, Y3;           \
	VPSRLQ       $2, Y9, Y9;           \
	VPSLLQ       $63, Y3, Y3;          \
	VPSLLQ       $63, Y9, Y9;          \
	VXORPD       Y3, Y5, Y5;           \
	VXORPD       Y9, Y11, Y11;         \
	VMULPD       Y1, Y5, Y5;           \
	VMULPD       Y1, Y11, Y11

// func addCosAVX2(dst, t []float64, base, amp float64) int
//
// Each group of four: x = |base + t|, and the end of the call before
// anything of the group is written unless every lane has x < 2^29; then
// math.cos's small-argument path lane by lane — j = trunc(x·4/π), j +=
// j&1, y = j as a float, z = ((x − y·PI4A) − y·PI4B) − y·PI4C, zz = z·z,
// s = z + (z·zz)·P_sin(zz), c = (1 − 0.5·zz) + (zz·zz)·P_cos(zz) — the
// sine where j&2, else the cosine, its sign flipped where (j+2)>>2 is odd;
// then ·amp, the cosine the first source as in gc's MULSD, and + dst, the
// product the first source as in gc's ADDSD. Two groups run a loop; a
// group whose partner stops the call, or the last group of an odd count,
// runs alone, its partner's registers a copy of its own.
TEXT ·addCosAVX2(SB), NOSPLIT, $0-72
	MOVQ         dst_base+0(FP), DI
	MOVQ         t_base+24(FP), SI
	MOVQ         t_len+32(FP), CX
	SHRQ         $2, CX
	MOVQ         CX, DX
	VBROADCASTSD base+48(FP), Y0
	VBROADCASTSD amp+56(FP), Y1

cosPair:
	CMPQ    CX, $2
	JB      cosOne
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y8
	COSARGS
	CMPL    AX, $15
	JNE     cosDone
	CMPL    BX, $15
	JNE     cosAlone
	COS2
	VADDPD  (DI), Y5, Y5
	VADDPD  32(DI), Y11, Y11
	VMOVUPD Y5, (DI)
	VMOVUPD Y11, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $2, CX
	JMP     cosPair

cosOne:
	TESTQ   CX, CX
	JZ      cosDone
	VMOVUPD (SI), Y2
	VMOVAPD Y2, Y8
	COSARGS
	CMPL    AX, $15
	JNE     cosDone

cosAlone:
	VMOVAPD Y2, Y8
	COS2
	VADDPD  (DI), Y5, Y5
	VMOVUPD Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JMP     cosPair

cosDone:
	VZEROUPPER
	SUBQ CX, DX
	MOVQ DX, ret+64(FP)
	RET
