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

// The rANS kernels run sz3's version 3 sections, 16 lanes of 32-bit state
// in two registers of eight, lanes 0–7 and 8–15, so that the gathers of
// one register's step overlap the arithmetic of the other's. Where they
// can part from the generic loops:
//
//   - VPGATHERDD clears its mask register and needs mask, index and
//     destination apart; every gather sets its mask to all ones first.
//     Indices are signed, so the Go side keeps every table and lane
//     offset below 2^31, and the kernels clamp contexts and entries to
//     the last one as the generic loops do, so that no table contents
//     make a gather read past its table.
//   - Words move in lane order: the decoder refills lanes 0–7, then 8–15,
//     the r-th lane that needs a word taking the r-th word read
//     (VPERMD by ransExpand[VMOVMSKPS]); the encoder hands lanes 15–8
//     over, then 7–0, highest first (VPSHUFB by ransCompress), storing
//     16 bytes and keeping POPCNT of them.
//   - Unsigned compares: x < 2^16 is x>>16 == 0, and x ≥ xmax is
//     max_u(x, xmax) == x; VPCMPGTD is signed.
//   - The encoder's quotient takes the high half of x·rcp from two
//     VPMULUDQ, one on the even lanes and one on the odd ones shifted
//     down, and its shift from the exponent of float32(f − 1), which is
//     RANSPut's bits.Len32((f−1)|1) − 1 for every f ≥ 1 (the exponent of
//     0 is −127, which VPMAXSD raises to 0).
//   - The decoder writes each lane's codes eight steps at a time: it
//     packs every step's 16 codes into one row of a frame ring, and every
//     eight steps transposes the 8×8 blocks of words in both 128-bit
//     halves, so each lane's eight codes leave in one 16-byte store.

DATA lo16<>+0(SB)/8, $0x0000ffff0000ffff
DATA lo16<>+8(SB)/8, $0x0000ffff0000ffff
DATA lo16<>+16(SB)/8, $0x0000ffff0000ffff
DATA lo16<>+24(SB)/8, $0x0000ffff0000ffff
GLOBL lo16<>(SB), RODATA|NOPTR, $32
DATA one32<>+0(SB)/8, $0x0000000100000001
DATA one32<>+8(SB)/8, $0x0000000100000001
DATA one32<>+16(SB)/8, $0x0000000100000001
DATA one32<>+24(SB)/8, $0x0000000100000001
GLOBL one32<>(SB), RODATA|NOPTR, $32
DATA ctxMask<>+0(SB)/8, $0x000003ff000003ff
DATA ctxMask<>+8(SB)/8, $0x000003ff000003ff
DATA ctxMask<>+16(SB)/8, $0x000003ff000003ff
DATA ctxMask<>+24(SB)/8, $0x000003ff000003ff
GLOBL ctxMask<>(SB), RODATA|NOPTR, $32
DATA bias127<>+0(SB)/8, $0x0000007f0000007f
DATA bias127<>+8(SB)/8, $0x0000007f0000007f
DATA bias127<>+16(SB)/8, $0x0000007f0000007f
DATA bias127<>+24(SB)/8, $0x0000007f0000007f
GLOBL bias127<>(SB), RODATA|NOPTR, $32
DATA ones32<>+0(SB)/8, $-1
DATA ones32<>+8(SB)/8, $-1
DATA ones32<>+16(SB)/8, $-1
DATA ones32<>+24(SB)/8, $-1
GLOBL ones32<>(SB), RODATA|NOPTR, $32
DATA zero32<>+0(SB)/8, $0
DATA zero32<>+8(SB)/8, $0
DATA zero32<>+16(SB)/8, $0
DATA zero32<>+24(SB)/8, $0
GLOBL zero32<>(SB), RODATA|NOPTR, $32
// lowWords gathers the low word of each dword into the low 8 bytes of
// its 128-bit half.
DATA lowWords<>+0(SB)/8, $0x0d0c090805040100
DATA lowWords<>+8(SB)/8, $0x8080808080808080
DATA lowWords<>+16(SB)/8, $0x0d0c090805040100
DATA lowWords<>+24(SB)/8, $0x8080808080808080
GLOBL lowWords<>(SB), RODATA|NOPTR, $32

// The decode kernel holds
//
//	Y0, Y1  lane states, lanes 0–7 and 8–15   Y2, Y3  their contexts
//	Y4      escapes, by lane mod 8            Y5      the OR of the Sym entries
//	Y14     zero                              X15     L
//	SI      Slot    DI  Sym    DX  words      BX      the next word
//	R10     ransExpand          R11 the block's first code of lane 0
//	R12     the lane stride, in bytes          CX steps left, AX steps done
//
// and R14 the frame: 256(R14) the slot mask 2^L − 1 and 288(R14) the
// last context, in every lane, and 0(R14)–255(R14) the ring of eight rows
// of 16 codes.

// DSTEP decodes one step of the eight lanes whose states are in yx and
// contexts in yc, and leaves their codes in ycode.
#define DSTEP(yx, yc, ycode) \
	VPMINUD    288(R14), yc, Y6;       \
	VPSLLD     X15, Y6, Y6;           \
	VPAND      256(R14), yx, Y7;       \
	VPOR       Y7, Y6, Y6;            \
	VPCMPEQD   Y7, Y7, Y7;            \
	VPGATHERDD Y7, (SI)(Y6*4), Y8;    \
	VPCMPEQD   Y7, Y7, Y7;            \
	VPGATHERDD Y7, (DI)(Y6*4), ycode; \
	VPSRLD     X15, yx, yx;           \
	VPAND      lo16<>(SB), Y8, Y9;    \
	VPMULLD    Y9, yx, yx;            \
	VPSRLD     $16, Y8, Y8;           \
	VPADDD     Y8, yx, yx;            \
	VPSRLD     $16, yx, Y9;           \
	VPCMPEQD   Y14, Y9, Y9;           \
	VMOVMSKPS  Y9, R8;                \
	VPMOVZXWD  (DX)(BX*2), Y10;       \
	MOVQ       R8, R9;                \
	SHLQ       $5, R9;                \
	VMOVDQU    (R10)(R9*1), Y11;      \
	VPERMD     Y10, Y11, Y10;         \
	VPSLLD     $16, yx, Y11;          \
	VPOR       Y10, Y11, Y11;         \
	VPBLENDVB  Y9, Y11, yx, yx;       \
	POPCNTL    R8, R8;                \
	ADDQ       R8, BX;                \
	VPSRLD     $16, ycode, Y9;        \
	VPAND      one32<>(SB), Y9, Y9;   \
	VPADDD     Y9, Y4, Y4;            \
	VPOR       ycode, Y5, Y5;         \
	VPSRLD     $18, ycode, yc;        \
	VPAND      ctxMask<>(SB), yc, yc; \
	VPAND      lo16<>(SB), ycode, ycode

// DROW decodes one step of all 16 lanes and stores their codes, lane
// order, as row off of the ring.
#define DROW(off) \
	DSTEP(Y0, Y2, Y12);         \
	DSTEP(Y1, Y3, Y13);         \
	VPACKUSDW Y13, Y12, Y12;    \
	VPERMQ    $0xd8, Y12, Y12;  \
	VMOVDQU   Y12, off(R14)

// DOUT stores lane k's eight codes from the low half of yc to R8 and lane
// k+8's from its high half to R9, and steps both to the next lane.
#define DOUT(yc, xc) \
	VMOVDQU      xc, (R8);      \
	VEXTRACTI128 $1, yc, (R9);  \
	ADDQ         R12, R8;       \
	ADDQ         R12, R9

// func ransDecodeKernel(d *RANSDecoder, out *uint16, stride, steps int, slot, sym *uint32, L, last int, w *byte, nw int, expand *[256][8]uint32) int
TEXT ·ransDecodeKernel(SB), NOSPLIT, $320-96
	MOVQ         d+0(FP), R13
	LEAQ         0(SP), R14
	MOVQ         out+8(FP), R11
	MOVQ         stride+16(FP), R12
	MOVQ         slot+32(FP), SI
	MOVQ         sym+40(FP), DI
	MOVQ         w+64(FP), DX
	MOVQ         expand+80(FP), R10
	MOVQ         L+48(FP), CX
	MOVL         $1, R8
	SHLL         CX, R8
	DECL         R8
	VMOVD        R8, X6
	VPBROADCASTD X6, Y6
	VMOVDQU      Y6, 256(SP)
	VPBROADCASTD last+56(FP), Y6
	VMOVDQU      Y6, 288(SP)
	VMOVQ        L+48(FP), X15
	VPXOR        Y14, Y14, Y14
	VMOVDQU      0(R13), Y0
	VMOVDQU      32(R13), Y1
	VMOVDQU      64(R13), Y2
	VMOVDQU      96(R13), Y3
	MOVQ         128(R13), BX
	VPXOR        Y4, Y4, Y4
	VPXOR        Y5, Y5, Y5
	MOVQ         steps+24(FP), CX
	XORQ         AX, AX

decBlock:
	CMPQ CX, $8
	JB   decDone
	MOVQ nw+72(FP), R8
	SUBQ BX, R8
	CMPQ R8, $128
	JLT  decDone
	DROW(0)
	DROW(32)
	DROW(64)
	DROW(96)
	DROW(128)
	DROW(160)
	DROW(192)
	DROW(224)

	// Transpose: a0–a7 (Y6–Y13) interleave rows 0–1, 2–3, 4–5 and 6–7
	// by word, b0–b7 pairs of a by dword, c0–c7 pairs of b by qword: c_k
	// holds lane k's eight codes in its low half and lane k+8's in its
	// high half.
	VMOVDQU     0(SP), Y6
	VPUNPCKHWD  32(SP), Y6, Y7
	VPUNPCKLWD  32(SP), Y6, Y6
	VMOVDQU     64(SP), Y8
	VPUNPCKHWD  96(SP), Y8, Y9
	VPUNPCKLWD  96(SP), Y8, Y8
	VMOVDQU     128(SP), Y10
	VPUNPCKHWD  160(SP), Y10, Y11
	VPUNPCKLWD  160(SP), Y10, Y10
	VMOVDQU     192(SP), Y12
	VPUNPCKHWD  224(SP), Y12, Y13
	VPUNPCKLWD  224(SP), Y12, Y12
	VPUNPCKLDQ  Y8, Y6, Y14       // b0
	VPUNPCKHDQ  Y8, Y6, Y15       // b1
	VPUNPCKLDQ  Y12, Y10, Y6      // b2
	VPUNPCKHDQ  Y12, Y10, Y8      // b3
	VPUNPCKLDQ  Y9, Y7, Y10       // b4
	VPUNPCKHDQ  Y9, Y7, Y12       // b5
	VPUNPCKLDQ  Y13, Y11, Y7      // b6
	VPUNPCKHDQ  Y13, Y11, Y9      // b7
	MOVQ        R11, R8
	LEAQ        (R11)(R12*8), R9
	VPUNPCKLQDQ Y6, Y14, Y11      // c0
	DOUT(Y11, X11)
	VPUNPCKHQDQ Y6, Y14, Y13      // c1
	DOUT(Y13, X13)
	VPUNPCKLQDQ Y8, Y15, Y11      // c2
	DOUT(Y11, X11)
	VPUNPCKHQDQ Y8, Y15, Y13      // c3
	DOUT(Y13, X13)
	VPUNPCKLQDQ Y7, Y10, Y11      // c4
	DOUT(Y11, X11)
	VPUNPCKHQDQ Y7, Y10, Y13      // c5
	DOUT(Y13, X13)
	VPUNPCKLQDQ Y9, Y12, Y11      // c6
	DOUT(Y11, X11)
	VPUNPCKHQDQ Y9, Y12, Y13      // c7
	DOUT(Y13, X13)
	VPXOR       Y14, Y14, Y14
	VMOVQ       L+48(FP), X15
	ADDQ        $16, R11
	SUBQ        $8, CX
	ADDQ        $8, AX
	JMP         decBlock

decDone:
	VMOVDQU      Y0, 0(R13)
	VMOVDQU      Y1, 32(R13)
	VMOVDQU      Y2, 64(R13)
	VMOVDQU      Y3, 96(R13)
	MOVQ         BX, 128(R13)
	VEXTRACTI128 $1, Y4, X6
	VPADDD       X6, X4, X4
	VPSHUFD      $0x4e, X4, X6
	VPADDD       X6, X4, X4
	VPSHUFD      $0xb1, X4, X6
	VPADDD       X6, X4, X4
	VMOVD        X4, R8
	ADDQ         R8, 136(R13)
	VEXTRACTI128 $1, Y5, X6
	VPOR         X6, X5, X5
	VPSHUFD      $0x4e, X5, X6
	VPOR         X6, X5, X5
	VPSHUFD      $0xb1, X5, X6
	VPOR         X6, X5, X5
	VMOVD        X5, R8
	ORL          R8, 144(R13)
	VZEROUPPER
	MOVQ         AX, ret+88(FP)
	RET

// The encode kernel holds
//
//	Y0, Y1  lane states, lanes 0–7 and 8–15
//	Y2, Y3  the Sym entries of the codes before their next codes
//	Y4, Y5  each lane's index of the code before the one before its next, in codes
//	Y6, Y7  the Rcp entries of their next codes    Y8, Y9  their Slot entries
//	Y14     0xFFFF, in every lane                   Y15     lanes 8–15's low words, while lanes 0–7 code
//	SI      codes   DI  Sym   R11  Rcp   R12  Slot   DX  words   BX  words written
//	R10     ransCompress     CX  steps left         AX  8 × the block's step
//
// and R14 the frame: 0(R14) the last entry, 32(R14) 2^L and 64(R14)
// 2^L − 1, in every lane, 96(R14) the block's step count × 8, 104(R14)
// 32 − L; from 128(R14) a step's hand-over mask, lanes 8–15's in its low
// byte and 0–7's in the next, and from 384(R14) 32 bytes a step, the low
// words of lanes 8–15's states, then 0–7's: two stores a step.
//
// The gathers of a step's entries, three deep (the code before, its Sym
// entry, then Rcp and Slot), depend on the codes alone and run a step
// ahead of the states they code; they take about two thirds of the
// kernel's time. Words are handed over a block of up to 32 steps at a
// time, after its last step: stored as each step emitted them, at an
// address that waits on the running word count, they held up the gathers
// behind them, and the kernel took about 1.5× as long. Two variants
// timed faster alone but not in campaigns: gathering a block's entries in
// a pass of their own, and loading each lane's codes 16 steps at a time
// through 8×8 transposes in place of the code gather (with both,
// `nop-sz3` gained 11 % over the parent in 8 pairs, against 20 % in 10
// without).

// EGATH gathers the Rcp and Slot entries of the next codes of the eight
// lanes whose Sym entries for the codes before are in ycur, into yr and
// ys, and moves ycur and yidx one code back.
#define EGATH(ycur, yidx, yr, ys) \
	VMOVDQU    ones32<>(SB), Y10;     \
	VPGATHERDD Y10, (SI)(yidx*2), Y11; \
	VPAND      Y14, Y11, Y11;         \
	VMOVDQU    ones32<>(SB), Y10;     \
	VPGATHERDD Y10, (DI)(Y11*4), Y12; \
	VPSRLD     $10, ycur, Y11;        \
	VPAND      ctxMask<>(SB), Y12, Y13; \
	VPADDD     Y13, Y11, Y11;         \
	VPMINUD    0(R14), Y11, Y11;      \
	VMOVDQU    Y12, ycur;             \
	VMOVDQU    ones32<>(SB), Y10;     \
	VPGATHERDD Y10, (R11)(Y11*4), yr; \
	VMOVDQU    ones32<>(SB), Y10;     \
	VPGATHERDD Y10, (R12)(Y11*4), ys; \
	VPSUBD     one32<>(SB), yidx, yidx

// EUPD codes the next codes of the eight lanes whose states are in yx, by
// their Rcp entries in yr and Slot entries in ys, and leaves the mask of
// the lanes that hand a word over in R8 and their low words in X11's
// first eight; STAGE, after lanes 0–7's, stores both registers' masks and
// words for EWORDS.
#define EUPD(yx, yr, ys) \
	VPAND      Y14, ys, Y10;            \
	VPSLLD     104(R14), Y10, Y12;      \
	VPMAXUD    Y12, yx, Y12;            \
	VPCMPEQD   yx, Y12, Y12;            \
	VMOVMSKPS  Y12, R8;                 \
	VPSHUFB    lowWords<>(SB), yx, Y11; \
	VPERMQ     $0x08, Y11, Y11;         \
	VPSRLD     $16, yx, Y13;            \
	VPBLENDVB  Y12, Y13, yx, yx;        \
	VPMULUDQ   yr, yx, Y13;             \
	VPSRLQ     $32, Y13, Y13;           \
	VPSRLQ     $32, yx, Y12;            \
	VPSRLQ     $32, yr, yr;             \
	VPMULUDQ   yr, Y12, Y12;            \
	VPBLENDD   $0xaa, Y12, Y13, Y13;    \
	VPSUBD     Y13, yx, Y12;            \
	VPSRLD     $1, Y12, Y12;            \
	VPADDD     Y13, Y12, Y12;           \
	VPSUBD     one32<>(SB), Y10, Y13;   \
	VCVTDQ2PS  Y13, Y13;                \
	VPSRLD     $23, Y13, Y13;           \
	VPSUBD     bias127<>(SB), Y13, Y13; \
	VPMAXSD    zero32<>(SB), Y13, Y13;  \
	VPSRLVD    Y13, Y12, Y12;           \
	VPCMPEQD   one32<>(SB), Y10, Y13;   \
	VPAND      64(R14), Y13, Y13;       \
	VPSRLD     $16, ys, ys;             \
	VPADDD     ys, Y13, Y13;            \
	VPADDD     Y13, yx, yx;             \
	VMOVDQU    32(R14), Y13;            \
	VPSUBD     Y10, Y13, Y13;           \
	VPMULLD    Y13, Y12, Y12;           \
	VPADDD     Y12, yx, yx

// EWORDS hands over the words of one register's step: the low words at
// soff(R14)(AX*4) of the lanes in the mask byte at moff(R14)(AX*1),
// highest lane first, to words[BX].
#define EWORDS(moff, soff) \
	MOVBLZX moff(R14)(AX*1), R8;  \
	MOVQ    R8, R9;               \
	SHLQ    $4, R9;               \
	VMOVDQU soff(R14)(AX*4), X10; \
	VPSHUFB (R10)(R9*1), X10, X10; \
	VMOVDQU X10, (DX)(BX*2);      \
	POPCNTL R8, R8;               \
	ADDQ    R8, BX

// func ransEncodeKernel(e *RANSEncoder, codes *uint16, idx *[16]uint32, steps, hi, stride int, sym, rcp, slot *uint32, L, last int, words *uint16, compress *[256][16]byte)
TEXT ·ransEncodeKernel(SB), 0, $1408-104
	MOVQ         e+0(FP), R13
	LEAQ         0(SP), R14
	MOVQ         codes+8(FP), SI
	MOVQ         idx+16(FP), R8
	VMOVDQU      0(R8), Y4
	VMOVDQU      32(R8), Y5
	MOVQ         sym+48(FP), DI
	MOVQ         rcp+56(FP), R11
	MOVQ         slot+64(FP), R12
	MOVQ         words+88(FP), DX
	MOVQ         compress+96(FP), R10
	VPBROADCASTD last+80(FP), Y10
	VMOVDQU      Y10, 0(R14)
	MOVQ         L+72(FP), CX
	MOVL         $1, R8
	SHLL         CX, R8
	VMOVD        R8, X10
	VPBROADCASTD X10, Y10
	VMOVDQU      Y10, 32(R14)
	DECL         R8
	VMOVD        R8, X10
	VPBROADCASTD X10, Y10
	VMOVDQU      Y10, 64(R14)
	MOVQ         $32, R8
	SUBQ         CX, R8
	MOVQ         R8, 104(R14)
	MOVL         $0xffff, R8
	VMOVD        R8, X14
	VPBROADCASTD X14, Y14
	VMOVDQU      0(R13), Y0
	VMOVDQU      32(R13), Y1
	VMOVDQU      64(R13), Y2
	VMOVDQU      96(R13), Y3
	MOVQ         128(R13), BX
	MOVQ         steps+24(FP), CX
	TESTQ        CX, CX
	JZ           encDone
	EGATH(Y3, Y5, Y7, Y9)
	EGATH(Y2, Y4, Y6, Y8)

encBlock:
	MOVQ    $32, R8
	CMPQ    CX, R8
	CMOVQLT CX, R8
	SHLQ    $3, R8
	MOVQ    R8, 96(R14)
	XORQ    AX, AX

encStep:
	EUPD(Y1, Y7, Y9)
	MOVL        R8, R9
	VMOVDQU     Y11, Y15
	EUPD(Y0, Y6, Y8)
	SHLL        $8, R8
	ORL         R9, R8
	MOVL        R8, 128(R14)(AX*1)
	VINSERTI128 $1, X11, Y15, Y15
	VMOVDQU     Y15, 384(R14)(AX*4)
	ADDQ $8, AX
	DECQ CX
	JZ   encLast
	EGATH(Y3, Y5, Y7, Y9)
	EGATH(Y2, Y4, Y6, Y8)
	CMPQ AX, 96(R14)
	JB   encStep
	XORQ AX, AX

encWords:
	EWORDS(128, 384)
	EWORDS(129, 400)
	ADDQ $8, AX
	CMPQ AX, 96(R14)
	JB   encWords
	JMP  encBlock

encLast:
	MOVQ AX, 96(R14)
	XORQ AX, AX

encLastWords:
	EWORDS(128, 384)
	EWORDS(129, 400)
	ADDQ $8, AX
	CMPQ AX, 96(R14)
	JB   encLastWords

encDone:
	VMOVDQU Y0, 0(R13)
	VMOVDQU Y1, 32(R13)
	VMOVDQU Y2, 64(R13)
	VMOVDQU Y3, 96(R13)
	MOVQ    BX, 128(R13)
	VZEROUPPER
	RET
