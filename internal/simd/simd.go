// Package simd holds the block loops that szx's encoder and decoder and
// the bound audit spend their time in, each as a generic Go loop and, on
// amd64 CPUs with AVX2, an assembly kernel that runs four values an
// instruction:
//
//   - Extremes is szx's per-block extremes-and-finite scan;
//   - Range is the field value range every relative bound resolves from;
//   - MaxAbsDiff is the L∞ distance of the destination's bound audit;
//   - Quantize is szx's offset quantizer with its post-check, over a block;
//   - Unpack is szx's packed-block decoder, for widths 1 ≤ nb ≤ 40.
//
// Every kernel returns exactly what its generic loop returns, bit for bit,
// for every input inside its contract: the generic loops are the
// specification and the test oracle (FuzzKernelsMatchGeneric), and a
// stream, archive or digest never depends on which implementation ran.
// The implementation is chosen once, at start-up, from CPUID; other
// architectures, CPUs without AVX2 and builds tagged purego run the
// generic loops.
//
// Two places where vector lanes cannot follow the generic loops' index
// order are closed in Go around the kernels: a zero extreme, whose sign the
// generic loop takes from the first of the equal ±0 values, is recomputed
// by the generic loop, and the len % 4 tail of every slice runs scalar
// (for Unpack, the codes after the last group of eight whose reads end
// inside src).
package simd

import "math"

// Extremes returns the least and greatest value of a non-empty block in
// one pass, or NaN for both when the block holds a NaN or ±Inf. The
// extremes update in index order with strict comparisons, so the first of
// equal values wins: of +0 and −0, the one that comes first.
func Extremes(block []float64) (lo, hi float64) {
	n := len(block) &^ 3
	if !haveAVX2 || n == 0 {
		return extremesGeneric(block)
	}
	lo, hi, nonFinite := minMaxAVX2(block[:n], block[0], block[0])
	for _, v := range block[n:] {
		nonFinite += v - v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if nonFinite != 0 {
		return math.NaN(), math.NaN()
	}
	// A zero extreme has the sign of the block's first zero, which the
	// lanes cannot tell.
	if lo == 0 || hi == 0 {
		return extremesGeneric(block)
	}
	return lo, hi
}

// Range returns max − min over the non-NaN values of data, or 0 when there
// are none: the Range metrics.ComputeRange reports, bit for bit.
func Range(data []float64) float64 {
	n := len(data) &^ 3
	if !haveAVX2 || n == 0 {
		return rangeGeneric(data)
	}
	lo, hi, _ := minMaxAVX2(data[:n], math.Inf(1), math.Inf(-1))
	for _, v := range data[n:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// The sign of a zero extreme shows in hi − lo only when both extremes
	// are zero. Then every non-NaN value is a zero, each lane's lo and hi
	// are its first zero, and the min and max reductions break ties alike,
	// so lo and hi are the same zero and hi − lo is +0, as in the generic
	// loop.
	if lo > hi {
		return 0
	}
	return hi - lo
}

// MaxAbsDiff returns the largest of m and |o[i] − r[i]| over o's indices;
// r is at least as long as o. A NaN difference never wins a comparison, so
// it is skipped.
func MaxAbsDiff(m float64, o, r []float64) float64 {
	r = r[:len(o)]
	n := len(o) &^ 3
	if !haveAVX2 || n == 0 {
		return maxAbsDiffGeneric(m, o, r)
	}
	return maxAbsDiffGeneric(maxAbsDiffAVX2(m, o[:n], r[:n]), o[n:], r[n:])
}

// Quantize writes each value's offset from lo in steps of step to dst —
// uint64(int64((v−lo)/step + 0.5)) — and reports whether every offset
// decodes, as lo + k·step, to within eb of its value. dst is at least as
// long as block, and every value v of the block is finite with lo ≤ v and
// (v−lo)/step ≤ 2^40 — what szx's packed blocks satisfy. Outside that
// domain the AVX2 kernel's offsets and verdict may part from the generic
// loop's.
func Quantize(dst []uint64, block []float64, lo, step, eb float64) bool {
	dst = dst[:len(block)]
	n := len(block) &^ 3
	if !haveAVX2 || n == 0 {
		return quantizeGeneric(dst, block, lo, step, eb)
	}
	ok := quantizeAVX2(dst[:n], block[:n], lo, step, eb)
	return quantizeGeneric(dst[n:], block[n:], lo, step, eb) && ok
}

// Unpack decodes len(dst) codes of nb bits (1 ≤ nb ≤ 40), packed MSB-first
// from the start of src, as base + k·step: the product rounded, then the
// sum, never fused. src holds at least the ⌈len(dst)·nb/8⌉ bytes the codes
// fill and may run on past them; nothing past src is read.
func Unpack(dst []float64, src []byte, nb uint, base, step float64) {
	if haveAVX2 {
		g := unpackAVX2(dst, src, nb, base, step)
		dst, src = dst[8*g:], src[g*int(nb):]
	}
	unpackGeneric(dst, src, nb, base, step)
}
