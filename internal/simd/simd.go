// Package simd holds the eight loops that szx's and sz3's encoders and
// decoders, the bound audit and datagen's spectral fields spend their
// time in, each as a generic Go loop and, on amd64 CPUs with AVX2, an
// assembly kernel that runs four values an instruction:
//
//   - Extremes is szx's per-block extremes-and-finite scan;
//   - Range is the field value range every relative bound resolves from;
//   - MaxAbsDiff is the L∞ distance of the destination's bound audit;
//   - Quantize is szx's offset quantizer with its post-check, over a block;
//   - Unpack is szx's packed-block decoder, for widths 1 ≤ nb ≤ 40;
//   - Interp.Encode predicts and quantizes a run of an sz3 interpolation
//     pass, at any stride, until a point needs an escape or a wide code;
//   - Interp.Decode predicts and recovers such a run from its codes;
//   - AddCos adds amp·cos(base + t[i]) into a row, math.Cos's bits: the
//     kernel is math.cos's small-argument path four lanes at a time, and
//     a group of four with an argument of magnitude 2^29 or more, NaN or
//     ±Inf runs math.Cos.
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
// inside src; for the interp runs, the points after the last whole group
// of four, and the points of the group a kernel stopped in, up to the one
// it stopped for, and for AddCos the group it stopped at).
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

// The two codes of sz3's code stream that are not a quantization bin:
// quant.EscapeCode, whose value is a literal, and huffman.WideEscape,
// whose code sits in the wide side lane.
const (
	escapeCode = 0
	wideMarker = 0xFFFF
)

// Stencil is how an sz3 interpolation run predicts its points from their
// reconstructed neighbours along the pass axis.
type Stencil uint8

const (
	// Left copies the neighbour at −near: the point has no right one.
	Left Stencil = iota
	// Linear is the midpoint of the neighbours at ±near.
	Linear
	// Cubic is the 4-point midpoint formula (−1, 9, 9, −1)/16 over the
	// neighbours at −3·near, −near, +near and +3·near.
	Cubic
)

// Run is one run of an sz3 interpolation pass: N points at flat indices
// I + j·Stride, each predicted with stencil St from its neighbours at
// ±Near and ±3·Near, whose codes sit at Pos + j·PStep of the code stream.
// In sz3 no point of a run is a neighbour of another (pass independence).
// The kernels read a group's neighbours before they write any of its
// points, where the generic loops go point by point, so a run that has a
// neighbour among the three points before one runs the generic loop.
type Run struct {
	I, Stride, Near int
	Pos, PStep, N   int
	St              Stencil
}

// Skip returns the run after its first j points.
func (r Run) Skip(j int) Run {
	r.I += j * r.Stride
	r.Pos += j * r.PStep
	r.N -= j
	return r
}

// Predict returns the prediction for the point at flat index i from its
// reconstructed neighbours at ±near and ±3·near; a stencil past Cubic
// predicts as Left. Each product is rounded
// before it is added — never fused — so the prediction has the same bits
// on every architecture. The cubic sum starts 9b − a, which is the
// formula's −a + 9b exactly.
func Predict(recon []float64, i, near int, st Stencil) float64 {
	switch st {
	case Linear:
		return (recon[i-near] + recon[i+near]) / 2
	case Cubic:
		a, b, c, d := recon[i-3*near], recon[i-near], recon[i+near], recon[i+3*near]
		return (float64(9*b) - a + float64(9*c) - d) / 16
	}
	return recon[i-near]
}

// Interp is what the interp kernels code runs against: the code stream,
// the reconstruction, the original values (encode only) and the quantizer
// at bound eb and radius. The run loops take it by pointer, so a call
// passes two arguments however many slices the kernels read.
type Interp struct {
	codes       []uint16
	recon, data []float64
	q           interpQuant
	vector      bool // the CPU runs the kernels, and the radius fits their lanes
}

// interpQuant is the quantizer as the kernels read it, at the byte offsets
// TestInterpQuantLayout pins.
type interpQuant struct {
	eb2, eb, negEB float64
	negRadF, binHi float64 // a plain bin b has −radius < b < min(radius, 0xFFFF − radius)
	radius         int64   // the lanes read its low 32 bits
}

// NewInterp returns the state for coding runs into codes and recon from
// data, which must not overlap recon (nil to decode), with quant.Quantize
// at bound eb and radius.
func NewInterp(codes []uint16, recon, data []float64, eb float64, radius int) Interp {
	return Interp{
		codes: codes, recon: recon, data: data,
		q: interpQuant{
			eb2: 2 * eb, eb: eb, negEB: -eb,
			negRadF: -float64(radius), binHi: float64(min(radius, wideMarker-radius)),
			radius: int64(radius),
		},
		vector: haveAVX2 && radius > 0 && radius < 1<<30,
	}
}

// Encode predicts and quantizes run r's points in order, writing each
// code to the code stream and the value it decodes to into the
// reconstruction, until a point needs more than a plain code — an escape,
// a wide code of 0xFFFF or more, or a value whose bin decodes past the
// bound — and returns how many points it coded; that point and the rest
// are left to the caller. The quantizer is quant.Quantize: bin =
// round((v − pred)/2eb), halves away from zero, and rec = pred + bin·2eb,
// the product rounded before the sum.
func (k *Interp) Encode(r Run) int {
	g := 0
	if k.vector && k.vectorizes(r, len(k.data)) {
		g = 4 * interpEncodeAVX2(k, r)
	}
	return g + interpEncodeGeneric(k, r.Skip(g))
}

// Decode predicts run r's points and recovers each from its code as
// pred + (code − radius)·2eb, the product rounded before the sum, until it
// meets an escape (0) or a wide marker (0xFFFF), and returns how many
// points it recovered; that point and the rest are left to the caller.
func (k *Interp) Decode(r Run) int {
	g := 0
	if k.vector && k.vectorizes(r, len(k.recon)) {
		g = 4 * interpDecodeAVX2(k, r)
	}
	return g + interpDecodeGeneric(k, r.Skip(g))
}

// vectorizes reports whether the kernels can take r: one group of four
// points at least, a stencil they know, every index any point reads or
// writes inside recon,
// codes and the first nData values of data, and no neighbour of a point
// within the three points before it (a run that breaks pass independence
// there would read a group's own writes). Any other run goes to the
// generic loop, which panics where it indexes out of range. Steps and
// counts are capped at 2^31, so no product below overflows.
func (k *Interp) vectorizes(r Run, nData int) bool {
	const limit = 1 << 31
	if r.N < 4 || r.St > Cubic || uint(r.N) > limit || uint(r.Stride-1) >= limit || uint(r.Near) > limit ||
		uint(r.PStep) > limit || uint(r.I) >= uint(len(k.recon)) || uint(r.Pos) >= uint(len(k.codes)) {
		return false
	}
	back, fwd := r.Near, 0
	switch r.St {
	case Linear:
		fwd = r.Near
	case Cubic:
		back, fwd = 3*r.Near, 3*r.Near
	}
	s := r.Stride
	for _, o := range [...]int{r.Near, back} {
		if o == s || o == 2*s || o == 3*s {
			return false
		}
	}
	last := r.I + (r.N-1)*s
	return r.I >= back && last+fwd < len(k.recon) && last < nData && r.Pos+(r.N-1)*r.PStep < len(k.codes)
}

// AddCos adds amp·cos(base + t[i]) to dst[i] for each of t's indices, the
// product rounded before the sum, never fused; dst is at least as long as
// t. Each cosine is math.Cos's, bit for bit. The kernel runs math.cos's
// small-argument path, so a group of four with a lane whose |base + t[i]|
// is 2^29 or more, NaN or ±Inf runs the generic loop, which calls
// math.Cos.
func AddCos(dst, t []float64, base, amp float64) {
	dst = dst[:len(t)]
	if haveAVX2 {
		for len(t) >= 4 {
			g := 4 * addCosAVX2(dst, t, base, amp)
			if g+4 > len(t) {
				dst, t = dst[g:], t[g:]
				break
			}
			addCosGeneric(dst[g:g+4], t[g:g+4], base, amp)
			dst, t = dst[g+4:], t[g+4:]
		}
	}
	addCosGeneric(dst, t, base, amp)
}
