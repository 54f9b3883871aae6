// Package simd holds the ten loops that szx's and sz3's encoders and
// decoders, sz3's entropy coder, the bound audit and datagen's spectral
// fields spend their time in, each as a generic Go loop and, on amd64
// CPUs with AVX2, an assembly kernel that runs four values an instruction,
// or eight for the rANS coders:
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
//     ±Inf runs math.Cos;
//   - RANSDecoder.Decode decodes steps of sz3 version 3's 16 rANS lanes
//     of 32-bit state, eight steps at a time, a VPGATHERDD of each table
//     and a VPERMD of the words each register's refills read;
//   - RANSEncoder.Encode codes them, last step first, the table entries
//     gathered a step ahead of the states.
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
// it stopped for; for AddCos the group it stopped at; and for the rANS
// decoder the steps after the last whole block of eight).
package simd

import (
	"math"
	"math/bits"
	"sync/atomic"
)

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

// HasKernels reports whether this build and CPU run the AVX2 kernels:
// false under the purego tag, off amd64 and on a CPU without AVX2, where
// every call runs its generic loop.
func HasKernels() bool { return haveAVX2 }

// KernelCounts adds up the values the interp and rANS kernels take — the
// points each interp call hands its kernel, the codes of the steps each
// rANS call hands its kernel — from the counts the calls already compute.
type KernelCounts struct {
	InterpEncode, InterpDecode, RANSEncode, RANSDecode atomic.Int64
}

// Counting is the test hook that holds tests to how much of a workload
// the kernels take: while it points at a KernelCounts, every call adds its
// kernel's share to it. Shipping code leaves it nil.
var Counting atomic.Pointer[KernelCounts]

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
		if c := Counting.Load(); c != nil {
			c.InterpEncode.Add(int64(g))
		}
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
		if c := Counting.Load(); c != nil {
			c.InterpDecode.Add(int64(g))
		}
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

// RANSLanes is the number of lanes an sz3 version 3 rANS section codes
// its stream in: lane k holds the k-th of 16 contiguous runs of the code
// stream, and each step of the coders takes one code of every lane.
const RANSLanes = 16

// ransDecodeSlack is how many words the decode kernel needs left before
// each block of eight steps: a step reads up to 16.
const ransDecodeSlack = 128

// RANSDecoder is the state of the 16 lanes of a rANS decode between calls
// of Decode. A lane's state lives in [2^16, 2^32) between codes.
type RANSDecoder struct {
	X   [RANSLanes]uint32 // the lanes' states
	Ctx [RANSLanes]uint32 // the context each lane's next code is decoded in
	// Pos counts the words read. A lane that needs a word past the last
	// one takes a zero and still counts it, so Pos past the word count
	// means the section ran out.
	Pos int
	Esc int    // escape codes decoded
	Bad uint32 // the OR of every Sym entry decoded
}

// RANSDecTable is a rANS decode table of 2^L slots a context, 1 ≤ L ≤ 16:
// slot i of context c sits at c<<L | i. Slot holds the slot's symbol's
// frequency f and the slot's offset o from the symbol's first slot,
// f | o<<16; Sym holds the symbol's code, its escape and bad flags and the
// context it sets up for the next code of its lane, code | esc<<16 |
// bad<<17 | ctx<<18. Slot and Sym are equally long, a whole number of
// contexts, and below 2^31 entries; a context past the last one reads the
// last.
type RANSDecTable struct {
	Slot, Sym []uint32
	L         uint
}

// Decode decodes steps [i, i+steps) of the 16 lanes of out, which hold
// m codes each, lane k at out[k·m:]: each step looks up every lane's state
// in the table of its context, lanes 0 to 15, writes the slot's code,
// steps the state — x = f·(x>>L) + o — and refills a state that falls
// below 2^16 with the next little-endian 16-bit word of w, x = x<<16 |
// word. The AVX2 kernel takes eight steps at a time, each block while
// ransDecodeSlack words are left to load from; the last blocks load from a
// copy of the section's last words followed by zeros, which is what the
// generic loop reads past the end.
func (d *RANSDecoder) Decode(out []uint16, m, i, steps int, t *RANSDecTable, w []byte) {
	out = out[:RANSLanes*m]
	if i < 0 || steps < 0 || i+steps > m {
		panic("simd: rANS steps outside the lanes")
	}
	t.check()
	if haveAVX2 && steps >= 8 && RANSLanes*m < 1<<31 {
		g := ransDecodeAVX2(d, out, m, i, steps&^7, t, w)
		if rem := len(w)/2 - d.Pos; g < steps&^7 && rem >= 0 && rem < ransDecodeSlack {
			// The words ran short of the kernel's slack: the rest of them,
			// followed by zeros, which are what the generic loop reads past
			// the end.
			var pad [2 * 2 * ransDecodeSlack]byte
			copy(pad[:], w[2*d.Pos:len(w)&^1])
			pos := d.Pos
			d.Pos = 0
			g += ransDecodeAVX2(d, out, m, i+g, steps&^7-g, t, pad[:])
			d.Pos += pos
		}
		if c := Counting.Load(); c != nil {
			c.RANSDecode.Add(int64(RANSLanes * g))
		}
		i, steps = i+g, steps-g
	}
	ransDecodeGeneric(d, out, m, i, steps, t, w)
}

// check panics unless t is a table Decode can index.
func (t *RANSDecTable) check() {
	n := len(t.Sym)
	if t.L < 1 || t.L > 16 || len(t.Slot) != n || n == 0 || n&(1<<t.L-1) != 0 || n >= 1<<31 {
		panic("simd: malformed rANS decode table")
	}
}

// RANSEncoder is the state of the 16 lanes of a rANS encode between calls
// of Encode, which runs the steps backwards: the words it writes are in
// the reverse of the order the decoder reads them.
type RANSEncoder struct {
	X [RANSLanes]uint32 // the lanes' states
	// Cur is the Sym entry of the code each lane codes next.
	Cur [RANSLanes]uint32
	N   int // words written
}

// RANSEncTable is what a rANS encode looks symbols up in. Sym, by code
// (1<<16 entries), holds the first index of the code's entries in Rcp and
// Slot and the context it sets up for the code after it, first<<10 | ctx;
// a code coded in context c takes entry first + c, and an entry past the
// last one reads the last. Slot holds the entry's frequency f and its
// first slot s, f | s<<16, in a table of 2^L slots, 1 ≤ L ≤ 16, whose
// frequencies sum below 2^L; Rcp holds RANSRcp(f). Rcp and Slot are
// equally long, and below 2^31 entries.
type RANSEncTable struct {
	Sym       []uint32
	Rcp, Slot []uint32
	L         uint
}

// Encode codes steps hi−1 down to lo ≥ 1 of the 16 lanes of codes, which
// hold m codes each, lane k at codes[k·m:]: each step codes every lane's
// code, lanes 15 to 0, in the context the code before it in its lane sets
// up, first handing the state's low word over to words[N] when coding
// would take it past 2^32. words holds 16 words a step, and 16 more, past
// N. The AVX2 kernel writes up to 8 words past the last one it keeps.
func (e *RANSEncoder) Encode(codes []uint16, m, lo, hi int, t *RANSEncTable, words []uint16) {
	codes = codes[:RANSLanes*m]
	if lo < 1 || hi > m || len(t.Sym) < 1<<16 || len(t.Rcp) != len(t.Slot) || len(t.Rcp) == 0 ||
		len(t.Rcp) >= 1<<31 || t.L < 1 || t.L > 16 {
		panic("simd: malformed rANS encode")
	}
	if lo >= hi {
		return
	}
	if len(words)-e.N < RANSLanes*(hi-lo+1) {
		panic("simd: rANS word buffer short")
	}
	if haveAVX2 && RANSLanes*m < 1<<31 {
		ransEncodeAVX2(e, codes, m, lo, hi, t, words)
		if c := Counting.Load(); c != nil {
			c.RANSEncode.Add(int64(RANSLanes * (hi - lo)))
		}
		return
	}
	ransEncodeGeneric(e, codes, m, lo, hi, t, words)
}

// RANSPut codes a symbol whose Slot entry is slot, frequency f ≥ 1, and
// whose reciprocal is rcp into lane state x, in a table of 2^L slots: when
// coding would take the state past 2^32 it first hands over its low word,
// which RANSPut returns with emit set. The quotient x/f is the
// multiply-and-shift of Granlund and Montgomery, exact for every 32-bit x:
// t = ⌊x·rcp/2^32⌋, then ⌊(t + ⌊(x−t)/2⌋)/2^sh⌋ with sh = ⌈log2 f⌉ − 1
// (0 for f ≤ 2; the kernel takes it from the exponent of float32(f−1));
// for f = 1, rcp = 2^32−1 makes the quotient x−1, which the bias makes up
// for.
func RANSPut(x, rcp, slot uint32, L uint) (uint32, uint16, bool) {
	f := slot & 0xFFFF
	w, emit := uint16(x), x >= f<<(32-L)
	if emit {
		x >>= 16
	}
	t := uint32(uint64(x) * uint64(rcp) >> 32)
	q := (t + (x-t)>>1) >> (bits.Len32((f-1)|1) - 1)
	bias := slot >> 16
	if f == 1 {
		bias += 1<<L - 1
	}
	return x + bias + q*(1<<L-f), w, emit
}

// RANSRcp returns the reciprocal RANSPut divides by frequency f ≥ 1 with:
// ⌈2^(32+l)/f⌉ − 2^32 for l = ⌈log2 f⌉, and 2^32−1 for f = 1.
func RANSRcp(f uint32) uint32 {
	if f == 1 {
		return 1<<32 - 1
	}
	l := uint(bits.Len32(f - 1))
	return uint32((uint64(1)<<(32+l)+uint64(f)-1)/uint64(f) - 1<<32)
}
