package simd

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The generic loops: the behaviour every kernel must reproduce, and the
// implementation wherever no kernel runs.

// extremesGeneric is Extremes four values at a time: v−v is +0 for finite v
// and NaN for NaN or ±Inf, so one comparison of the group's sum tests all
// four.
func extremesGeneric(block []float64) (lo, hi float64) {
	lo, hi = block[0], block[0]
	i := 0
	for ; i+4 <= len(block); i += 4 {
		q := block[i : i+4 : i+4]
		if (q[0]-q[0])+(q[1]-q[1])+(q[2]-q[2])+(q[3]-q[3]) != 0 {
			return math.NaN(), math.NaN()
		}
		if q[0] < lo {
			lo = q[0]
		}
		if q[0] > hi {
			hi = q[0]
		}
		if q[1] < lo {
			lo = q[1]
		}
		if q[1] > hi {
			hi = q[1]
		}
		if q[2] < lo {
			lo = q[2]
		}
		if q[2] > hi {
			hi = q[2]
		}
		if q[3] < lo {
			lo = q[3]
		}
		if q[3] > hi {
			hi = q[3]
		}
	}
	for _, v := range block[i:] {
		if v-v != 0 {
			return math.NaN(), math.NaN()
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// rangeGeneric is Range with four lanes that each keep their own extremes
// over every fourth value, which splits the one compare-and-select chain
// per extreme into four independent ones. NaN fails both comparisons and
// is skipped. Which lane's copy of an extreme wins can only differ in the
// sign of a zero, and the fixed lane order below settles it.
func rangeGeneric(data []float64) float64 {
	lo0, lo1, lo2, lo3 := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
	hi0, hi1, hi2, hi3 := math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)
	i := 0
	for ; i+4 <= len(data); i += 4 {
		q := data[i : i+4 : i+4]
		if q[0] < lo0 {
			lo0 = q[0]
		}
		if q[0] > hi0 {
			hi0 = q[0]
		}
		if q[1] < lo1 {
			lo1 = q[1]
		}
		if q[1] > hi1 {
			hi1 = q[1]
		}
		if q[2] < lo2 {
			lo2 = q[2]
		}
		if q[2] > hi2 {
			hi2 = q[2]
		}
		if q[3] < lo3 {
			lo3 = q[3]
		}
		if q[3] > hi3 {
			hi3 = q[3]
		}
	}
	for _, v := range data[i:] {
		if v < lo0 {
			lo0 = v
		}
		if v > hi0 {
			hi0 = v
		}
	}
	lo, hi := lo0, hi0
	for _, v := range [...]float64{lo1, lo2, lo3} {
		if v < lo {
			lo = v
		}
	}
	for _, v := range [...]float64{hi1, hi2, hi3} {
		if v > hi {
			hi = v
		}
	}
	if lo > hi {
		return 0
	}
	return hi - lo
}

// maxAbsDiffGeneric is MaxAbsDiff; r is exactly as long as o. NaN
// differences never win a comparison, so the maximum does not depend on
// the visiting order.
func maxAbsDiffGeneric(m float64, o, r []float64) float64 {
	r = r[:len(o)]
	for i, v := range o {
		if d := math.Abs(v - r[i]); d > m {
			m = d
		}
	}
	return m
}

// quantizeGeneric is Quantize; dst is exactly as long as block. Offsets
// are in [0, 2^40]: int64 truncates them as uint64 would, branch-free.
func quantizeGeneric(dst []uint64, block []float64, lo, step, eb float64) bool {
	dst = dst[:len(block)]
	ok := true
	for i, v := range block {
		k := uint64(int64((v-lo)/step + 0.5))
		dst[i] = k
		ok = ok && math.Abs(lo+float64(float64(int64(k))*step)-v) <= eb
	}
	return ok
}

// unpackGeneric is Unpack. Each unaligned 8-byte big-endian window, read at
// its first code's first byte, holds ⌊57/nb⌋ codes (a shift of at most 7
// plus 57 bits fits the word), taken last to first from its low end. src
// may run on past the codes, as szx's stream body does; only codes whose
// window would cross src's end read a zero-padded copy of it.
func unpackGeneric(dst []float64, src []byte, nb uint, base, step float64) {
	per := int(57 / nb)
	mask := uint64(1)<<nb - 1
	var pos uint // bit offset of the next window's first code
	for len(dst) > 0 {
		var w uint64
		if at := int(pos >> 3); at+8 <= len(src) {
			w = binary.BigEndian.Uint64(src[at:])
		} else {
			var win [8]byte
			copy(win[:], src[at:])
			w = binary.BigEndian.Uint64(win[:])
		}
		n := min(per, len(dst))
		w = w << (pos & 7) >> ((64 - uint(n)*nb) & 63) // n codes, the last lowest
		for j := n - 1; j >= 0; j-- {
			dst[j] = base + float64(float64(int64(w&mask))*step)
			w >>= nb & 63
		}
		dst = dst[n:]
		pos += uint(n) * nb
	}
}

// interpEncodeGeneric is Interp.Encode.
func interpEncodeGeneric(k *Interp, r Run) int {
	codes, recon, data := k.codes, k.recon, k.data
	eb, radius := k.q.eb, int(k.q.radius)
	eb2, radF := 2*eb, float64(radius)
	i, pos := r.I, r.Pos
	for j := 0; j < r.N; j++ {
		pred := Predict(recon, i, r.Near, r.St)
		v := data[i]
		d := (v - pred) / eb2
		if !(d > -radF && d < radF) {
			return j
		}
		// quant.Round: halves away from zero, every step exact.
		t := int(d)
		f := d - float64(t)
		bin := t + int(f+f)
		rec := pred + float64(float64(bin)*eb2)
		code := bin + radius
		if e := rec - v; bin >= radius || bin <= -radius || code >= wideMarker || e > eb || e < -eb {
			return j
		}
		codes[pos] = uint16(code)
		recon[i] = rec
		i += r.Stride
		pos += r.PStep
	}
	return r.N
}

// interpDecodeGeneric is Interp.Decode.
func interpDecodeGeneric(k *Interp, r Run) int {
	codes, recon := k.codes, k.recon
	eb2, radius := 2*k.q.eb, int(k.q.radius)
	i, pos := r.I, r.Pos
	for j := 0; j < r.N; j++ {
		code := codes[pos]
		if code == escapeCode || code == wideMarker {
			return j
		}
		recon[i] = Predict(recon, i, r.Near, r.St) + float64(float64(int(code)-radius)*eb2)
		i += r.Stride
		pos += r.PStep
	}
	return r.N
}

// addCosGeneric is AddCos; dst is exactly as long as t. The product is
// converted explicitly, so gc rounds it before the add on every
// architecture instead of fusing the two on arm64.
func addCosGeneric(dst, t []float64, base, amp float64) {
	dst = dst[:len(t)]
	for i, v := range t {
		dst[i] += float64(amp * math.Cos(base+v))
	}
}

// ransDecodeGeneric is RANSDecoder.Decode. The lanes' state lives in
// locals for the call: the compiler cannot tell d's fields from out's and
// w's elements, and would reload and store them around every code.
func ransDecodeGeneric(d *RANSDecoder, out []uint16, m, i, steps int, t *RANSDecTable, w []byte) {
	L := t.L & 31
	mask := uint32(1)<<L - 1
	last := uint32(len(t.Sym)>>L - 1)
	slot, sym := t.Slot, t.Sym
	nw := len(w) / 2
	x, ctx := d.X, d.Ctx
	pos, esc, bad := d.Pos, d.Esc, d.Bad
	for j := i; j < i+steps; j++ {
		for k := range x {
			e := min(ctx[k], last)<<L | x[k]&mask
			a, b := slot[e], sym[e]
			v := (a&0xFFFF)*(x[k]>>L) + a>>16
			if v < 1<<16 {
				word := uint32(0)
				if pos < nw {
					word = uint32(binary.LittleEndian.Uint16(w[2*pos:]))
				}
				v = v<<16 | word
				pos++
			}
			out[k*m+j] = uint16(b)
			esc += int(b >> 16 & 1)
			bad |= b
			ctx[k], x[k] = b>>18&1023, v
		}
	}
	d.X, d.Ctx = x, ctx
	d.Pos, d.Esc, d.Bad = pos, esc, bad
}

// ransEncodeGeneric is RANSEncoder.Encode, its state in locals as in
// ransDecodeGeneric, and RANSPut written out in the loop, which the
// compiler does not inline.
func ransEncodeGeneric(e *RANSEncoder, codes []uint16, m, lo, hi int, t *RANSEncTable, words []uint16) {
	last := uint32(len(t.Rcp) - 1)
	sym, rcp, slot := t.Sym, t.Rcp, t.Slot
	size, up := uint32(1)<<(t.L&31), (32-t.L)&31
	x, cur, n := e.X, e.Cur, e.N
	for j := hi - 1; j >= lo; j-- {
		for k := RANSLanes - 1; k >= 0; k-- {
			prev := sym[codes[k*m+j-1]]
			i := min(cur[k]>>10+prev&1023, last)
			v, s := x[k], slot[i]
			f := s & 0xFFFF
			if v >= f<<up {
				words[n] = uint16(v)
				n++
				v >>= 16
			}
			t := uint32(uint64(v) * uint64(rcp[i]) >> 32)
			q := (t + (v-t)>>1) >> ((bits.Len32((f-1)|1) - 1) & 31)
			bias := s >> 16
			if f == 1 {
				bias += size - 1
			}
			x[k], cur[k] = v+bias+q*(size-f), prev
		}
	}
	e.X, e.Cur, e.N = x, cur, n
}
