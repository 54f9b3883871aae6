package simd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// sameBits reports whether a and b are the same float64, bit for bit (NaN
// payloads and the sign of zero included).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkKernels fails t unless every exported kernel returns exactly what its
// generic loop returns on x, with y the reconstruction MaxAbsDiff compares
// x to, m its starting maximum, and eb the bound Quantize runs at (when x
// is inside its domain for that bound).
func checkKernels(t *testing.T, x, y []float64, m, eb float64) {
	t.Helper()
	if len(x) > 0 {
		gl, gh := extremesGeneric(x)
		if lo, hi := Extremes(x); !sameBits(lo, gl) || !sameBits(hi, gh) {
			t.Fatalf("Extremes(%v) = %v, %v; generic %v, %v", x, lo, hi, gl, gh)
		}
	}
	if got, want := Range(x), rangeGeneric(x); !sameBits(got, want) {
		t.Fatalf("Range(%v) = %v; generic %v", x, got, want)
	}
	if got, want := MaxAbsDiff(m, x, y), maxAbsDiffGeneric(m, x, y[:len(x)]); !sameBits(got, want) {
		t.Fatalf("MaxAbsDiff(%v, %v, %v) = %v; generic %v", m, x, y, got, want)
	}
	if lo, ok := quantizeDomain(x, eb); ok {
		got, want := make([]uint64, len(x)), make([]uint64, len(x))
		gotOK, wantOK := Quantize(got, x, lo, 2*eb, eb), quantizeGeneric(want, x, lo, 2*eb, eb)
		if gotOK != wantOK {
			t.Fatalf("Quantize(%v, lo %v, eb %v) passed = %v; generic %v", x, lo, eb, gotOK, wantOK)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Quantize(%v, lo %v, eb %v): offset %d is %d; generic %d", x, lo, eb, i, got[i], want[i])
			}
		}
	}
}

// quantizeDomain returns x's least value, the lo szx quantizes a packed
// block from, and whether x is a block szx would pack at bound eb: finite,
// non-empty, with its offsets within 2^40 steps.
func quantizeDomain(x []float64, eb float64) (float64, bool) {
	if len(x) == 0 || !(eb > 0) || math.IsInf(eb, 0) {
		return 0, false
	}
	lo, hi := extremesGeneric(x)
	if lo != lo {
		return 0, false
	}
	w := (hi - lo) / (2 * eb)
	return lo, w <= 1<<40
}

// fuzzValues decodes raw three bytes a value: a class byte, whose top bit
// is the sign, and 16 bits of payload. The classes cover NaN payloads,
// ±Inf, ±0, subnormals, magnitudes near 1e±300 and small values on a
// coarse grid, where ties are common.
func fuzzValues(raw []byte) []float64 {
	var out []float64
	for ; len(raw) >= 3; raw = raw[3:] {
		u := uint64(binary.LittleEndian.Uint16(raw[1:3]))
		var v float64
		switch raw[0] & 7 {
		case 0:
			v = math.Float64frombits(0x7ff0000000000001 | u<<32) // quiet and signalling NaNs
		case 1:
			v = math.Inf(1)
		case 2:
			v = 0
		case 3:
			v = math.Float64frombits(u + 1) // subnormal
		case 4:
			v = 1e300 * (1 + float64(u)/65536)
		case 5:
			v = 1e-300 * (1 + float64(u)/65536)
		case 6:
			v = float64(u%64) / 8
		default:
			v = (float64(u) - 32768) / 100
		}
		if raw[0]&0x80 != 0 {
			v = math.Copysign(v, -1)
		}
		out = append(out, v)
	}
	return out
}

// FuzzKernelsMatchGeneric: every kernel returns exactly its generic loop's
// result — the same bits — on slices of 0–70 values starting 0–7 values
// into their backing array, built from NaN payloads, ±Inf, ±0, subnormals,
// 1e±300 and tie-prone values; AddCos adds amp·cos(base + x) into
// another such slice, base and amp from the same values; Unpack decodes
// 0–70 codes of 1–40 bits from the raw fuzz bytes, with base and step from
// those values, exactly as its generic loop does; the interp kernels
// code and decode a run of 0–70 points, its geometry from geom, over data
// and neighbours from the same values, exactly as their generic loops do;
// and the rANS kernels encode and decode 16 lanes of 0–70 codes through
// tables drawn from the fuzz bytes, and decode damaged, cut and arbitrary
// sections, exactly as their generic loops do (checkRANS).
func FuzzKernelsMatchGeneric(f *testing.F) {
	f.Add([]byte{6, 1, 0, 0x86, 1, 0, 6, 2, 0, 2, 0, 0, 0x82, 0, 0}, uint8(0), uint8(5), uint16(0x6400), uint8(0), uint32(0x00200011))
	f.Add(make([]byte, 3*70), uint8(3), uint8(70), uint16(0x6000), uint8(17), uint32(0x00400031))
	f.Add([]byte{7, 1, 2, 7, 3, 4, 7, 5, 6, 7, 7, 8, 0, 0, 0, 7, 9, 9, 1, 0, 0, 0x81, 0, 0}, uint8(7), uint8(8), uint16(0x64ff), uint8(5), uint32(0x00a38607))
	f.Add([]byte{4, 0, 1, 0x85, 0, 2, 3, 0, 3, 0x83, 0, 4, 4, 9, 9}, uint8(1), uint8(5), uint16(0xff00), uint8(32), uint32(0x01200013))
	f.Add(bytes.Repeat([]byte{0xff}, 5*70), uint8(2), uint8(70), uint16(0x6400), uint8(39), uint32(0x00000000))
	f.Add(bytes.Repeat([]byte{6, 5, 0, 0x86, 9, 0, 7, 0, 0x80, 6, 1, 0}, 10), uint8(4), uint8(67), uint16(0x6480), uint8(9), uint32(0x0080e231))
	f.Add(bytes.Repeat([]byte{7, 0x30, 0x90, 6, 7, 0, 0x82, 0, 0}, 12), uint8(5), uint8(41), uint16(0x6300), uint8(3), uint32(0x01a00a18))
	f.Fuzz(func(t *testing.T, raw []byte, off, n uint8, bound uint16, width uint8, geom uint32) {
		pool := fuzzValues(raw)
		o, size := int(off%8), int(n%71)
		x := make([]float64, o+size)
		y := make([]float64, o+size)
		for i := range x {
			if len(pool) > 0 {
				x[i] = pool[i%len(pool)]
				y[i] = pool[(i+size/2+1)%len(pool)]
			}
		}
		var m float64
		if len(pool) > 0 {
			m = math.Abs(pool[len(pool)-1])
		}
		// A bound between 2^-100 and 2^155, mantissa from the low byte.
		eb := math.Ldexp(1+float64(bound&0xff)/256, int(bound>>8)-100)
		checkKernels(t, x[o:], y[o:], m, eb)
		checkKernels(t, x[o:], y[o:], -m, eb)

		// AddCos's arguments are the values, its starting dst the shifted
		// ones, and base and amp two more from the pool; base +0 too.
		base, amp := 0.0, 1.0
		if len(pool) > 0 {
			base, amp = pool[len(pool)/3], pool[2*len(pool)/3]
		}
		checkAddCos(t, y[o:], x[o:], base, amp)
		checkAddCos(t, y[o:], x[o:], 0, amp)

		// Unpack's contract: src holds every code, and step is positive
		// and finite (szx's 2·eb); base is any value, NaN and ±Inf too.
		nb := uint(width%40) + 1
		base, step := 0.0, eb
		if len(pool) > 0 {
			base = pool[0]
			if s := math.Abs(pool[len(pool)/2]); s > 0 && !math.IsInf(s, 0) {
				step = s
			}
		}
		checkUnpack(t, min(size, 8*len(raw)/int(nb)), raw, nb, base, step)

		r, radius := fuzzRun(geom, o, size)
		recon, data, codes := interpOperands(r, pool, raw)
		checkInterp(t, recon, data, codes, r, eb, radius)

		// The rANS coders: a model and a stream of up to 70 steps a lane
		// drawn from the fuzz bytes, table logs 1–16, 1–7 contexts.
		checkRANS(t, int64(hashBytes(raw))^int64(geom), uint(bound%16)+1, int(width%7)+1, int(geom>>8%600)+1, size)
	})
}

// hashBytes is FNV-64a over b, a seed the fuzz bytes pick.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// fuzzRun decodes an interp run of n points from geom: stride 1–9, near
// 1–32 (multiples of the stride among them, which the kernels leave to
// the generic loops), a code step of 1 or 2–2049, the stencil (or 3, no
// stencil, which predicts as Left and the kernels leave alone), and a
// radius of 2, 64, 32768, 40000 (whose bins reach the wide codes), 2^20
// or 2^30 (past the kernels' lanes). The run starts o points past its
// first neighbour.
func fuzzRun(geom uint32, o, n int) (Run, int) {
	r := Run{Stride: int(geom%9) + 1, Near: int(geom>>4&31) + 1, PStep: 1, N: n, St: Stencil(geom >> 21 % 4)}
	if geom>>9&1 != 0 {
		r.PStep = int(geom>>10&0x7ff) + 2
	}
	r.I, r.Pos = 3*r.Near+o, o
	radius := [...]int{32768, 40000, 64, 2, 1 << 20, 1 << 30}[geom>>23%6]
	return r, radius
}

// interpOperands sizes recon, data and codes to reach exactly to run r's
// last point (and its last neighbour) and fills them from pool and raw:
// recon with neighbour values, data with the values to code, close to
// their neighbours' where pool repeats, and codes with raw's 16-bit words,
// which hold escapes and wide markers where raw has 00 00 or ff ff.
func interpOperands(r Run, pool []float64, raw []byte) (recon, data []float64, codes []uint16) {
	last := r.I + max(r.N-1, 0)*r.Stride
	recon, data = make([]float64, last+3*r.Near+1), make([]float64, last+1)
	codes = make([]uint16, r.Pos+max(r.N-1, 0)*r.PStep+1)
	for i := range recon {
		if len(pool) > 0 {
			recon[i] = pool[i%len(pool)]
		}
	}
	for i := range data {
		if len(pool) > 0 {
			data[i] = pool[(i+r.Near)%len(pool)]
		}
	}
	for i := range codes {
		if len(raw) >= 2 {
			codes[i] = binary.LittleEndian.Uint16(raw[2*i%(len(raw)-1):])
		}
	}
	return recon, data, codes
}

// checkInterp fails t unless Interp's Encode and Decode leave exactly
// what their generic loops leave over run r — the same stops, codes and
// recon bits — driven as sz drives them: the caller codes the point a call
// stops at (here as an escape, whose reconstruction is its data value)
// and hands the rest of the run back.
func checkInterp(t *testing.T, recon, data []float64, codes []uint16, r Run, eb float64, radius int) {
	t.Helper()
	type outcome struct {
		stops []int
		recon []float64
		codes []uint16
	}
	drive := func(encode bool, vector bool) outcome {
		out := outcome{recon: slices.Clone(recon), codes: slices.Clone(codes)}
		for r := r; r.N > 0; r = r.Skip(1) {
			var j int
			k := NewInterp(out.codes, out.recon, data, eb, radius)
			switch {
			case encode && vector:
				j = k.Encode(r)
			case encode:
				j = interpEncodeGeneric(&k, r)
			case vector:
				j = k.Decode(r)
			default:
				j = interpDecodeGeneric(&k, r)
			}
			out.stops = append(out.stops, j)
			if r = r.Skip(j); r.N == 0 {
				break
			}
			out.codes[r.Pos], out.recon[r.I] = escapeCode, data[r.I]
		}
		return out
	}
	for _, encode := range []bool{true, false} {
		got, want := drive(encode, true), drive(encode, false)
		what := map[bool]string{true: "Encode", false: "Decode"}[encode]
		if !slices.Equal(got.stops, want.stops) {
			t.Fatalf("%s(%+v, eb %v, radius %d) stopped after %v points; generic %v", what, r, eb, radius, got.stops, want.stops)
		}
		for i := range got.recon {
			if !sameBits(got.recon[i], want.recon[i]) {
				t.Fatalf("%s(%+v, eb %v, radius %d): recon[%d] is %v (%#x); generic %v (%#x)", what, r, eb, radius,
					i, got.recon[i], math.Float64bits(got.recon[i]), want.recon[i], math.Float64bits(want.recon[i]))
			}
		}
		if !slices.Equal(got.codes, want.codes) {
			t.Fatalf("%s(%+v, eb %v, radius %d): codes %v; generic %v", what, r, eb, radius, got.codes, want.codes)
		}
	}
}

// checkUnpack fails t unless Unpack decodes n codes of nb bits from src
// exactly as its generic loop does, and returns the decoded values.
func checkUnpack(t *testing.T, n int, src []byte, nb uint, base, step float64) []float64 {
	t.Helper()
	got, want := make([]float64, n), make([]float64, n)
	Unpack(got, src, nb, base, step)
	unpackGeneric(want, src, nb, base, step)
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("Unpack(%d codes of %d bits from %d bytes, base %v, step %v): value %d is %v; generic %v",
				n, nb, len(src), base, step, i, got[i], want[i])
		}
	}
	return got
}

// codeAt reads code i of nb bits, packed MSB-first from the start of src,
// one bit at a time: the layout Unpack decodes, written independently of
// it.
func codeAt(src []byte, nb uint, i int) uint64 {
	var k uint64
	for b := uint(i) * nb; b < uint(i+1)*nb; b++ {
		k = k<<1 | uint64(src[b/8]>>(7-b%8)&1)
	}
	return k
}

// checkCodes fails t unless vals are base + k·step for the codes codeAt
// reads from src.
func checkCodes(t *testing.T, vals []float64, src []byte, nb uint, base, step float64) {
	t.Helper()
	for i, v := range vals {
		if want := base + float64(codeAt(src, nb, i))*step; !sameBits(v, want) {
			t.Fatalf("%d bits: value %d is %v, want %v", nb, i, v, want)
		}
	}
}

// TestKernelTraps pins the cases where vector lanes part most easily from
// the generic loops' index order, and checks the expected values, not just
// agreement.
func TestKernelTraps(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	t.Logf("AVX2 kernels: %v", haveAVX2)

	t.Run("signed zero tie across lanes", func(t *testing.T) {
		// Zeros of opposite signs at every pair of positions of a
		// 19-value block: the generic scan keeps the first, and the lane
		// reduction meets them in some other order.
		for _, first := range []float64{negZero, 0} {
			second := negZero
			if math.Signbit(first) {
				second = 0
			}
			for i := 0; i < 19; i++ {
				for j := i + 1; j < 19; j++ {
					x, neg := make([]float64, 19), make([]float64, 19)
					for k := range x {
						x[k], neg[k] = float64(k%5+1), -float64(k%5+1)
					}
					x[i], x[j], neg[i], neg[j] = first, second, -first, -second
					if lo, _ := Extremes(x); !sameBits(lo, first) {
						t.Fatalf("Extremes(%v) lo = %v (sign bit %v), want the first zero", x, lo, math.Signbit(lo))
					}
					if _, hi := Extremes(neg); !sameBits(hi, -first) {
						t.Fatalf("Extremes(%v) hi = %v (sign bit %v), want the first zero", neg, hi, math.Signbit(hi))
					}
					checkKernels(t, x, neg, 0, 1)
				}
			}
		}
		// Range over nothing but zeros (and NaN), every sign pattern of 11.
		for bits := 0; bits < 1<<11; bits++ {
			zeros := make([]float64, 11)
			for k := range zeros {
				if bits>>k&1 != 0 {
					zeros[k] = negZero
				}
			}
			zeros[bits%11] = nan
			if got := Range(zeros); !sameBits(got, 0) {
				t.Fatalf("Range(%v) = %v (sign bit %v), want +0", zeros, got, math.Signbit(got))
			}
			checkKernels(t, zeros, zeros, 0, 1)
		}
		// Zeros of one sign in the vectors and a zero of the other sign in
		// the scalar tail, which comes after them in index order.
		clamped := []float64{0.5, 0, 0.25, 0, 0, 0.75, 0, 1, negZero, 0.5}
		if lo, _ := Extremes(clamped); !sameBits(lo, 0) {
			t.Errorf("Extremes(%v) lo = %v (sign bit %v), want +0", clamped, lo, math.Signbit(lo))
		}
		checkKernels(t, clamped, clamped, 0, 1)
		tailMixed := []float64{negZero, negZero, negZero, negZero, 0, 0}
		checkKernels(t, tailMixed, tailMixed, 0, 1)
	})

	t.Run("NaN in the last lane of the last vector", func(t *testing.T) {
		x := []float64{1, 2, 3, 4, 5, 6, 7, nan}
		if lo, hi := Extremes(x); !math.IsNaN(lo) || !math.IsNaN(hi) {
			t.Errorf("Extremes = %v, %v; want NaN, NaN", lo, hi)
		}
		if got := Range(x); got != 6 {
			t.Errorf("Range = %v, want 6 (NaN skipped)", got)
		}
		y := []float64{1, 2, 3, 4, 5, 6, 8, 0}
		if got := MaxAbsDiff(0, x, y); got != 1 {
			t.Errorf("MaxAbsDiff = %v, want 1 (NaN difference skipped)", got)
		}
		checkKernels(t, x, y, 0, 1)
	})

	t.Run("offset of exactly 2^40", func(t *testing.T) {
		x := []float64{0, 1, 2, 1 << 40, 3, 4, 5, 6}
		dst := make([]uint64, len(x))
		if !Quantize(dst, x, 0, 1, 0.5) {
			t.Fatal("Quantize failed a block of integers at step 1")
		}
		if dst[3] != 1<<40 {
			t.Errorf("offset of 2^40 = %d", dst[3])
		}
		checkKernels(t, x, x, 0, 0.5)
	})

	t.Run("post-check miss in lane 3", func(t *testing.T) {
		// lo + 1.5 steps, where rounding lands the decoded value just past
		// the bound.
		lo, eb := 0.1, 0.001
		miss := math.Float64frombits(0x3fba5e353f7ced92)
		if quantizeGeneric(make([]uint64, 1), []float64{miss}, lo, 2*eb, eb) {
			t.Fatal("the chosen value passes the post-check; pick another")
		}
		for _, at := range []int{3, 7} {
			x := []float64{lo, 0.1004, 0.1011, 0.1022, 0.1008, 0.102, 0.1001, 0.1033}
			x[at] = miss
			if Quantize(make([]uint64, len(x)), x, lo, 2*eb, eb) {
				t.Errorf("miss at index %d not reported", at)
			}
			x[at] = 0.1015
			if !Quantize(make([]uint64, len(x)), x, lo, 2*eb, eb) {
				t.Errorf("block without the miss (index %d) reported failing", at)
			}
			checkKernels(t, x, x, 0, eb)
		}
	})

	t.Run("Unpack at 40 bits, every code 2^40−1", func(t *testing.T) {
		// 24 codes, and 16 bytes of the next block after them, so every
		// group runs in the kernel; 2^40−1 must convert exactly.
		src := bytes.Repeat([]byte{0xff}, 24*40/8+16)
		for _, v := range checkUnpack(t, 24, src, 40, 0, 1) {
			if v != 1<<40-1 {
				t.Fatalf("code 2^40−1 decoded as %v", v)
			}
		}
		checkCodes(t, checkUnpack(t, 24, src, 40, -0.5, 0.25), src, 40, -0.5, 0.25)
	})

	t.Run("Unpack at 1 bit", func(t *testing.T) {
		src := make([]byte, 40)
		for i := range src {
			src[i] = byte(0xa5 ^ 37*i)
		}
		checkCodes(t, checkUnpack(t, 8*len(src), src, 1, 3, 2), src, 1, 3, 2)
	})

	t.Run("Unpack with src ending at the last group's widest read", func(t *testing.T) {
		// Five groups whose last one reads up to src's last byte run in
		// the kernel; one byte less and the last group runs scalar.
		const groups = 5
		for _, nb := range []uint{6, 17, 18, 33, 40} {
			widest := (groups-1)*int(nb) + int(6*nb/8) + 16
			for _, short := range []int{0, 1} {
				src := make([]byte, widest-short)
				for i := range src {
					src[i] = byte(i*131 + int(nb))
				}
				vals := checkUnpack(t, 8*groups, src, nb, -7, 1.0/3)
				checkCodes(t, vals, src, nb, -7, 1.0/3)
				if haveAVX2 {
					if g := unpackAVX2(make([]float64, 8*groups), src, nb, -7, 1.0/3); g != groups-short {
						t.Fatalf("%d bits, src %d bytes: the kernel ran %d groups, want %d", nb, len(src), g, groups-short)
					}
				}
			}
		}
	})

	t.Run("Unpack of 7, 8 and 9 codes", func(t *testing.T) {
		src := make([]byte, 64)
		for i := range src {
			src[i] = byte(i*29 + 3)
		}
		for _, nb := range []uint{1, 7, 13, 20, 40} {
			for _, n := range []int{7, 8, 9} {
				checkCodes(t, checkUnpack(t, n, src, nb, 0.125, 0.5), src, nb, 0.125, 0.5)
			}
		}
	})

	// The interp runs below are a row along the last axis at level h = 1:
	// points 2 apart, neighbours at ±1 and ±3, codes one after another.
	encode := func(codes []uint16, recon, data []float64, r Run, eb float64, radius int) int {
		k := NewInterp(codes, recon, data, eb, radius)
		return k.Encode(r)
	}
	decode := func(recon []float64, codes []uint16, r Run, eb float64, radius int) int {
		k := NewInterp(codes, recon, nil, eb, radius)
		return k.Decode(r)
	}
	interpRun := func(n int, st Stencil, fill float64) (Run, []float64, []float64, []uint16) {
		r := Run{I: 3, Stride: 2, Near: 1, PStep: 1, N: n, St: st}
		recon, data, codes := make([]float64, 2*n+5), make([]float64, 2*n+2), make([]uint16, n)
		for i := range recon {
			recon[i] = fill
		}
		return r, recon, data, codes
	}

	t.Run("interp: a bin of −0 is +0", func(t *testing.T) {
		// −0 neighbours predict −0, and v just below 0 truncates to a
		// −0 bin; Go's bin is the integer 0, so rec = −0 + (+0) = +0.
		for _, st := range []Stencil{Left, Linear, Cubic} {
			r, recon, data, codes := interpRun(8, st, negZero)
			for j := 0; j < r.N; j++ {
				data[r.I+2*j] = -1e-10
			}
			checkInterp(t, recon, data, codes, r, 0.5, 32768)
			if got := encode(codes, recon, data, r, 0.5, 32768); got != r.N {
				t.Fatalf("stencil %d: coded %d of %d points", st, got, r.N)
			}
			for j := 0; j < r.N; j++ {
				if rec := recon[r.I+2*j]; !sameBits(rec, 0) || codes[j] != 32768 {
					t.Fatalf("stencil %d, point %d: code %d, rec %v (sign bit %v); want 32768, +0", st, j, codes[j], rec, math.Signbit(rec))
				}
			}
		}
	})

	t.Run("interp: escapes in lane 0 and lane 3", func(t *testing.T) {
		for _, at := range []int{0, 3, 4, 7} {
			r, recon, data, codes := interpRun(12, Cubic, 1)
			for j := 0; j < r.N; j++ {
				data[r.I+2*j] = 1 + float64(j%5)*0.01
				codes[j] = uint16(32768 + j)
			}
			data[r.I+2*at], codes[at] = nan, escapeCode
			checkInterp(t, recon, data, codes, r, 1e-3, 32768)
			if got := encode(slices.Clone(codes), slices.Clone(recon), data, r, 1e-3, 32768); got != at {
				t.Errorf("Encode stopped after %d points, want %d (a NaN)", got, at)
			}
			if got := decode(slices.Clone(recon), codes, r, 1e-3, 32768); got != at {
				t.Errorf("Decode stopped after %d points, want %d (an escape)", got, at)
			}
		}
	})

	t.Run("interp: wide codes", func(t *testing.T) {
		// Radius 40000: bins from 25535 up code to 0xFFFF or more.
		const radius = 40000
		r, recon, data, codes := interpRun(8, Linear, 0)
		for j := 0; j < r.N; j++ {
			data[r.I+2*j] = 25534
			codes[j] = 0xFFFE
		}
		data[r.I+2*6], codes[5] = 25535, wideMarker
		checkInterp(t, recon, data, codes, r, 0.5, radius)
		if got := encode(slices.Clone(codes), slices.Clone(recon), data, r, 0.5, radius); got != 6 {
			t.Errorf("Encode stopped after %d points, want 6 (code 0xFFFF)", got)
		}
		if got := decode(slices.Clone(recon), codes, r, 0.5, radius); got != 5 {
			t.Errorf("Decode stopped after %d points, want 5 (a wide marker)", got)
		}
	})

	t.Run("interp: bins of ±radius and a post-check miss", func(t *testing.T) {
		// d = ±63.7 is inside the open range (−64, 64) but rounds to ±64.
		for _, v := range []float64{63.7, -63.7} {
			r, recon, data, codes := interpRun(8, Left, 0)
			for j := 0; j < r.N; j++ {
				data[r.I+2*j] = 63.4
			}
			data[r.I+2*5] = v
			checkInterp(t, recon, data, codes, r, 0.5, 64)
			if got := encode(codes, recon, data, r, 0.5, 64); got != 5 || codes[0] != 127 {
				t.Errorf("v = %v: stopped after %d points with code %d, want 5 and 127", v, got, codes[0])
			}
		}
		// A value whose bin decodes just past the bound.
		const pred, eb = 0.7, 0.1
		miss := math.NaN()
		for k := 0.0; k < 1000 && miss != miss; k++ {
			for _, v := range []float64{pred + (k+0.5)*2*eb, math.Nextafter(pred+(k+0.5)*2*eb, 0)} {
				r, recon, data, codes := interpRun(1, Left, pred)
				data[r.I] = v
				if k := NewInterp(codes, recon, data, eb, 32768); interpEncodeGeneric(&k, r) == 0 {
					miss = v
					break
				}
			}
		}
		if miss != miss {
			t.Fatal("no value misses the post-check")
		}
		for _, at := range []int{1, 6} {
			r, recon, data, codes := interpRun(8, Left, pred)
			for j := 0; j < r.N; j++ {
				data[r.I+2*j] = pred + 0.05
			}
			data[r.I+2*at] = miss
			checkInterp(t, recon, data, codes, r, eb, 32768)
			if got := encode(codes, recon, data, r, eb, 32768); got != at {
				t.Errorf("miss %v at point %d: stopped after %d points", miss, at, got)
			}
		}
	})

	t.Run("interp: NaN and ±Inf", func(t *testing.T) {
		// Data: NaN and ±Inf values escape. Neighbours: two NaNs of
		// different payloads meet in b + c and in (9b − a) + 9c, where
		// the first source's NaN must win as in the generic loop.
		nanA := math.Float64frombits(0x7ff8000000000abc)
		nanB := math.Float64frombits(0xfff8000000000def)
		for _, st := range []Stencil{Left, Linear, Cubic} {
			for _, bad := range []float64{nan, math.Inf(1), math.Inf(-1)} {
				r, recon, data, codes := interpRun(8, st, 2)
				for j := 0; j < r.N; j++ {
					data[r.I+2*j] = 2.25
				}
				data[r.I+2*2] = bad
				checkInterp(t, recon, data, codes, r, 0.5, 32768)
			}
			r, recon, data, codes := interpRun(16, st, 2)
			for i := range recon {
				recon[i] = [...]float64{nanA, nanB, 1, math.Inf(1), nanB, math.Inf(-1), nanA}[i%7]
			}
			for j := range codes {
				codes[j] = uint16(32760 + j)
			}
			checkInterp(t, recon, data, codes, r, 0.5, 32768)
		}
	})

	// wantCos fails t unless dst[i] is start[i] + amp·cos(base + x[i]) as
	// math.Cos has it, the product rounded before the sum.
	wantCos := func(t *testing.T, dst, start, x []float64, base, amp float64) {
		t.Helper()
		for i, v := range x {
			if want := start[i] + float64(amp*math.Cos(base+v)); !sameBits(dst[i], want) {
				t.Fatalf("%v + %v·cos(%v + %v) = %v (%#x); math.Cos gives %v (%#x)",
					start[i], amp, base, v, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
			}
		}
	}
	addCos := func(t *testing.T, start, x []float64, base, amp float64) []float64 {
		t.Helper()
		checkAddCos(t, start, x, base, amp)
		dst := slices.Clone(start)
		AddCos(dst, x, base, amp)
		return dst
	}

	t.Run("AddCos: octant edges", func(t *testing.T) {
		// The doubles nearest k·π/4 and their neighbours, where x·(4/π)
		// truncates to one octant or the next.
		pi, _, err := big.ParseFloat("3.14159265358979323846264338327950288419716939937510582097494459", 10, 256, big.ToNearestEven)
		if err != nil {
			t.Fatal(err)
		}
		var x []float64
		for k := 0; k <= 1000; k++ {
			e, _ := new(big.Float).SetPrec(256).Mul(pi, big.NewFloat(float64(k)/4)).Float64()
			for _, v := range []float64{math.Nextafter(e, math.Inf(-1)), e, math.Nextafter(e, math.Inf(1))} {
				x = append(x, v, -v)
			}
		}
		start := make([]float64, len(x))
		for _, amp := range []float64{1, -0.75} {
			wantCos(t, addCos(t, start, x, 0, amp), start, x, 0, amp)
		}
	})

	t.Run("AddCos: the 2^29 bound", func(t *testing.T) {
		// |x| just under 2^29 is math.cos's last small argument; 2^29
		// takes its Payne–Hanek reduction, which only the generic loop
		// runs, in whichever lane it sits.
		below := math.Nextafter(1<<29, 0)
		for _, edge := range []float64{below, 1 << 29, -below, -(1 << 29)} {
			for at := 0; at < 9; at++ {
				x := []float64{0.5, -1.25, 3, 700, 0.5, 2, -3, 4.5, 6}
				x[at] = edge
				start := filled(len(x), 0.125)
				wantCos(t, addCos(t, start, x, 0, 2), start, x, 0, 2)
			}
		}
		// base + t meets the bound too.
		x := []float64{1 << 28, math.Nextafter(1<<28, 0), -(1 << 28), 1}
		start := make([]float64, len(x))
		wantCos(t, addCos(t, start, x, 1<<28, 1), start, x, 1<<28, 1)
		if haveAVX2 {
			if g := addCosAVX2(make([]float64, 4), []float64{below, -below, 1, -2}, 0, 1); g != 1 {
				t.Errorf("the kernel took %d groups of one with |x| < 2^29", g)
			}
			if g := addCosAVX2(make([]float64, 8), []float64{1, 2, 3, 4, 5, 6, -(1 << 29), 8}, 0, 1); g != 1 {
				t.Errorf("the kernel took %d groups of two, the second with |x| = 2^29; want 1", g)
			}
		}
	})

	t.Run("AddCos: NaN and ±Inf arguments", func(t *testing.T) {
		for _, bad := range []float64{nan, math.Inf(1), math.Inf(-1)} {
			for at := 0; at < 11; at++ {
				x := []float64{0.1, 0.2, 0.3, 0.4, -0.5, -0.6, 0.7, 0.8, 9, 10, 11}
				x[at] = bad
				start := filled(len(x), 1)
				dst := addCos(t, start, x, 0.25, 1.5)
				wantCos(t, dst, start, x, 0.25, 1.5)
				if !math.IsNaN(dst[at]) {
					t.Errorf("cos(%v) added as %v", bad, dst[at])
				}
			}
			x := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
			start := make([]float64, len(x))
			wantCos(t, addCos(t, start, x, bad, 1.5), start, x, bad, 1.5)
		}
	})

	t.Run("AddCos: −0, subnormals and negative arguments", func(t *testing.T) {
		sub := math.Float64frombits(1)
		maxSub := math.Float64frombits(1<<52 - 1)
		x := []float64{negZero, 0, sub, -sub, maxSub, -maxSub, -1e-300, -math.Pi / 4, -3, -1e5, -(1 << 28), negZero}
		for _, base := range []float64{negZero, 0, -1, sub} {
			for _, amp := range []float64{1, negZero, 0, -2.5, sub} {
				for _, d := range []float64{negZero, 0} {
					start := filled(len(x), d)
					wantCos(t, addCos(t, start, x, base, amp), start, x, base, amp)
				}
			}
		}
	})

	t.Run("rANS: extreme frequencies, word slack and wild contexts", func(t *testing.T) {
		ransTraps(t)
	})

	t.Run("AddCos: NaN amp or dst", func(t *testing.T) {
		// A NaN dst or amp passes its payload, quieted, into the sum.
		// With both NaN, gc's ADDSD keeps the product as its first
		// source, so amp's NaN wins, and the kernel's VADDPD has the
		// product first too.
		nanA := math.Float64frombits(0x7ff8000000000abc)
		nanB := math.Float64frombits(0xfff8000000000def)
		sNaN := math.Float64frombits(0x7ff0000000000123)
		// Eleven values run a pair of groups in the kernel, five a group
		// alone.
		x := []float64{0.1, -0.2, 0.3, 4, 5, -6, 7, 8, 9, 10, -11}
		for _, c := range []struct{ d, amp, want float64 }{
			{nanA, 2, nanA},
			{1, nanB, nanB},
			{nanA, nanB, nanB},
			{nanB, nanA, nanA},
			{sNaN, 2, math.Float64frombits(0x7ff8000000000123)},
			{2, sNaN, math.Float64frombits(0x7ff8000000000123)},
			{sNaN, nanB, nanB},
		} {
			for _, x := range [][]float64{x, x[:5]} {
				start := filled(len(x), c.d)
				for i, v := range addCos(t, start, x, 0.5, c.amp) {
					if !sameBits(v, c.want) {
						t.Fatalf("dst %#x, amp %#x, %d values: dst[%d] is %#x, want %#x", math.Float64bits(c.d), math.Float64bits(c.amp),
							len(x), i, math.Float64bits(v), math.Float64bits(c.want))
					}
				}
			}
		}
	})
}

// legacySSEWhileDirty returns, for Go assembly src, every instruction
// inside a TEXT block that names an X or Y register without a VEX
// encoding (its mnemonic does not start with V) while the upper halves of
// the YMM registers are dirty — from the block's first instruction naming
// a Y register to its VZEROUPPER — and every block that returns before its
// VZEROUPPER. A macro (#define, its instructions split by ";") may expand
// anywhere, so every instruction of its body is held to VEX; where it is
// used, it dirties the upper halves if its body or its arguments name a Y
// register.
func legacySSEWhileDirty(src string) []string {
	vecReg := regexp.MustCompile(`\b[XY]([0-9]|1[0-5])\b`)
	yReg := regexp.MustCompile(`\bY([0-9]|1[0-5])\b`)
	macros := map[string]bool{} // name: whether its body names a Y register
	var bad []string
	text, dirty, macro := "", false, ""
	for i, line := range strings.Split(src, "\n") {
		line, _, _ = strings.Cut(line, "//")
		line = strings.TrimSpace(line)
		cont := strings.HasSuffix(line, `\`)
		line = strings.TrimSuffix(line, `\`)
		where := fmt.Sprintf("line %d: %s", i+1, line)
		if def, ok := strings.CutPrefix(line, "#define "); ok {
			macro = strings.FieldsFunc(def, func(r rune) bool { return r == '(' || r == ' ' })[0]
			macros[macro] = false
			if !cont {
				macro = ""
			}
			continue
		}
		for _, ins := range strings.Split(line, ";") {
			fields := strings.Fields(ins)
			if len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
				continue
			}
			op := fields[0]
			use, isUse := macros[strings.Split(op, "(")[0]]
			switch {
			case macro != "":
				macros[macro] = macros[macro] || use || yReg.MatchString(ins)
				if vecReg.MatchString(ins) && !isUse && !strings.HasPrefix(op, "V") {
					bad = append(bad, where+" is legacy SSE in macro "+macro)
				}
			case op == "TEXT":
				text, dirty = fields[1], false
			case text == "":
			case op == "VZEROUPPER":
				dirty = false
			case op == "RET":
				if dirty {
					bad = append(bad, where+" returns with the YMM upper halves dirty in "+text)
				}
			case isUse:
				dirty = dirty || use || yReg.MatchString(ins)
			default:
				dirty = dirty || yReg.MatchString(ins)
				if dirty && vecReg.MatchString(ins) && !strings.HasPrefix(op, "V") {
					bad = append(bad, where+" is legacy SSE while the YMM upper halves are dirty in "+text)
				}
			}
		}
		if !cont {
			macro = ""
		}
	}
	return bad
}

// TestAsmStaysVEX holds the AVX2 kernels to VEX-encoded instructions while
// the YMM upper halves are dirty: one legacy-SSE MOVQ into an X register
// there costs a state transition every call, and made the unpack kernel
// about 4× slower.
func TestAsmStaysVEX(t *testing.T) {
	src, err := os.ReadFile("simd_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range legacySSEWhileDirty(string(src)) {
		t.Error(b)
	}
	planted := "TEXT ·k(SB), NOSPLIT, $0-8\n\tMOVSD x+0(FP), X0\n\tVBROADCASTSD X0, Y1\n\tMOVQ 152(R8), X8 // the trap\n" +
		"\tVZEROUPPER\n\tMOVSD X0, ret+8(FP)\n\tRET\nTEXT ·j(SB), NOSPLIT, $0-8\n\tVMOVUPD (SI), Y0\n\tRET\n" +
		"#define LOADY(yk) \\\n\tVMOVUPD (SI), yk; \\\n\tMOVQ AX, X2\n" +
		"TEXT ·m(SB), NOSPLIT, $0-8\n\tMOVQ AX, X1\n\tLOADY(Y3)\n\tMOVQ X1, AX\n\tVZEROUPPER\n\tRET\n"
	got := legacySSEWhileDirty(planted)
	if len(got) != 4 || !strings.Contains(got[0], "MOVQ 152(R8), X8") || !strings.Contains(got[1], "·j") ||
		!strings.Contains(got[2], "MOVQ AX, X2") || !strings.Contains(got[3], "MOVQ X1, AX") {
		t.Errorf("the check found %q in kernels with a legacy-SSE MOVQ in a block, in a macro and after a macro that dirties Y, and one block without VZEROUPPER", got)
	}
}

// TestKernelsRandomBlocks runs the kernels over blocks of a smooth field at
// szx's block size and its tails, against their generic loops.
func TestKernelsRandomBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		x, y := make([]float64, n), make([]float64, n)
		base := rng.NormFloat64() * 100
		for i := range x {
			x[i] = base + math.Sin(float64(i)/7)*10 + rng.Float64()
			y[i] = x[i] + (rng.Float64()-0.5)*1e-3
		}
		checkKernels(t, x, y, 0, math.Pow(10, -float64(rng.Intn(8))))
	}
}

// BenchmarkKernels times each kernel's generic loop against the exported
// kernel (AVX2 where the CPU has it) on 32 Ki values, which stay in L2,
// and on 4 Mi values, which come from DRAM. Extremes and Quantize run over
// 256-value blocks, as szx calls them. Unpack decodes one 256-value block
// and 32 Ki values at widths 6, 18 and 33, in ns/value. InterpEncode and
// InterpDecode (Interp's Encode and Decode) code and decode a row of 1024
// points, cubic and linear, at strides 2 and 8 and code steps 1 and 1801,
// in ns/point. AddCos adds one spectral mode into rows of 96 and 1800
// values, in ns/value. RANSDecode and RANSEncode run 16 lanes of rANS
// codes, in ns/code.
func BenchmarkKernels(b *testing.B) {
	type kernel struct {
		name            string
		generic, vector func(x, y []float64, dst []uint64)
	}
	const block = 256
	perBlock := func(f func(blk []float64, dst []uint64)) func(x, y []float64, dst []uint64) {
		return func(x, _ []float64, dst []uint64) {
			for i := 0; i < len(x); i += block {
				f(x[i:min(i+block, len(x))], dst)
			}
		}
	}
	var sinkF float64
	var sinkB bool
	kernels := []kernel{
		{"Extremes",
			perBlock(func(blk []float64, _ []uint64) { lo, _ := extremesGeneric(blk); sinkF += lo }),
			perBlock(func(blk []float64, _ []uint64) { lo, _ := Extremes(blk); sinkF += lo })},
		{"Range",
			func(x, _ []float64, _ []uint64) { sinkF += rangeGeneric(x) },
			func(x, _ []float64, _ []uint64) { sinkF += Range(x) }},
		{"MaxAbsDiff",
			func(x, y []float64, _ []uint64) { sinkF += maxAbsDiffGeneric(0, x, y) },
			func(x, y []float64, _ []uint64) { sinkF += MaxAbsDiff(0, x, y) }},
		{"Quantize",
			perBlock(func(blk []float64, dst []uint64) { sinkB = quantizeGeneric(dst[:len(blk)], blk, -2, 2e-3, 1e-3) }),
			perBlock(func(blk []float64, dst []uint64) { sinkB = Quantize(dst, blk, -2, 2e-3, 1e-3) })},
	}
	for _, n := range []int{32 << 10, 4 << 20} {
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(i) / 97)
			y[i] = x[i] + 1e-4*math.Cos(float64(i))
		}
		dst := make([]uint64, block)
		for _, k := range kernels {
			for _, impl := range []struct {
				name string
				run  func(x, y []float64, dst []uint64)
			}{{"generic", k.generic}, {"vector", k.vector}} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", k.name, n, impl.name), func(b *testing.B) {
					b.SetBytes(int64(8 * n))
					for i := 0; i < b.N; i++ {
						impl.run(x, y, dst)
					}
				})
			}
		}
	}
	// A stream body runs on past a packed block; the 16 bytes after the
	// codes stand for the next block.
	for _, nb := range []uint{6, 18, 33} {
		for _, n := range []int{block, 32 << 10} {
			src := make([]byte, (n*int(nb)+7)/8+16)
			for i := range src {
				src[i] = byte(i * 167)
			}
			dst := make([]float64, n)
			for _, impl := range []struct {
				name string
				run  func(dst []float64, src []byte, nb uint, base, step float64)
			}{{"generic", unpackGeneric}, {"vector", Unpack}} {
				b.Run(fmt.Sprintf("Unpack/nb=%d/n=%d/%s", nb, n, impl.name), func(b *testing.B) {
					b.SetBytes(int64(8 * n))
					for i := 0; i < b.N; i++ {
						impl.run(dst, src, nb, -2, 2e-3)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/value")
				})
			}
		}
	}
	// sz3's interp runs: a row of 1024 points, neighbours at ±stride/2
	// and ±3·stride/2 as in a pass along the last axis, and codes one
	// after another (pstep 1) or 1801 apart, as in a pass over an axis of
	// a 900×1800 field. The data is smooth, so every code is plain.
	const points = 1024
	for _, st := range []Stencil{Cubic, Linear} {
		for _, stride := range []int{2, 8} {
			for _, pstep := range []int{1, 1801} {
				r := Run{Stride: stride, Near: stride / 2, PStep: pstep, N: points, St: st}
				r.I = 3 * r.Near
				recon := make([]float64, r.I+points*stride+3*r.Near)
				for i := range recon {
					recon[i] = math.Sin(float64(i) / 97)
				}
				data, codes := slices.Clone(recon), make([]uint16, (points-1)*pstep+1)
				name := map[Stencil]string{Cubic: "cubic", Linear: "linear"}[st]
				for _, impl := range []struct {
					name   string
					encode bool
					run    func(k *Interp, r Run) int
				}{
					{"generic", true, interpEncodeGeneric}, {"vector", true, (*Interp).Encode},
					{"generic", false, interpDecodeGeneric}, {"vector", false, (*Interp).Decode},
				} {
					op := map[bool]string{true: "InterpEncode", false: "InterpDecode"}[impl.encode]
					k := NewInterp(codes, recon, data, 1e-4, 32768)
					if impl.run(&k, r) != points {
						b.Fatalf("%s %s: a point of the smooth row is not plain", op, name)
					}
					b.Run(fmt.Sprintf("%s/%s/stride=%d/pstep=%d/%s", op, name, stride, pstep, impl.name), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							impl.run(&k, r)
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/points, "ns/point")
					})
				}
			}
		}
	}
	// datagen's spectral rows: one mode's cosines added into a row of 96
	// values (Miranda at shrink 4) or 1800 (CESM at shrink 2), arguments
	// of a few hundred radians, as the mode tables give.
	for _, n := range []int{96, 1800} {
		x, dst := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = -40 * math.Pi * float64(i) / float64(n)
		}
		for _, impl := range []struct {
			name string
			run  func(dst, t []float64, base, amp float64)
		}{{"generic", addCosGeneric}, {"vector", AddCos}} {
			b.Run(fmt.Sprintf("AddCos/n=%d/%s", n, impl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.run(dst, x, 2.5, 0.125)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/value")
			})
		}
	}
	// The rANS coders: 16 lanes of 4133 codes each (a lane stride that
	// shares no cache set with the next lane's), through six contexts of
	// 2^11 slots over 64 symbols, peaked as sz3's codes are, in ns/code.
	rng := rand.New(rand.NewSource(1))
	md := newRANSModel(rng, 11, 6, 64, true)
	const m = 4133
	codes := md.stream(rng, m, true)
	w, x := md.encode(codes, m, ransEncodeGeneric)
	out, words := make([]uint16, RANSLanes*m), make([]uint16, RANSLanes*(m+1))
	for _, impl := range []struct {
		name   string
		decode func(*RANSDecoder, []uint16, int, int, int, *RANSDecTable, []byte)
		encode func(*RANSEncoder, []uint16, int, int, int, *RANSEncTable, []uint16)
	}{{"generic", ransDecodeGeneric, ransEncodeGeneric}, {"vector", (*RANSDecoder).Decode, (*RANSEncoder).Encode}} {
		b.Run("RANSDecode/"+impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := RANSDecoder{X: x}
				impl.decode(&d, out, m, 0, m, &md.dec, w)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(RANSLanes*m), "ns/code")
		})
		b.Run("RANSEncode/"+impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := RANSEncoder{}
				for k := range e.X {
					e.X[k], e.Cur[k] = 1<<16, md.enc.Sym[codes[k*m+m-1]]
				}
				impl.encode(&e, codes, m, 1, m, &md.enc, words)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(RANSLanes*m), "ns/code")
		})
	}
	_, _ = sinkF, sinkB
}

// filled returns n copies of v.
func filled(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// checkAddCos fails t unless AddCos leaves in dst exactly what its
// generic loop leaves, from the same starting dst.
func checkAddCos(t *testing.T, dst, x []float64, base, amp float64) {
	t.Helper()
	got, want := slices.Clone(dst[:len(x)]), slices.Clone(dst[:len(x)])
	AddCos(got, x, base, amp)
	addCosGeneric(want, x, base, amp)
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("AddCos(dst %v, t %v, base %v, amp %v): dst[%d] is %v (%#x); generic %v (%#x)", dst[:len(x)], x, base, amp,
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestAddCosSweep holds AddCos to math.Cos bit for bit on 2^22 arguments
// swept uniformly over [−1000, 1000] and 2^20 of random sign, mantissa and
// exponent from 2^−60 to 2^40, which cross the kernel's 2^29 bound, added
// into a random dst at random amplitudes and bases, in rows of random
// length. A toolchain whose math.cos changes fails here.
func TestAddCosSweep(t *testing.T) {
	const sweep, n = 1 << 22, 1<<22 + 1<<20
	rng := rand.New(rand.NewSource(50))
	x, dst := make([]float64, n), make([]float64, n)
	for i := range x {
		if i < sweep {
			x[i] = -1000 + 2000*float64(i)/sweep
		} else {
			x[i] = math.Ldexp(1+rng.Float64(), rng.Intn(101)-60)
			if rng.Intn(2) == 0 {
				x[i] = -x[i]
			}
		}
		dst[i] = rng.NormFloat64()
	}
	got := slices.Clone(dst)
	for i := 0; i < n; {
		m := min(1+rng.Intn(200), n-i)
		base := []float64{0, rng.NormFloat64(), 1e3 * rng.Float64()}[rng.Intn(3)]
		amp := rng.NormFloat64()
		AddCos(got[i:i+m], x[i:i+m], base, amp)
		for j := i; j < i+m; j++ {
			if want := dst[j] + float64(amp*math.Cos(base+x[j])); !sameBits(got[j], want) {
				t.Fatalf("dst %v + %v·cos(%v + %v) = %v (%#x); math.Cos gives %v (%#x)",
					dst[j], amp, base, x[j], got[j], math.Float64bits(got[j]), want, math.Float64bits(want))
			}
		}
		i += m
	}
}
