package simd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
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
// 1e±300 and tie-prone values; and Unpack decodes 0–70 codes of 1–40 bits
// from the raw fuzz bytes, with base and step from those values, exactly
// as its generic loop does.
func FuzzKernelsMatchGeneric(f *testing.F) {
	f.Add([]byte{6, 1, 0, 0x86, 1, 0, 6, 2, 0, 2, 0, 0, 0x82, 0, 0}, uint8(0), uint8(5), uint16(0x6400), uint8(0))
	f.Add(make([]byte, 3*70), uint8(3), uint8(70), uint16(0x6000), uint8(17))
	f.Add([]byte{7, 1, 2, 7, 3, 4, 7, 5, 6, 7, 7, 8, 0, 0, 0, 7, 9, 9, 1, 0, 0, 0x81, 0, 0}, uint8(7), uint8(8), uint16(0x64ff), uint8(5))
	f.Add([]byte{4, 0, 1, 0x85, 0, 2, 3, 0, 3, 0x83, 0, 4, 4, 9, 9}, uint8(1), uint8(5), uint16(0xff00), uint8(32))
	f.Add(bytes.Repeat([]byte{0xff}, 5*70), uint8(2), uint8(70), uint16(0x6400), uint8(39))
	f.Fuzz(func(t *testing.T, raw []byte, off, n uint8, bound uint16, width uint8) {
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
	})
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
}

// legacySSEWhileDirty returns, for Go assembly src, every instruction
// inside a TEXT block that names an X or Y register without a VEX
// encoding (its mnemonic does not start with V) while the upper halves of
// the YMM registers are dirty — from the block's first instruction naming
// a Y register to its VZEROUPPER — and every block that returns before its
// VZEROUPPER.
func legacySSEWhileDirty(src string) []string {
	vecReg := regexp.MustCompile(`\b[XY]([0-9]|1[0-5])\b`)
	yReg := regexp.MustCompile(`\bY([0-9]|1[0-5])\b`)
	var bad []string
	text, dirty := "", false
	for i, line := range strings.Split(src, "\n") {
		line, _, _ = strings.Cut(line, "//")
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
			continue
		}
		op, where := fields[0], fmt.Sprintf("line %d: %s", i+1, strings.TrimSpace(line))
		switch {
		case op == "TEXT":
			text, dirty = fields[1], false
		case text == "":
		case op == "VZEROUPPER":
			dirty = false
		case op == "RET":
			if dirty {
				bad = append(bad, where+" returns with the YMM upper halves dirty in "+text)
			}
		default:
			dirty = dirty || yReg.MatchString(line)
			if dirty && vecReg.MatchString(line) && !strings.HasPrefix(op, "V") {
				bad = append(bad, where+" is legacy SSE while the YMM upper halves are dirty in "+text)
			}
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
		"\tVZEROUPPER\n\tMOVSD X0, ret+8(FP)\n\tRET\nTEXT ·j(SB), NOSPLIT, $0-8\n\tVMOVUPD (SI), Y0\n\tRET\n"
	if got := legacySSEWhileDirty(planted); len(got) != 2 || !strings.Contains(got[0], "MOVQ 152(R8), X8") || !strings.Contains(got[1], "·j") {
		t.Errorf("the check found %q in a kernel with one legacy-SSE MOVQ and one without VZEROUPPER", got)
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
// and 32 Ki values at widths 6, 18 and 33, in ns/value.
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
	_, _ = sinkF, sinkB
}
