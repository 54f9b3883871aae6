//go:build amd64 && !purego

package simd

// haveAVX2 is whether this CPU runs the AVX2 kernels: it reports AVX and
// AVX2, and the operating system saves the YMM registers (XGETBV's XCR0
// has the SSE and AVX state bits).
var haveAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}()

// cpuid executes CPUID for leaf eaxArg, subleaf ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// minMaxAVX2 folds x — a whole number of 4-value vectors, at least one —
// into lanes that start at lo and hi, and returns the least and greatest
// lane and the sum of v−v over x (+0 when every value is finite, NaN
// otherwise). NaN values are skipped by both extremes.
//
//go:noescape
func minMaxAVX2(x []float64, lo, hi float64) (mn, mx, nonFinite float64)

// maxAbsDiffAVX2 is maxAbsDiffGeneric over a whole number of 4-value
// vectors, at least one; r is at least as long as o.
//
//go:noescape
func maxAbsDiffAVX2(m float64, o, r []float64) float64

// quantizeAVX2 is quantizeGeneric over a whole number of 4-value vectors,
// at least one, inside Quantize's domain; dst is at least as long as x.
//
//go:noescape
func quantizeAVX2(dst []uint64, x []float64, lo, step, eb float64) bool
