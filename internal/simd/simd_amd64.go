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

// unpackPlan lays out one group of 8 codes of nb bits, which fill exactly
// nb bytes, so every group starts on a byte boundary and decodes the same
// way. The kernel loads 16 bytes for each pair of codes (0–1, 2–3, 4–5,
// 6–7), the first two pairs into one YMM register and the last two into
// another; shuf byte-reverses each code's 8-byte big-endian window into
// its 64-bit lane, shift drops the bits before the code, and a right shift
// by 64 − nb leaves the code. The kernel reads the fields at their byte
// offsets 0, 64, 128, 152 and 160 (TestUnpackPlanLayout).
type unpackPlan struct {
	shuf  [2][32]byte  // VPSHUFB masks for codes 0–3 and 4–7
	shift [2][4]uint64 // VPSLLVQ counts: each code's first bit within its first byte
	at    [3]uint64    // byte offsets of the loads for codes 2–3, 4–5 and 6–7
	right uint64       // 64 − nb
	width uint64       // nb: the group's bytes
}

// unpackPlans holds the plan of every width szx packs, indexed by width.
var unpackPlans = func() (plans [41]unpackPlan) {
	for nb := uint64(1); nb < uint64(len(plans)); nb++ {
		p := &plans[nb]
		first := func(j uint64) uint64 { return j * nb / 8 } // code j's first byte
		for j := uint64(0); j < 8; j++ {
			pair := j &^ 1
			r := first(j) - first(pair) // the code's first byte within its pair's load
			lane := j % 4
			for b := uint64(0); b < 8; b++ {
				// 128-bit lane lane/2 of register j/4; byte b of 64-bit lane j%2.
				p.shuf[j/4][8*lane+b] = byte(r + 7 - b)
			}
			p.shift[j/4][lane] = j * nb % 8
		}
		p.at = [3]uint64{first(2), first(4), first(6)}
		p.right, p.width = 64-nb, nb
	}
	return plans
}()

// unpackAVX2 decodes dst's leading whole groups of 8 codes with the AVX2
// kernel and returns how many it decoded. The kernel's widest read in a
// group is the 16 bytes from the group's byte at[2], which run past the
// group's own nb bytes, so only the groups whose reads end inside src run
// here; the caller decodes the rest.
func unpackAVX2(dst []float64, src []byte, nb uint, base, step float64) int {
	p := &unpackPlans[nb]
	groups := len(dst) / 8
	if slack := len(src) - int(p.at[2]) - 16; slack < 0 {
		groups = 0
	} else {
		groups = min(groups, slack/int(nb)+1)
	}
	if groups > 0 {
		unpackGroupsAVX2(dst[:8*groups], src, p, base, step)
	}
	return groups
}

// unpackGroupsAVX2 decodes len(dst)/8 groups of codes laid out by plan,
// at least one, from src, which covers every group's widest read.
//
//go:noescape
func unpackGroupsAVX2(dst []float64, src []byte, plan *unpackPlan, base, step float64)

// interpEncodeAVX2 runs the encode kernel over run r's whole groups of
// four, which vectorizes accepted, and returns how many it coded: it
// stops before the first group that holds a point without a plain code.
func interpEncodeAVX2(k *Interp, r Run) int {
	return interpEncodeKernel(&k.codes[r.Pos], &k.recon[r.I], &k.data[r.I],
		8*r.Stride, 8*r.Near, 2*r.PStep, r.N/4, int(r.St), &k.q)
}

// interpDecodeAVX2 runs the decode kernel over run r's whole groups of
// four, which vectorizes accepted, and returns how many it recovered: it
// stops before the first group that holds an escape or a wide marker.
func interpDecodeAVX2(k *Interp, r Run) int {
	return interpDecodeKernel(&k.codes[r.Pos], &k.recon[r.I],
		8*r.Stride, 8*r.Near, 2*r.PStep, r.N/4, int(r.St), &k.q)
}

// interpEncodeKernel codes groups groups of four points from the run's
// first point, at recon and data, and its first code, at codes: points
// stride bytes apart, neighbours near and 3·near bytes away, codes pstep
// bytes apart.
//
//go:noescape
func interpEncodeKernel(codes *uint16, recon, data *float64, stride, near, pstep, groups, stencil int, q *interpQuant) int

// interpDecodeKernel recovers groups groups of four points from the run's
// first point, at recon, and its first code, at codes, laid out as for
// interpEncodeKernel.
//
//go:noescape
func interpDecodeKernel(codes *uint16, recon *float64, stride, near, pstep, groups, stencil int, q *interpQuant) int

// addCosAVX2 adds amp·cos(base + t[i]) into dst[i] over t's whole groups
// of four, at least one, and returns how many groups it added: it stops
// before the first group with a lane that math.Cos does not take on its
// small-argument path. dst is at least as long as t.
//
//go:noescape
func addCosAVX2(dst, t []float64, base, amp float64) int

// The rANS kernels hand words over between a lane register's eight lanes
// and consecutive words: the decoder refills lanes with VPERMD by
// ransExpand[mask], which sends the r-th word read to the r-th lane of
// mask, in lane order, and the encoder packs the words of the lanes it
// hands over with VPSHUFB by ransCompress[mask], which brings the words of
// mask's lanes to the front, the highest lane first.
var ransExpand, ransCompress = func() (expand [256][8]uint32, compress [256][16]byte) {
	for mask := range 256 {
		r := uint32(0)
		for j := range 8 {
			if mask>>j&1 != 0 {
				expand[mask][j] = r
				r++
			}
		}
		for i := range compress[mask] {
			compress[mask][i] = 0x80
		}
		r = 0
		for j := 7; j >= 0; j-- {
			if mask>>j&1 != 0 {
				compress[mask][2*r], compress[mask][2*r+1] = byte(2*j), byte(2*j+1)
				r++
			}
		}
	}
	return expand, compress
}()

// ransDecodeAVX2 runs the decode kernel over steps [i, i+steps) of out's
// lanes, steps a multiple of 8, and returns how many steps it decoded: it
// stops before the first block of eight with fewer than ransDecodeSlack
// words left in w.
func ransDecodeAVX2(d *RANSDecoder, out []uint16, m, i, steps int, t *RANSDecTable, w []byte) int {
	if steps == 0 || len(w)/2-d.Pos < ransDecodeSlack {
		return 0
	}
	return ransDecodeKernel(d, &out[i], 2*m, steps, &t.Slot[0], &t.Sym[0], int(t.L), len(t.Sym)>>t.L-1, &w[0], len(w)/2, &ransExpand)
}

// ransEncodeAVX2 runs the encode kernel over steps hi−1 down to lo of
// codes' lanes; Encode checked the arguments. The kernel gathers each
// lane's code before the one it codes from idx[k] = k·m + step − 1.
func ransEncodeAVX2(e *RANSEncoder, codes []uint16, m, lo, hi int, t *RANSEncTable, words []uint16) {
	var idx [RANSLanes]uint32
	for k := range idx {
		idx[k] = uint32(k*m + hi - 2)
	}
	ransEncodeKernel(e, &codes[0], &idx, hi-lo, hi, 2*m, &t.Sym[0], &t.Rcp[0], &t.Slot[0], int(t.L), len(t.Rcp)-1, &words[0], &ransCompress)
}

// ransDecodeKernel decodes steps steps of the 16 lanes of d, whose codes
// go to out, out + stride bytes and so on, from the nw words at w.
//
//go:noescape
func ransDecodeKernel(d *RANSDecoder, out *uint16, stride, steps int, slot, sym *uint32, L, last int, w *byte, nw int, expand *[256][8]uint32) int

// ransEncodeKernel codes steps hi−1 down to hi−steps of the 16 lanes of
// e, last to first, from the codes at codes, lanes stride bytes apart,
// writing words from words[e.N].
//
//go:noescape
func ransEncodeKernel(e *RANSEncoder, codes *uint16, idx *[RANSLanes]uint32, steps, hi, stride int, sym, rcp, slot *uint32, L, last int, words *uint16, compress *[256][16]byte)
