package simd

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// ransModel is a set of rANS tables built the way sz3's version 3
// sections lay them out: nSym symbols, each with a distinct code, laid out
// in symbol order in each of nCtx contexts of 2^L slots, with the slots
// past the last symbol bad.
type ransModel struct {
	L           uint
	nCtx, nSym  int
	codes       []uint16   // by symbol
	next        []uint32   // the context each symbol sets up
	freq, start [][]uint32 // by context, by symbol
	enc         RANSEncTable
	dec         RANSDecTable
}

// newRANSModel draws a model: frequencies skewed towards the first
// symbols, some of them 0, each context's summing to at most 2^L − 1 (every
// context keeps at least one symbol), escape code 0 among the codes when
// esc is set, the others scattered over the 16-bit codes.
func newRANSModel(rng *rand.Rand, L uint, nCtx, nSym int, esc bool) *ransModel {
	size := 1 << L
	nSym = max(1, min(nSym, size-1))
	md := &ransModel{L: L, nCtx: nCtx, nSym: nSym}
	seen := map[uint16]bool{}
	for len(md.codes) < nSym {
		c := uint16(1 + rng.Intn(0xFFFE))
		if esc && len(md.codes) == nSym/2 {
			c = 0
		}
		if !seen[c] {
			seen[c] = true
			md.codes = append(md.codes, c)
			md.next = append(md.next, uint32(rng.Intn(nCtx)))
		}
	}
	md.enc = RANSEncTable{Sym: make([]uint32, 1<<16), Rcp: make([]uint32, nSym*nCtx), Slot: make([]uint32, nSym*nCtx), L: L}
	md.dec = RANSDecTable{Slot: make([]uint32, nCtx<<L), Sym: make([]uint32, nCtx<<L), L: L}
	for s, c := range md.codes {
		md.enc.Sym[c] = uint32(s*nCtx)<<10 | md.next[s]
	}
	for ctx := range nCtx {
		freq, start := make([]uint32, nSym), make([]uint32, nSym)
		budget := max(size-1-rng.Intn(size/4+1), nSym)
		slot := 0
		for s := range nSym {
			if s > 0 && rng.Intn(4) == 0 {
				continue
			}
			left := budget - slot - (nSym - 1 - s)
			if left < 1 {
				break
			}
			f := 1 + rng.Intn(min(left, 1+size>>(1+rng.Intn(8))))
			if rng.Intn(8) == 0 {
				f = 1
			}
			freq[s], start[s] = uint32(f), uint32(slot)
			slot += f
		}
		md.freq, md.start = append(md.freq, freq), append(md.start, start)
		for s := range nSym {
			i := s*nCtx + ctx
			if f := freq[s]; f != 0 {
				md.enc.Rcp[i], md.enc.Slot[i] = RANSRcp(f), f|start[s]<<16
				e := uint32(md.codes[s]) | md.next[s]<<18
				if md.codes[s] == 0 {
					e |= 1 << 16
				}
				for o := range f {
					md.dec.Slot[ctx<<L|int(start[s]+o)] = f | o<<16
					md.dec.Sym[ctx<<L|int(start[s]+o)] = e
				}
			}
		}
		for j := slot; j < size; j++ {
			md.dec.Slot[ctx<<L|j], md.dec.Sym[ctx<<L|j] = 1, 1<<17
		}
	}
	return md
}

// stream draws m codes a lane, each lane's first in context 0 and every
// other in the context the code before it sets up: symbols uniformly,
// with a third of them among the first eighth, or, peaked, symbol s with
// probability about 2^−(s+1), as sz3's codes crowd the zero bin.
func (md *ransModel) stream(rng *rand.Rand, m int, peaked bool) []uint16 {
	codes := make([]uint16, RANSLanes*m)
	for k := range RANSLanes {
		ctx := 0
		for j := range m {
			var s int
			for {
				s = rng.Intn(md.nSym)
				if peaked {
					s = min(bits.TrailingZeros32(rng.Uint32()|1<<31), md.nSym-1)
				} else if rng.Intn(3) == 0 {
					s = rng.Intn(max(1, md.nSym/8))
				}
				if md.freq[ctx][s] != 0 {
					break
				}
			}
			codes[k*m+j] = md.codes[s]
			ctx = int(md.next[s])
		}
	}
	return codes
}

// encode codes every lane of codes, steps m−1 down to 1 through enc and
// step 0 in context 0, and returns the section's words in the order the
// decoder reads them and the lanes' final states.
func (md *ransModel) encode(codes []uint16, m int, enc func(*RANSEncoder, []uint16, int, int, int, *RANSEncTable, []uint16)) ([]byte, [RANSLanes]uint32) {
	var e RANSEncoder
	for k := range e.X {
		e.X[k] = 1 << 16
		if m > 0 {
			e.Cur[k] = md.enc.Sym[codes[k*m+m-1]]
		}
	}
	words := make([]uint16, RANSLanes*(m+2))
	if m > 1 {
		enc(&e, codes, m, 1, m, &md.enc, words)
	}
	for k := RANSLanes - 1; k >= 0 && m > 0; k-- {
		i := e.Cur[k] >> 10
		x, w, emit := RANSPut(e.X[k], md.enc.Rcp[i], md.enc.Slot[i], md.L)
		if emit {
			words[e.N] = w
			e.N++
		}
		e.X[k] = x
	}
	out := make([]byte, 0, 2*e.N)
	for i := e.N - 1; i >= 0; i-- {
		out = binary.LittleEndian.AppendUint16(out, words[i])
	}
	return out, e.X
}

// checkRANSDecode fails t unless Decode, from d, leaves the same codes and
// state as its generic loop over steps [i, i+steps) of out's lanes.
func checkRANSDecode(t *testing.T, d RANSDecoder, out []uint16, m, i, steps int, tab *RANSDecTable, w []byte) (RANSDecoder, []uint16) {
	t.Helper()
	gd, gout := d, slices.Clone(out)
	ransDecodeGeneric(&gd, gout, m, i, steps, tab, w)
	vd, vout := d, slices.Clone(out)
	vd.Decode(vout, m, i, steps, tab, w)
	if !slices.Equal(vout, gout) {
		for j := range vout {
			if vout[j] != gout[j] {
				t.Fatalf("Decode(m %d, steps [%d, %d), L %d): code %d (lane %d, step %d) is %#x; generic %#x",
					m, i, i+steps, tab.L, j, j/max(m, 1), j%max(m, 1), vout[j], gout[j])
			}
		}
	}
	if vd != gd {
		t.Fatalf("Decode(m %d, steps [%d, %d), L %d, %d words): state %+v; generic %+v", m, i, i+steps, tab.L, len(w)/2, vd, gd)
	}
	return vd, vout
}

// checkRANSEncode fails t unless Encode leaves the same words and state
// as its generic loop over steps hi−1 down to lo of codes' lanes.
func checkRANSEncode(t *testing.T, e RANSEncoder, codes []uint16, m, lo, hi int, tab *RANSEncTable) {
	t.Helper()
	n := e.N + RANSLanes*(hi-lo+1)
	ge, gw := e, make([]uint16, n)
	ransEncodeGeneric(&ge, codes, m, lo, hi, tab, gw)
	ve, vw := e, make([]uint16, n)
	ve.Encode(codes, m, lo, hi, tab, vw)
	if ve != ge {
		t.Fatalf("Encode(m %d, steps [%d, %d), L %d): state %+v; generic %+v", m, lo, hi, tab.L, ve, ge)
	}
	if !slices.Equal(vw[:ve.N], gw[:ge.N]) {
		t.Fatalf("Encode(m %d, steps [%d, %d), L %d): words %v; generic %v", m, lo, hi, tab.L, vw[:ve.N], gw[:ge.N])
	}
}

// checkRANS draws a model and a stream from seed and the knobs, and holds
// both kernels to their generic loops: on the stream's encode, on its
// decode, which must give the stream back with every lane at 2^16, and on
// decodes of damaged words, cut words and arbitrary states and contexts.
func checkRANS(t *testing.T, seed int64, L uint, nCtx, nSym, m int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	md := newRANSModel(rng, L, nCtx, nSym, seed%2 == 0)
	codes := md.stream(rng, m, false)
	if m > 1 {
		var e RANSEncoder
		for k := range e.X {
			e.X[k] = 1<<16 + uint32(rng.Intn(1<<16))<<rng.Intn(16)
			e.Cur[k] = md.enc.Sym[codes[k*m+m-1]]
		}
		checkRANSEncode(t, e, codes, m, 1, m, &md.enc)
		lo := 1 + rng.Intn(m-1)
		checkRANSEncode(t, e, codes, m, lo, lo+rng.Intn(m-lo+1), &md.enc)
	}
	w, x := md.encode(codes, m, (*RANSEncoder).Encode)
	if gw, gx := md.encode(codes, m, ransEncodeGeneric); !slices.Equal(w, gw) || x != gx {
		t.Fatalf("the encoded section differs from the generic loop's (%d and %d bytes)", len(w), len(gw))
	}
	d, out := checkRANSDecode(t, RANSDecoder{X: x}, make([]uint16, RANSLanes*m), m, 0, m, &md.dec, w)
	if !slices.Equal(out, codes) {
		t.Fatalf("L %d, %d contexts, %d symbols, m %d: the decode does not give the stream back", L, nCtx, nSym, m)
	}
	for k, v := range d.X {
		if v != 1<<16 {
			t.Fatalf("lane %d ends at state %#x, not 2^16", k, v)
		}
	}
	if d.Pos != len(w)/2 || d.Bad>>17&1 != 0 {
		t.Fatalf("decode read %d of %d words, bad %v", d.Pos, len(w)/2, d.Bad>>17&1 != 0)
	}
	// Damaged sections: the kernel's result must still be the generic
	// loop's, bad slots, cut words and all.
	if len(w) > 0 {
		bad := slices.Clone(w)
		bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		checkRANSDecode(t, RANSDecoder{X: x}, make([]uint16, RANSLanes*m), m, 0, m, &md.dec, bad)
		checkRANSDecode(t, RANSDecoder{X: x}, make([]uint16, RANSLanes*m), m, 0, m, &md.dec, w[:rng.Intn(len(w))])
	}
	var wild RANSDecoder
	for k := range wild.X {
		wild.X[k], wild.Ctx[k] = rng.Uint32(), uint32(rng.Intn(1100))
	}
	wild.Pos = rng.Intn(len(w)/2 + 1)
	i := rng.Intn(m + 1)
	checkRANSDecode(t, wild, make([]uint16, RANSLanes*m), m, i, rng.Intn(m-i+1), &md.dec, w)
}

// TestRANSKernels runs checkRANS over every table log, context counts up
// to 7 and streams up to 300 steps a lane.
func TestRANSKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for L := uint(1); L <= 16; L++ {
		for trial := range 6 {
			checkRANS(t, rng.Int63(), L, 1+trial, 1+rng.Intn(1<<min(L, 9)), rng.Intn(300))
		}
	}
}

// TestRANSPutDivides holds RANSPut's quotient, and so its state, to the
// division it replaces for every frequency of a 2^16-slot table at states
// across [2^16, 2^32): coding f from start must map x to
// ⌊x/f⌋·2^L + x mod f + start.
func TestRANSPutDivides(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const L = 16
	for f := uint32(1); f < 1<<L; f++ {
		start := min(7, 1<<L-1-f)
		rcp, slot := RANSRcp(f), f|start<<16
		xmax := uint64(f) << (32 - L)
		for _, x := range []uint64{1 << 16, xmax - 1, xmax - uint64(f), xmax, 1<<32 - 1, 1<<16 + uint64(rng.Intn(1<<30))} {
			if x < 1<<16 || x >= 1<<32 {
				continue
			}
			got, w, emit := RANSPut(uint32(x), rcp, slot, L)
			want := x
			if x >= xmax {
				want >>= 16
			}
			if (x >= xmax) != emit || (emit && w != uint16(x)) {
				t.Fatalf("f %d, x %d: word %v %#x, want %v", f, x, emit, w, x >= xmax)
			}
			want = want/uint64(f)<<L + want%uint64(f) + uint64(start)
			if uint64(got) != want {
				t.Fatalf("f %d, x %d: coded to %d, want %d", f, x, got, want)
			}
		}
	}
}

// ransTraps pins the rANS kernels where they part most easily from the
// generic loops, checking the decoded codes, not just agreement: a table
// of 2^16 slots whose symbols have frequencies 1 and 2^16 − 2, where the
// reciprocal, the shift and the bias are at their extremes; every length
// of the words around the decoder's slack of 128, where it runs out of
// section and switches to a zero-padded copy; and contexts past the last,
// which both clamp.
func ransTraps(t *testing.T) {
	const L = 16
	md := &ransModel{L: L, nCtx: 2, nSym: 2, codes: []uint16{0, 0xFFFE}, next: []uint32{1, 0}}
	md.freq = [][]uint32{{1, 1<<L - 2}, {1<<L - 2, 1}}
	md.start = [][]uint32{{0, 1}, {0, 1<<L - 2}}
	md.enc = RANSEncTable{Sym: make([]uint32, 1<<16), Rcp: make([]uint32, 4), Slot: make([]uint32, 4), L: L}
	md.dec = RANSDecTable{Slot: make([]uint32, 2<<L), Sym: make([]uint32, 2<<L), L: L}
	for s, c := range md.codes {
		md.enc.Sym[c] = uint32(s*2)<<10 | md.next[s]
		for ctx := range 2 {
			f, start := md.freq[ctx][s], md.start[ctx][s]
			md.enc.Rcp[s*2+ctx], md.enc.Slot[s*2+ctx] = RANSRcp(f), f|start<<16
			e := uint32(c) | md.next[s]<<18
			if c == 0 {
				e |= 1 << 16
			}
			for o := range f {
				md.dec.Slot[ctx<<L|int(start+o)], md.dec.Sym[ctx<<L|int(start+o)] = f|o<<16, e
			}
		}
	}
	for ctx := range 2 {
		md.dec.Slot[ctx<<L|(1<<L-1)], md.dec.Sym[ctx<<L|(1<<L-1)] = 1, 1<<17
	}
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{8, 9, 40, 203} {
		codes := md.stream(rng, m, false)
		w, x := md.encode(codes, m, (*RANSEncoder).Encode)
		d, out := checkRANSDecode(t, RANSDecoder{X: x}, make([]uint16, RANSLanes*m), m, 0, m, &md.dec, w)
		if !slices.Equal(out, codes) || d.Pos != len(w)/2 || d.X[0] != 1<<16 || d.X[15] != 1<<16 {
			t.Fatalf("m %d: extreme frequencies did not round-trip", m)
		}
		escapes := 0
		for _, c := range codes {
			if c == 0 {
				escapes++
			}
		}
		if got := d.Esc; got != escapes {
			t.Fatalf("m %d: %d escapes counted, %d coded", m, got, escapes)
		}
		for cut := len(w) / 2; cut >= max(0, len(w)/2-300); cut-- {
			checkRANSDecode(t, RANSDecoder{X: x}, make([]uint16, RANSLanes*m), m, 0, m, &md.dec, w[:2*cut])
		}
		var wild RANSDecoder
		for k := range wild.X {
			wild.X[k], wild.Ctx[k] = x[k], uint32(1+k*70)
		}
		checkRANSDecode(t, wild, make([]uint16, RANSLanes*m), m, 0, m, &md.dec, w)
	}
}
