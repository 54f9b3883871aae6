// Package ans is the entropy coder of sz3 stream version 2: a static rANS
// coder (Duda's asymmetric numeral systems, range variant) over the
// quantization codes, whose probabilities are conditioned on a small
// context — by default how far the previous code of the stream sits from
// the zero bin. It replaces version 1's Huffman coder and the DEFLATE pass
// after it: a peaked distribution costs a fraction of a bit per code
// instead of Huffman's one-bit floor, and the context captures most of
// what DEFLATE found between neighbouring codes.
//
// A section uses one of three context models, whichever the counts
// estimate codes the stream smallest; only that one's tables are built:
//
//   - distance: six contexts, the previous code's distance from the zero
//     bin bucketed 0 / 1 / 2 / 3–4 / 5–8 / more, with the escape bin and
//     wide codes in the last bucket;
//   - order 0: one context, for streams so short that six tables cost
//     more than they save;
//   - order 1: a context per previous code, for streams whose codes
//     follow one another in fixed patterns the distance cannot see. Its
//     tables are many, so it is counted only on streams of two bits a
//     code or more where the distance model saves under a tenth over
//     order 0, with at most maxOrder1 distinct codes and no wide ones, and
//     chosen only where it saves a tenth itself.
//
// The table log follows from the symbol count, min(max(bitlen(n)−6, 5),
// 11), raised until the context with the most distinct codes fits twice
// over; so the six distance tables stay within 96 KiB unless one context
// holds more than 1024 distinct codes.
//
// Coded section layout (integers little-endian):
//
//	model, table log L   1 byte each; minLog ≤ L ≤ maxLog
//	used symbols         uvarint count, then uvarint each: the first code,
//	                     then the gap to the previous one (≥ 1); codes < 2^24
//	frequencies          per context, per used symbol: uvarint f, where a
//	                     0 is followed by uvarint(run−1) and covers run
//	                     symbols
//	final states         uint64 lane A, uint64 lane B
//	words                uint32 each, in the order the decoder reads them
//
// A context's frequencies sum to total(L) = 2^L − max(1, 2^L>>12): the
// last slots of every table belong to no symbol, so no symbol costs less
// than 2^−13 bits and the section's length bounds its symbol count
// (maxSymbols). A context no code is coded in has every frequency 0. The
// decode tables (contexts × 2^L entries) are bounded by the length of the
// table description, so that a short section cannot ask for large ones.
//
// The code stream is split into two halves, lanes A and B. Each keeps its
// own state and its own context chain, whose first code is coded in
// context 0, and one loop interleaves them so that the two serial
// dependency chains overlap.
//
// The loops every code passes through — counting (countRun), and the
// coding (encodeRun) and decoding (run.decode) of streams without wide
// codes — are leaf functions over slices and scalars, so that their state
// stays in registers; inside the large Encode and Decode bodies the
// compiler spilled most of it on every code. They change no byte: the
// section a stream codes to is fixed by the layout above.
package ans

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ocelot/internal/huffman"
)

const (
	numCtx = 6 // contexts of the distance model
	// minLog and maxLog bound the table log; baseLog is the largest one
	// the symbol count alone selects (6 × 2^11 eight-byte decode entries
	// is 96 KiB). Only a context with more distinct codes than that table
	// holds twice over grows it further.
	minLog  = 5
	baseLog = 11
	maxLog  = 17
	// maxOrder1 is the largest alphabet the order-1 model is tried on,
	// and maxOrder1Entries the most decode-table entries it may take.
	maxOrder1        = 512
	maxOrder1Entries = 1 << 18
	maxCode          = 1 << 24
	// Lane states live in [stateLow, 2^63) between symbols and move 32
	// bits at a time.
	stateLow = 1 << 31
	wide     = huffman.WideEscape
	// wideIndex stands in hist for the wide marker's used-symbol index:
	// its codes are looked up one by one.
	wideIndex = 1<<32 - 1
)

// Context models.
const (
	modelDistance = iota
	modelOrder0
	modelOrder1
)

// Decode-table entry fields: the packed code, whether it is the escape
// bin, whether the slot is one no valid section reaches, the context it
// sets up for the next code of its lane, the symbol's frequency and the
// slot's offset from the symbol's first slot.
const (
	escBit    = 16
	badBit    = 17
	ctxShift  = 18
	ctxMask   = 1<<10 - 1
	freqShift = 28
	freqMask  = 1<<maxLog - 1
	offShift  = 45
	badEntry  = 1<<badBit | 1<<freqShift
)

// ErrCorrupt indicates a malformed coded section.
var ErrCorrupt = errors.New("ans: corrupt coded section")

// Summary is what Encode measured about the code stream it coded.
type Summary struct {
	// Zero is the number of codes in the zero bin.
	Zero int
	// Entropy is the order-0 Shannon entropy of the codes, in bits per
	// code.
	Entropy float64
	// ZeroShare is the zero bin's share of the coded bits, costing each
	// code at −log2 of its probability in its context.
	ZeroShare float64
}

// maxSymbols bounds the number of codes a coded section of sectionLen
// bytes can hold. Every code multiplies its lane's state by at least
// 1 + 2^−13 (no frequency reaches its table's size), a lane starts at
// 2^31 and ends below 2^63, and each word the lane hands over carries 32
// bits: so a lane of W words holds at most 2^18·(1 + W) codes.
func maxSymbols(sectionLen int) int { return (sectionLen + 8) << 16 }

// total is the sum of a context's frequencies in a table of 2^L slots.
func total(L int) int { return 1<<L - max(1, 1<<L>>12) }

// maxEntries bounds the decode table a table description of tableLen
// bytes may ask for.
func maxEntries(tableLen int) int { return max(numCtx<<baseLog, 64*tableLen) }

// contexts maps a packed code to the distance model's context for the
// next code of its lane.
type contexts struct {
	radius int
	tab    [18]uint8 // by distance + 8, clamped to 17
}

func newContexts(radius int) *contexts {
	m := &contexts{radius: radius}
	buckets := [9]uint8{0, 1, 2, 3, 3, 4, 4, 4, 4}
	for u := range m.tab {
		m.tab[u] = 5
		if d := u - 8; d >= -8 && d <= 8 {
			m.tab[u] = buckets[max(d, -d)]
		}
	}
	for _, p := range [2]int{0, wide} {
		if u := p - radius + 8; u >= 0 && u < 17 {
			m.tab[u] = 5
		}
	}
	return m
}

func (m *contexts) of(p uint16) int { return int(m.tab[min(uint(int(p)-m.radius+8), 17)]) }

// encSym is how one symbol is coded in one context: its frequency, and
// rANS's division by it done as a multiplication by a reciprocal (the
// rans64 form of ryg_rans, after Alverson), exact for states below 2^63.
type encSym struct {
	rcp, xmax        uint64 // xmax: the state past which coding would overflow
	freq, bias, cmpl uint32
	shift            uint32
}

// set lays out a symbol of frequency freq ≥ 1 whose slots start at start
// in a table of 2^L slots.
func (e *encSym) set(freq, start uint32, L int) {
	e.freq, e.cmpl, e.xmax = freq, 1<<L-freq, uint64(freq)<<(63-L)
	if freq == 1 {
		e.rcp, e.shift, e.bias = ^uint64(0), 0, start+1<<L-1
		return
	}
	s := uint32(bits.Len32(freq - 1)) // ⌈log2 freq⌉
	e.rcp, _ = bits.Div64(1<<(s-1), uint64(freq-1), uint64(freq))
	e.shift, e.bias = s-1, start
}

// put codes the symbol e into lane state x. When coding would take the
// state past 2^63 it first hands its low word over: words[nw] is written
// either way, and kept by the count put returns. Both shifts are masked to
// below 64, which they are anyway, so that the compiler emits a bare shift
// instead of guarding each against a count of 64 or more.
func put(x uint64, e *encSym, words []uint32, nw int) (uint64, int) {
	o := (x-e.xmax)>>63 ^ 1
	words[nw] = uint32(x)
	x >>= (o << 5) & 63
	q, _ := bits.Mul64(x, e.rcp)
	return x + uint64(e.bias) + q>>(e.shift&63)*uint64(e.cmpl), nw + int(o)
}

// wideSym is a code ≥ huffman.WideEscape and the distance context it is
// coded in.
type wideSym struct{ code, ctx uint32 }

// fit is one model fitted to the stream: its context count, table log,
// and the estimated size of the section it would write.
type fit struct{ model, nCtx, L, size int }

// histTable is the counting table: a line of eight slots per 16-bit code.
// Indexed by a code shifted left by 3, its fixed size needs no bounds
// check.
type histTable [(wide + 1) << 3]uint32

// Coder holds the scratch of both directions, reused from call to call.
// The zero value is ready to use; a Coder serves one call at a time.
type Coder struct {
	// hist counts packed codes per distance context at [code<<3 | ctx]
	// (2 MiB: a line per 16-bit code); slot 7 marks a code seen, then
	// holds its index in used, and slot 6 the context it sets up: the
	// distance model's while counting, the chosen model's while coding.
	// Encode clears every slot it touched before it returns.
	hist   *histTable
	used   []uint32 // the sorted used-symbol list
	cnt    []uint32 // encode: distance-model counts, [ctx*nUsed + s]
	cnt0   []uint32 // encode: order-0 counts, [s]
	cnt1   []uint32 // encode: order-1 counts, [ctx*nUsed + s]
	enc    []encSym // encode: [s*nCtx + ctx] under the chosen model
	table  []byte   // encode: the chosen model's table description
	wides  []wideSym
	words  []uint32 // encode: words in the order the encoder emits them
	dec    []uint64 // decode: [ctx<<L | slot]
	wideAt []uint32 // decode: [ctx<<L | slot] → code, when wide codes are used
	wideB  []int32  // decode: lane B's wide codes, appended after lane A's
	freqs  []uint64 // decode: the parsed frequencies, f | s<<32
	bounds []int    // decode: where each context's frequencies start in freqs
}

// Encode appends the coded section of syms to dst. radius is the
// quantizer's: code radius is the zero bin, code 0 the escape bin, and
// every code is below 2·radius and 2^24.
func (c *Coder) Encode(dst []byte, syms *huffman.SymbolStream, radius int) ([]byte, Summary, error) {
	var sum Summary
	packed := syms.Packed
	n := len(packed)
	if uint64(n) >= 1<<32 {
		return nil, sum, fmt.Errorf("ans: %d codes in one stream", n)
	}
	ctxs := newContexts(radius)
	hasWide := c.count(packed, ctxs)
	nPacked := len(c.used)
	defer c.clearHist(nPacked)
	wideA, err := c.countWide(syms, ctxs, hasWide)
	if err != nil {
		return nil, sum, err
	}
	used := c.used
	nUsed := len(used)
	if nUsed > 0 && int(used[nUsed-1]) >= min(2*radius, maxCode) {
		return nil, sum, fmt.Errorf("ans: code %d outside the alphabet of radius %d", used[nUsed-1], radius)
	}
	c.cnt0 = slices.Grow(c.cnt0[:0], nUsed)[:nUsed]
	for s := range c.cnt0 {
		k := uint32(0)
		for ctx := range numCtx {
			k += c.cnt[ctx*nUsed+s]
		}
		c.cnt0[s] = k
	}

	// Choose the model from the counts, then build its tables once.
	dist, err := c.estimate(modelDistance, n)
	if err != nil {
		return nil, sum, err
	}
	best := dist
	order0, err := c.estimate(modelOrder0, n)
	if err == nil && order0.size < best.size {
		best = order0
	}
	// Order 1 is counted where the distance saves under a tenth over order
	// 0 on a stream of two bits a code or more, and chosen only where it
	// saves a tenth itself: its tables are many.
	if err == nil && !hasWide && nUsed <= maxOrder1 && 10*dist.size >= 9*order0.size && dist.size >= n/4 {
		c.countPairs(packed)
		if f, err := c.estimate(modelOrder1, n); err == nil && 10*f.size < 9*best.size {
			best = f
		}
	}
	c.build(best)
	nCtx, L := best.nCtx, best.L
	sum = c.summarize(best, n, radius)

	// Each code is coded in the context the code before it in its lane
	// sets up (slot 6 of its hist line), a lane's first code in context 0.
	hist, enc, half := c.hist, c.enc, n/2
	for s, p := range used[:nPacked] {
		hist[p<<3|6] = uint32(nextCtx(best.model, s, p, ctxs))
	}
	hist[wide<<3|6] = uint32(nextCtx(best.model, 0, wide, ctxs))
	hist[wide<<3|7] = wideIndex
	// The encoder runs backwards over both lanes at once, lane B's code
	// before lane A's, so the decoder reads the words forwards in the
	// order its interleaved loop asks for them. One hist line per lane and
	// step gives the context of the code at i and the index of the code
	// before it, which the next step codes.
	wa, wb := wideA, len(syms.Wide)
	// Every code hands over at most one word; the buffer grows a block of
	// codes at a time, to about the section's size rather than one word a
	// code.
	words := slices.Grow(c.words[:0], 1)
	words = words[:cap(words)]
	nw := 0
	xa, xb := uint64(stateLow), uint64(stateLow)
	if n%2 == 1 {
		cb := 0
		if half > 0 {
			cb = int(hist[int(packed[n-2])<<3|6])
		}
		e := c.entry(hist[int(packed[n-1])<<3|7], cb, syms.Wide, &wb, nPacked, nCtx)
		xb, nw = put(xb, e, words, nw)
	}
	var sa, sb uint32
	if half > 0 {
		sa, sb = hist[int(packed[half-1])<<3|7], hist[int(packed[2*half-1])<<3|7]
	}
	const block = 1 << 12
	for hi := half; hi > 0; hi -= block {
		lo := max(hi-block, 0)
		if len(words)-nw < 2*(hi-lo) {
			words = slices.Grow(words[:nw], 2*(hi-lo))
			words = words[:cap(words)]
		}
		// Wide codes, which only radii past 32767 produce, are looked up
		// one by one; the loop for every other stream leaves that test out.
		if hasWide {
			for i := hi - 1; i >= lo; i-- {
				ca, cb := 0, 0
				var na, nb uint32
				if i > 0 {
					ha, hb := int(packed[i-1])<<3, int(packed[half+i-1])<<3
					ca, cb = int(hist[ha|6]), int(hist[hb|6])
					na, nb = hist[ha|7], hist[hb|7]
				}
				xb, nw = put(xb, c.entry(sb, cb, syms.Wide, &wb, nPacked, nCtx), words, nw)
				xa, nw = put(xa, c.entry(sa, ca, syms.Wide, &wa, nPacked, nCtx), words, nw)
				sa, sb = na, nb
			}
			continue
		}
		// Steps hi−1 down to max(lo, 1) take the context and the next
		// symbol from the codes before them; a lane's first code is coded in
		// context 0.
		first := max(lo, 1)
		if first < hi {
			xa, xb, sa, sb, nw = encodeRun(packed[first-1:hi-1], packed[half+first-1:half+hi-1], hist, enc, nCtx, xa, xb, sa, sb, words, nw)
		}
		if lo == 0 {
			xb, nw = put(xb, &enc[int(sb)*nCtx], words, nw)
			xa, nw = put(xa, &enc[int(sa)*nCtx], words, nw)
		}
	}
	c.words, words = words, words[:nw]

	out := append(dst, byte(best.model), byte(L))
	out = append(out, c.table...)
	out = binary.LittleEndian.AppendUint64(out, xa)
	out = binary.LittleEndian.AppendUint64(out, xb)
	out = slices.Grow(out, 4*len(words))
	for i := len(words) - 1; i >= 0; i-- {
		out = binary.LittleEndian.AppendUint32(out, words[i])
	}
	return out, sum, nil
}

// encodeRun is Encode's coding loop for streams without wide codes, kept
// apart so that its state stays in registers: it codes, from the last step
// to the first, the codes that follow pa's and pb's in lanes A and B, each
// in the context its predecessor sets up. sa and sb are the used-symbol
// indices of the last step's codes; it returns the lane states, the
// indices of pa[0] and pb[0], and the new word count.
func encodeRun(pa, pb []uint16, hist *histTable, enc []encSym, nCtx int, xa, xb uint64, sa, sb uint32, words []uint32, nw int) (uint64, uint64, uint32, uint32, int) {
	pb = pb[:len(pa)]
	for i := len(pa) - 1; i >= 0; i-- {
		ha, hb := uint(pa[i])<<3, uint(pb[i])<<3
		xb, nw = put(xb, &enc[int(sb)*nCtx+int(hist[hb|6])], words, nw)
		xa, nw = put(xa, &enc[int(sa)*nCtx+int(hist[ha|6])], words, nw)
		sa, sb = hist[ha|7], hist[hb|7]
	}
	return xa, xb, sa, sb, nw
}

// nextCtx is the context used symbol s, code p, sets up under model.
func nextCtx(model, s int, p uint32, ctxs *contexts) int {
	switch model {
	case modelDistance:
		return ctxs.of(uint16(min(p, wide)))
	case modelOrder1:
		return s + 1
	}
	return 0
}

// entry is the table entry of used symbol s in context ctx, or, for the
// wide marker's index, of the wide code before cursor *w, which it moves
// back.
func (c *Coder) entry(s uint32, ctx int, codes []int32, w *int, nPacked, nCtx int) *encSym {
	if s == wideIndex {
		*w--
		i, _ := slices.BinarySearch(c.used[nPacked:], uint32(codes[*w]))
		s = uint32(nPacked + i)
	}
	return &c.enc[int(s)*nCtx+ctx]
}

// count is the one forward pass over the packed codes: per-context counts
// into hist, and every packed code seen into used, sorted. It reports
// whether the wide marker was seen, which it leaves out of used.
func (c *Coder) count(packed []uint16, ctxs *contexts) bool {
	if c.hist == nil {
		c.hist = new(histTable)
	}
	hist := c.hist
	half := len(packed) / 2
	a, b := packed[:half], packed[half:]
	used, cb := countRun(a, b[:half], hist, ctxs, c.used[:0])
	if len(b) > half {
		ib := int(b[half]) << 3
		if hist[ib|7] == 0 {
			hist[ib|7] = 1
			used = append(used, uint32(b[half]))
		}
		hist[ib|cb]++
	}
	slices.Sort(used)
	hasWide := len(used) > 0 && used[len(used)-1] == wide
	if hasWide {
		used = used[:len(used)-1]
	}
	c.used = used
	return hasWide
}

// countRun is count's loop over the lanes a and b, side by side, each
// following its own context chain, kept apart so that its state stays in
// registers. A code's first sighting appends it to used and stores the
// context it sets up in slot 6 of its hist line, which every later sighting
// reads back. It returns used and the context lane B's next code is counted
// in.
func countRun(a, b []uint16, hist *histTable, ctxs *contexts, used []uint32) ([]uint32, int) {
	b = b[:len(a)]
	ca, cb := uint(0), uint(0)
	for i, pa := range a {
		pb := b[i]
		ia, ib := uint(pa)<<3, uint(pb)<<3
		if hist[ia|7] == 0 {
			hist[ia|7], hist[ia|6] = 1, uint32(ctxs.of(pa))
			used = append(used, uint32(pa))
		}
		hist[ia|ca&7]++
		if hist[ib|7] == 0 {
			hist[ib|7], hist[ib|6] = 1, uint32(ctxs.of(pb))
			used = append(used, uint32(pb))
		}
		hist[ib|cb&7]++
		ca, cb = uint(hist[ia|6]), uint(hist[ib|6])
	}
	return used, int(cb)
}

// countWide finishes the used-symbol list and the distance-model counts:
// the packed codes from hist, then the wide codes, which only a second
// pass over the stream — taken only when there are any — can pair with
// their contexts. It returns how many wide codes lane A holds.
func (c *Coder) countWide(syms *huffman.SymbolStream, ctxs *contexts, hasWide bool) (int, error) {
	used := c.used
	nPacked := len(used)
	wides, wideA := c.wides[:0], 0
	if !hasWide && len(syms.Wide) != 0 {
		return 0, fmt.Errorf("ans: %d wide codes without a marker", len(syms.Wide))
	}
	if hasWide {
		wi := 0
		half := len(syms.Packed) / 2
		for lane, l := range [2][]uint16{syms.Packed[:half], syms.Packed[half:]} {
			ctx := 0
			for _, p := range l {
				if p == wide {
					if wi == len(syms.Wide) || syms.Wide[wi] < wide || syms.Wide[wi] >= maxCode {
						return 0, fmt.Errorf("ans: wide lane does not match its markers")
					}
					wides = append(wides, wideSym{uint32(syms.Wide[wi]), uint32(ctx)})
					wi++
					if lane == 0 {
						wideA++
					}
				}
				ctx = ctxs.of(p)
			}
		}
		if wi != len(syms.Wide) {
			return 0, fmt.Errorf("ans: %d wide codes for %d markers", len(syms.Wide), wi)
		}
		slices.SortFunc(wides, func(a, b wideSym) int { return int(a.code) - int(b.code) })
		for _, w := range wides {
			if len(used) == nPacked || used[len(used)-1] != w.code {
				used = append(used, w.code)
			}
		}
	}
	// The used list is whole, so the context-major counts can be laid out.
	nUsed := len(used)
	c.cnt = slices.Grow(c.cnt[:0], nUsed*numCtx)[:nUsed*numCtx]
	clear(c.cnt)
	for s, p := range used[:nPacked] {
		h := c.hist[p<<3 : p<<3+8]
		for ctx := range numCtx {
			c.cnt[ctx*nUsed+s] = h[ctx]
		}
		h[7] = uint32(s)
	}
	s := nPacked - 1
	for i, w := range wides {
		if i == 0 || wides[i-1].code != w.code {
			s++
		}
		c.cnt[int(w.ctx)*nUsed+s]++
	}
	c.used, c.wides = used, wides
	return wideA, nil
}

// countPairs fills the order-1 counts: context 0 for a lane's first code,
// context s+1 for a code that follows used symbol s. The stream has no
// wide codes.
func (c *Coder) countPairs(packed []uint16) {
	nUsed := len(c.used)
	nCtx := nUsed + 1
	c.cnt1 = slices.Grow(c.cnt1[:0], nUsed*nCtx)[:nUsed*nCtx]
	clear(c.cnt1)
	half := len(packed) / 2
	for _, lane := range [2][]uint16{packed[:half], packed[half:]} {
		ctx := 0
		for _, p := range lane {
			s := int(c.hist[int(p)<<3|7])
			c.cnt1[ctx*nUsed+s]++
			ctx = s + 1
		}
	}
}

// clearHist zeroes the hist slots of the nPacked packed codes at the head
// of used, and of the wide marker.
func (c *Coder) clearHist(nPacked int) {
	for _, p := range c.used[:nPacked] {
		clear(c.hist[p<<3 : p<<3+8])
	}
	clear(c.hist[wide<<3:])
}

// counts returns a model's counts, context-major — context ctx's row is
// [ctx*nUsed, (ctx+1)*nUsed) — and its context count.
func (c *Coder) counts(model int) ([]uint32, int) {
	switch model {
	case modelOrder0:
		return c.cnt0, 1
	case modelOrder1:
		return c.cnt1, len(c.used) + 1
	}
	return c.cnt, numCtx
}

// estimate picks a model's table log and estimates the size of the
// section it would write from its counts alone: each code at −log2 of the
// share of its context's table its frequency will hold, each frequency at
// the varint it takes, each run of zero frequencies at two bytes.
func (c *Coder) estimate(model, n int) (fit, error) {
	cnt, nCtx := c.counts(model)
	nUsed := len(c.used)
	maxDistinct, pairs := 0, 0
	for ctx := 0; ctx < nCtx; ctx++ {
		d := 0
		for _, k := range cnt[ctx*nUsed : (ctx+1)*nUsed] {
			if k != 0 {
				d++
			}
		}
		maxDistinct, pairs = max(maxDistinct, d), pairs+d
	}
	// The table log follows from the symbol count, grown until the context
	// with the most distinct codes fits twice over. Order 1's many tables
	// take the largest log the table-size bound allows.
	L := min(max(bits.Len(uint(n))-6, minLog), baseLog)
	if model == modelOrder1 {
		L = min(bits.Len(uint(min(maxEntries(nUsed+pairs), maxOrder1Entries)/nCtx))-1, baseLog)
	}
	for L < maxLog && 1<<L < 2*maxDistinct {
		L++
	}
	if L < minLog || maxDistinct > total(L) || nCtx<<L > maxEntries(nUsed+pairs) {
		return fit{}, fmt.Errorf("ans: %d distinct codes in one of %d contexts exceed the largest table", maxDistinct, nCtx)
	}
	// A code under a share of one slot holds one anyway; the others share
	// the slots left, as normalize lays them out.
	sum := uint64(total(L))
	var codeBits float64
	tableLen := 0
	for ctx := 0; ctx < nCtx; ctx++ {
		row := cnt[ctx*nUsed : (ctx+1)*nUsed]
		var count, rare uint64
		slots := sum
		for _, k := range row {
			count += uint64(k)
		}
		for _, k := range row {
			if k := uint64(k); k != 0 && k*sum < count {
				rare, slots = rare+k, slots-1
			}
		}
		zero := false
		for _, k := range row {
			k := uint64(k)
			if k == 0 {
				if !zero {
					tableLen += 2
				}
				zero = true
				continue
			}
			zero = false
			f := 1.0
			if k*sum >= count {
				f = float64(k) * float64(slots) / float64(count-rare)
			}
			codeBits += float64(k) * (float64(L) - math.Log2(f))
			tableLen += (bits.Len64(uint64(f)) + 6) / 7
		}
	}
	return fit{model, nCtx, L, 2 + tableLen + 16 + int(codeBits/8)}, nil
}

// build normalizes the counts of the fitted model into c.enc and writes
// its table description into c.table.
func (c *Coder) build(f fit) {
	cnt, nCtx := c.counts(f.model)
	nUsed := len(c.used)
	c.enc = slices.Grow(c.enc[:0], nUsed*nCtx)[:nUsed*nCtx]
	for ctx := 0; ctx < nCtx; ctx++ {
		c.normalize(cnt[ctx*nUsed:(ctx+1)*nUsed], nCtx, ctx, f.L)
	}

	t := binary.AppendUvarint(c.table[:0], uint64(nUsed))
	prev := uint32(0)
	for _, u := range c.used {
		t = binary.AppendUvarint(t, uint64(u-prev))
		prev = u
	}
	for ctx := 0; ctx < nCtx; ctx++ {
		for s := 0; s < nUsed; {
			if f := c.enc[s*nCtx+ctx].freq; f != 0 {
				t = binary.AppendUvarint(t, uint64(f))
				s++
				continue
			}
			run := 1
			for s+run < nUsed && c.enc[(s+run)*nCtx+ctx].freq == 0 {
				run++
			}
			t = append(t, 0)
			t = binary.AppendUvarint(t, uint64(run-1))
			s += run
		}
	}
	c.table = t
}

// normalize scales context ctx's counts, row, to frequencies summing to
// total(L), every used symbol keeping at least 1, into c.enc, and lays the
// symbols out in used order.
func (c *Coder) normalize(row []uint32, nCtx, ctx, L int) {
	sum := uint32(total(L))
	nUsed := len(c.used)
	var count uint64
	best := -1
	for s, k := range row {
		count += uint64(k)
		if k != 0 && (best < 0 || k > row[best]) {
			best = s
		}
	}
	diff := int(sum)
	for s, k := range row {
		f := uint32(0)
		if k != 0 {
			f = max(1, uint32(uint64(k)*uint64(sum)/count))
		}
		c.enc[s*nCtx+ctx].freq = f
		diff -= int(f)
	}
	if best < 0 {
		return
	}
	if diff > 0 {
		c.enc[best*nCtx+ctx].freq += uint32(diff)
	}
	// Symbols raised to 1 overdrew the table: take the excess back from
	// the others in proportion to their size, where a slot costs every
	// unclamped symbol about the same.
	for diff < 0 {
		for s := 0; s < nUsed && diff < 0; s++ {
			e := &c.enc[s*nCtx+ctx]
			if e.freq > 1 {
				d := min(int(e.freq-1), max(1, int(e.freq>>4)), -diff)
				e.freq -= uint32(d)
				diff += d
			}
		}
	}
	start := uint32(0)
	for s := 0; s < nUsed; s++ {
		if e := &c.enc[s*nCtx+ctx]; e.freq != 0 {
			e.set(e.freq, start, L)
			start += e.freq
		}
	}
}

// summarize derives the run's statistics from the counts and the fitted
// tables.
func (c *Coder) summarize(f fit, n, radius int) Summary {
	var sum Summary
	if n == 0 {
		return sum
	}
	cnt, nCtx := c.counts(f.model)
	nUsed := len(c.cnt0)
	zero, hasZero := slices.BinarySearch(c.used, uint32(radius))
	var bitsAll, bitsZero float64
	for s, t := range c.cnt0 {
		for ctx := 0; ctx < nCtx; ctx++ {
			if k := cnt[ctx*nUsed+s]; k != 0 {
				b := float64(k) * (float64(f.L) - math.Log2(float64(c.enc[s*nCtx+ctx].freq)))
				bitsAll += b
				if hasZero && s == zero {
					bitsZero += b
				}
			}
		}
		p := float64(t) / float64(n)
		sum.Entropy -= p * math.Log2(p)
	}
	if hasZero {
		sum.Zero = int(c.cnt0[zero])
	}
	if bitsAll > 0 {
		sum.ZeroShare = bitsZero / bitsAll
	}
	return sum
}

// Decode decodes the n codes of a coded section into syms, which it
// resets, and returns how many of them are in the escape bin. radius is
// the quantizer's, as for Encode. A malformed table, a code in an
// unassigned slot or an empty context, a section too short or too long
// for n codes, and a lane not back at its start state all fail with
// ErrCorrupt, the first before the code stream is allocated when n is more
// than the section can hold. A damaged state or word can also decode to
// other valid codes — rANS decoding forgets a small state error within a
// few codes — so the section is no checksum: catching corrupted bytes is
// the integrity layer's job.
func (c *Coder) Decode(syms *huffman.SymbolStream, src []byte, n, radius int) (int, error) {
	if n < 0 || n > maxSymbols(len(src)) {
		return 0, fmt.Errorf("ans: %d codes in a %d-byte section: %w", n, len(src), ErrCorrupt)
	}
	L, hasWide, rest, err := c.readTables(src, radius)
	if err != nil {
		return 0, err
	}
	if len(rest) < 16 || len(rest)%4 != 0 {
		return 0, fmt.Errorf("ans: truncated section: %w", ErrCorrupt)
	}
	xa, xb := binary.LittleEndian.Uint64(rest), binary.LittleEndian.Uint64(rest[8:])
	if xa < stateLow || xb < stateLow || xa >= 1<<63 || xb >= 1<<63 {
		return 0, fmt.Errorf("ans: lane state out of range: %w", ErrCorrupt)
	}
	w := rest[16:]
	nw := len(w) / 4

	syms.Reset()
	packed := slices.Grow(syms.Packed, n)[:n]
	dec, wideAt := c.dec, c.wideAt
	mask := uint64(1)<<L - 1
	half := n / 2
	var bad uint64
	escapes, pos, truncated := 0, 0, false
	// next decodes the next code of a lane: look up its state's slot in its
	// context's table, step the state, refill it from the words when it
	// falls below stateLow, and note what the code is.
	type lane struct {
		x     uint64
		ctx   int
		wides []int32
	}
	next := func(l *lane) uint16 {
		i := l.ctx<<L | int(l.x&mask)
		e := dec[i]
		l.x = (e>>freqShift&freqMask)*(l.x>>L) + e>>offShift
		if l.x < stateLow {
			if pos < nw {
				l.x = l.x<<32 | uint64(binary.LittleEndian.Uint32(w[4*pos:]))
				pos++
			} else {
				truncated = true
			}
		}
		if uint16(e) == wide {
			l.wides = append(l.wides, int32(wideAt[i]))
		}
		escapes += int(e >> escBit & 1)
		bad |= e
		l.ctx = int(e >> ctxShift & ctxMask)
		return uint16(e)
	}
	a, b := lane{x: xa, wides: syms.Wide}, lane{x: xb, wides: c.wideB[:0]}
	if hasWide {
		for i := 0; i < half; i++ {
			packed[i], packed[half+i] = next(&a), next(&b)
		}
	} else {
		// The same steps, both lanes written out in one loop and without
		// the wide-code test, which costs this loop a fifth of its time;
		// only radii past 32767 produce wide codes. A corrupt section need
		// not be decoded to its claimed end: the lanes stop after the block
		// of 4096 steps that runs out of words or reaches an unassigned slot.
		r := run{xa: xa, xb: xb}
		const block = 1 << 12
		for i := 0; i < half; i += block {
			hi := min(i+block, half)
			r.decode(packed[i:hi], packed[half+i:half+hi], dec, L, w)
			if r.pos > nw || r.bad>>badBit&1 != 0 {
				break
			}
		}
		a.x, a.ctx, b.x, b.ctx = r.xa, r.ca, r.xb, r.cb
		pos, escapes, bad = min(r.pos, nw), r.escapes, r.bad
		truncated = r.pos > nw
	}
	if n%2 == 1 {
		packed[n-1] = next(&b)
	}
	xa, xb = a.x, b.x
	syms.Packed, syms.Wide, c.wideB = packed, append(a.wides, b.wides...), b.wides
	switch {
	case bad>>badBit&1 != 0:
		return 0, fmt.Errorf("ans: code in an unassigned slot or an empty context: %w", ErrCorrupt)
	case truncated:
		return 0, fmt.Errorf("ans: truncated section: %w", ErrCorrupt)
	case pos != nw:
		return 0, fmt.Errorf("ans: %d words left over: %w", nw-pos, ErrCorrupt)
	case xa != stateLow || xb != stateLow:
		return 0, fmt.Errorf("ans: final state mismatch: %w", ErrCorrupt)
	}
	return escapes, nil
}

// run is the state of Decode's two lanes between blocks: their states,
// the contexts their next codes are decoded in, the next word to read, the
// escape count, and the OR of every table entry decoded, whose badBit marks
// a code in an unassigned slot or an empty context.
type run struct {
	xa, xb       uint64
	ca, cb       int
	pos, escapes int
	bad          uint64
}

// decode is Decode's loop for streams without wide codes, kept apart so
// that the lanes' state stays in registers: it decodes the next len(pa)
// codes of lane A into pa and as many of lane B into pb, refilling a lane
// from the words in w when its state falls below stateLow. A lane that
// needs a word past the last one reads none, and pos still counts it, so
// r.pos past len(w)/4 means the section was truncated.
func (r *run) decode(pa, pb []uint16, dec []uint64, L int, w []byte) {
	xa, xb, ca, cb, pos, escapes, bad := r.xa, r.xb, r.ca, r.cb, r.pos, r.escapes, r.bad
	nw := len(w) / 4
	shift := uint(L) & 63
	mask := uint64(1)<<shift - 1
	pb = pb[:len(pa)]
	for i := range pa {
		ea, eb := dec[ca<<shift|int(xa&mask)], dec[cb<<shift|int(xb&mask)]
		xa = (ea>>freqShift&freqMask)*(xa>>shift) + ea>>offShift
		xb = (eb>>freqShift&freqMask)*(xb>>shift) + eb>>offShift
		if xa < stateLow {
			if pos < nw {
				xa = xa<<32 | uint64(binary.LittleEndian.Uint32(w[4*pos:]))
			}
			pos++
		}
		if xb < stateLow {
			if pos < nw {
				xb = xb<<32 | uint64(binary.LittleEndian.Uint32(w[4*pos:]))
			}
			pos++
		}
		pa[i], pb[i] = uint16(ea), uint16(eb)
		escapes += int(ea>>escBit&1 + eb>>escBit&1)
		bad |= ea | eb
		ca, cb = int(ea>>ctxShift&ctxMask), int(eb>>ctxShift&ctxMask)
	}
	r.xa, r.xb, r.ca, r.cb, r.pos, r.escapes, r.bad = xa, xb, ca, cb, pos, escapes, bad
}

// readTables parses the model, the table log, the used-symbol list and
// the frequencies, builds the decode tables, and returns the table log,
// whether any used code is wide, and the rest of the section.
func (c *Coder) readTables(src []byte, radius int) (int, bool, []byte, error) {
	corrupt := func(what string) (int, bool, []byte, error) {
		return 0, false, nil, fmt.Errorf("ans: %s: %w", what, ErrCorrupt)
	}
	if len(src) < 2 {
		return corrupt("no table")
	}
	model, L := int(src[0]), int(src[1])
	if L < minLog || L > maxLog {
		return corrupt("table log")
	}
	off := 2
	uvarint := func() (uint64, bool) {
		v, k := binary.Uvarint(src[off:])
		if k <= 0 {
			return 0, false
		}
		off += k
		return v, true
	}
	nUsed, ok := uvarint()
	// Every used symbol takes a byte, which bounds the list before it is
	// allocated.
	if !ok || nUsed > uint64(len(src)-off) {
		return corrupt("used-symbol count")
	}
	alphabet := uint64(min(2*radius, maxCode))
	used := c.used[:0]
	hasWide := false
	for i := uint64(0); i < nUsed; i++ {
		v, ok := uvarint()
		if !ok || (i > 0 && v == 0) {
			return corrupt("unsorted symbol list")
		}
		if i > 0 {
			v += uint64(used[i-1])
		}
		if v >= alphabet {
			return corrupt("symbol outside the alphabet")
		}
		used = append(used, uint32(v))
		hasWide = hasWide || v >= wide
	}
	c.used = used
	var nCtx int
	switch {
	case model == modelDistance:
		nCtx = numCtx
	case model == modelOrder0:
		nCtx = 1
	case model == modelOrder1 && !hasWide && nUsed < ctxMask:
		nCtx = len(used) + 1
	default:
		return corrupt("context model")
	}

	// Parse every context's frequencies before any table is allocated:
	// the table description's length bounds the tables.
	sum := total(L)
	freqs, bounds := c.freqs[:0], c.bounds[:0]
	for ctx := 0; ctx < nCtx; ctx++ {
		bounds = append(bounds, len(freqs))
		slot := 0
		for s := 0; s < len(used); {
			f, ok := uvarint()
			if !ok {
				return corrupt("frequency")
			}
			if f == 0 {
				run, ok := uvarint()
				if !ok || run >= uint64(len(used)-s) {
					return corrupt("zero run")
				}
				s += int(run) + 1
				continue
			}
			if f > uint64(sum-slot) {
				return corrupt("frequencies exceed the table")
			}
			freqs = append(freqs, f|uint64(s)<<32)
			slot += int(f)
			s++
		}
		if slot != 0 && slot != sum {
			return corrupt("frequencies do not sum to the table total")
		}
	}
	bounds = append(bounds, len(freqs))
	c.freqs, c.bounds = freqs, bounds
	if nCtx<<L > maxEntries(off-2) {
		return corrupt("table log")
	}

	size := 1 << L
	c.dec = slices.Grow(c.dec[:0], nCtx*size)[:nCtx*size]
	if hasWide {
		c.wideAt = slices.Grow(c.wideAt[:0], nCtx*size)[:nCtx*size]
	}
	ctxs := newContexts(radius)
	for ctx := 0; ctx < nCtx; ctx++ {
		tab := c.dec[ctx*size : (ctx+1)*size]
		slot := 0
		for _, fs := range freqs[bounds[ctx]:bounds[ctx+1]] {
			f, s := int(uint32(fs)), int(fs>>32)
			code := used[s]
			e := uint64(min(code, wide)) | uint64(nextCtx(model, s, code, ctxs))<<ctxShift | uint64(f)<<freqShift
			if code == 0 {
				e |= 1 << escBit
			}
			for j := range f {
				tab[slot+j] = e | uint64(j)<<offShift
			}
			if hasWide {
				for j := range f {
					c.wideAt[ctx*size+slot+j] = code
				}
			}
			slot += f
		}
		for j := slot; j < size; j++ {
			tab[j] = badEntry
		}
	}
	return L, hasWide, src[off:], nil
}
