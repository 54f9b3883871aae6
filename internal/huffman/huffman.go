// Package huffman implements a canonical Huffman coder for the quantization
// codes produced by the SZ-style compressors: the entropy stage of sz3
// stream version 1, which the shipping decoder no longer reads (versions 2
// and 3 use internal/ans); the tests' version 1 oracle and the benchmark's
// per-layer rows still run it. SymbolStream, the compact in-memory code
// stream, serves every version. The
// encoder builds an optimal
// prefix code from symbol frequencies, converts it to canonical form (so only
// code lengths need to be serialized), and packs codes MSB-first through a
// 64-bit accumulator.
//
// The decoder is table-driven: a 12-bit first-level lookup resolves nearly
// every realistic code with one peek, and longer codes fall back to a
// canonical length-bucket walk (see decoder.go). There is one encoder,
// EncodeToSized, and one decoder, DecodeInto; both operate on the compact
// SymbolStream representation and write into caller-provided buffers
// (sized exactly via EncodedBitsStream), so steady-state coding performs no
// per-symbol allocations. The pre-overhaul coder, the byte-compatibility
// oracle both are pinned against, lives in the test-only internal/oracle
// package; TableFromLengths, Table.Serialize and DeserializeTable are the
// hooks it builds on.
package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Maximum supported code length. Canonical Huffman codes for realistic
// quantization-bin distributions stay well under this.
const maxCodeLen = 58

var (
	// ErrCorrupt indicates the encoded stream or table is malformed.
	ErrCorrupt = errors.New("huffman: corrupt stream")
	// ErrTooManySymbols indicates the alphabet exceeds the supported size.
	ErrTooManySymbols = errors.New("huffman: too many symbols")
)

// Code describes the canonical code assigned to one symbol.
type Code struct {
	Bits uint64 // code bits, right-aligned
	Len  uint8  // code length in bits; 0 = symbol unused
}

// Table is a canonical Huffman code table mapping symbol -> code.
//
// Codes are stored densely over the window [base, base+len(codes)) — the
// span from the smallest to the largest coded symbol. Quantization-bin
// alphabets are huge (2×radius, 65536 by default) but the occupied bins
// cluster tightly around the zero bin, so windowing shrinks the per-table
// allocation and the serialize walk from alphabet-sized to used-span-sized
// without changing the serialized bytes (which record the full alphabet).
type Table struct {
	codes    []Code // indexed by sym - base
	base     int    // smallest coded symbol
	alphabet int    // full alphabet size (max symbol + 1)
	symbols  int    // number of coded symbols
}

// leafSort sorts table-build leaves by (freq, symbol) without the closure
// allocation sort.Slice pays.
type leafSort struct {
	freqs []uint64
	syms  []int32
}

func (s *leafSort) Len() int { return len(s.syms) }
func (s *leafSort) Less(i, j int) bool {
	if s.freqs[i] != s.freqs[j] {
		return s.freqs[i] < s.freqs[j]
	}
	return s.syms[i] < s.syms[j]
}
func (s *leafSort) Swap(i, j int) {
	s.freqs[i], s.freqs[j] = s.freqs[j], s.freqs[i]
	s.syms[i], s.syms[j] = s.syms[j], s.syms[i]
}

// buildScratch pools the table-construction working set: leaf arrays, the
// merge tree, and the window-length buffer. BuildTable runs once per
// compressed field, and without pooling its transient arrays dominated the
// compressor's allocation profile.
type buildScratch struct {
	sorter  leafSort
	restF   []uint64 // stable-partition spill for freq ≥ 2 leaves
	restS   []int32
	freqw   []uint64 // node frequencies: leaves then internals
	parent  []int32
	depth   []uint8
	lengths []uint8
}

var buildScratchPool = sync.Pool{New: func() interface{} { return &buildScratch{} }}

// BuildTable constructs a canonical Huffman table from symbol frequencies.
// freqs[i] is the occurrence count of symbol i; zero-frequency symbols get
// no code. At least one symbol must have nonzero frequency.
//
// The optimal code lengths come from the sorted two-queue merge rather
// than a pointer-node heap: leaves sorted by (freq, symbol) are merged
// against a FIFO of internal nodes whose frequencies are non-decreasing by
// construction, with ties preferring leaves. That ordering reproduces the
// reference heap's (freq, order) tie-break exactly — leaves carry their
// symbol as order, internal nodes are created in increasing order — so the
// assigned lengths, and therefore every emitted stream byte, are identical
// to oracle.ReferenceBuildTable's (pinned by TestBuildTableMatchesReference
// and the frozen golden streams).
func BuildTable(freqs []uint64) (*Table, error) {
	if len(freqs) == 0 {
		return nil, errors.New("huffman: empty alphabet")
	}
	if len(freqs) > 1<<24 {
		return nil, ErrTooManySymbols
	}
	sc := buildScratchPool.Get().(*buildScratch)
	defer buildScratchPool.Put(sc)
	lfreq := sc.sorter.freqs[:0]
	lsym := sc.sorter.syms[:0]
	for sym, f := range freqs {
		if f > 0 {
			lfreq = append(lfreq, f)
			lsym = append(lsym, int32(sym))
		}
	}
	sc.sorter.freqs, sc.sorter.syms = lfreq, lsym
	k := len(lsym)
	if k == 0 {
		return nil, errors.New("huffman: no symbols with nonzero frequency")
	}
	base := int(lsym[0])
	window := int(lsym[k-1]) - base + 1
	if cap(sc.lengths) < window {
		sc.lengths = make([]uint8, window)
	}
	lengths := sc.lengths[:window]
	for i := range lengths {
		lengths[i] = 0
	}
	if k == 1 {
		// Degenerate alphabet: assign a 1-bit code.
		lengths[0] = 1
		return tableFromLengthsWindow(lengths, base, len(freqs), true)
	}
	// Sort leaves by (freq, symbol). Noisy fields put most of their mass
	// in a long tail of frequency-1 bins; those are already in the
	// required relative order (equal freq, symbols ascending from the
	// collection pass) and sort before every freq ≥ 2 leaf, so a stable
	// partition moves them to the front untouched and the comparison sort
	// only pays for the minority.
	restF := sc.restF[:0]
	restS := sc.restS[:0]
	ones := 0
	for i := 0; i < k; i++ {
		if lfreq[i] == 1 {
			lfreq[ones] = lfreq[i]
			lsym[ones] = lsym[i]
			ones++
		} else {
			restF = append(restF, lfreq[i])
			restS = append(restS, lsym[i])
		}
	}
	sc.restF, sc.restS = restF, restS
	copy(lfreq[ones:], restF)
	copy(lsym[ones:], restS)
	sort.Sort(&leafSort{lfreq[ones:], lsym[ones:]})

	// Two-queue merge over flat arrays: nodes 0..k-1 are the sorted
	// leaves, k..2k-2 the internals in creation order.
	n := 2*k - 1
	if cap(sc.freqw) < n {
		sc.freqw = make([]uint64, n)
		sc.parent = make([]int32, n)
		sc.depth = make([]uint8, n)
	}
	freqw := sc.freqw[:n]
	parent := sc.parent[:n]
	depth := sc.depth[:n]
	copy(freqw, lfreq)
	li, ii := 0, k
	for next := k; next < n; next++ {
		for c := 0; c < 2; c++ {
			var pick int
			if li < k && (ii >= next || freqw[li] <= freqw[ii]) {
				pick = li
				li++
			} else {
				pick = ii
				ii++
			}
			if c == 0 {
				freqw[next] = freqw[pick]
			} else {
				freqw[next] += freqw[pick]
			}
			parent[pick] = int32(next)
		}
	}

	// Depths top-down: parents are always created (and indexed) after
	// their children, so one descending pass resolves every node. Depths
	// cannot overflow uint8: depth d requires total frequency ≥ Fib(d+1),
	// and Fib(93) already exceeds 2^64.
	depth[n-1] = 0
	overflow := false
	for v := n - 2; v >= 0; v-- {
		d := depth[parent[v]] + 1
		depth[v] = d
		if v < k && d > maxCodeLen {
			overflow = true
		}
	}
	if overflow {
		// Pathologically skewed distributions can exceed the supported
		// depth; fall back to near-uniform codes (depth ≤ log2 alphabet).
		flat := make([]uint64, len(freqs))
		for sym, f := range freqs {
			if f > 0 {
				flat[sym] = 1
			}
		}
		return BuildTable(flat)
	}
	for i := 0; i < k; i++ {
		lengths[lsym[i]-int32(base)] = depth[i]
	}
	return tableFromLengthsWindow(lengths, base, len(freqs), true)
}

// symLen pairs a symbol with its code length for canonical ordering.
type symLen struct {
	sym int32
	ln  uint8
}

// canonicalOrder returns the symbols with nonzero code length sorted by
// (length, symbol) — the canonical assignment order — appended to dst. It
// is the single ordering authority shared by table construction
// (TableFromLengths) and decoder construction (decoder.init), replacing
// the two sort.Slice passes that previously re-derived the same order. A
// counting sort by length keeps it O(n + maxLen) and deterministic.
func canonicalOrder(lengths []uint8, dst []symLen) ([]symLen, error) {
	var count [maxCodeLen + 1]int32
	used := 0
	for _, ln := range lengths {
		if ln == 0 {
			continue
		}
		if ln > maxCodeLen {
			return nil, ErrCorrupt
		}
		count[ln]++
		used++
	}
	if used == 0 {
		return nil, ErrCorrupt
	}
	var start [maxCodeLen + 1]int32
	var s int32
	for ln := 1; ln <= maxCodeLen; ln++ {
		start[ln] = s
		s += count[ln]
	}
	if cap(dst) < used {
		dst = make([]symLen, used)
	}
	dst = dst[:used]
	for sym, ln := range lengths {
		if ln == 0 {
			continue
		}
		dst[start[ln]] = symLen{int32(sym), ln}
		start[ln]++
	}
	return dst, nil
}

// tableCodesPool recycles code windows between released tables. The
// escape bin sits at symbol 0, so any field with literals stretches the
// window across half the alphabet (~0.5–1 MiB of Code entries) — garbage
// the compressor would otherwise produce once per field.
var tableCodesPool = sync.Pool{New: func() interface{} { return new([]Code) }}

// Release returns the table's code window to the internal pool. Optional:
// callers on the compression hot path (which build one table per field)
// release; everyone else lets the GC take it. The table must not be used
// after Release.
func (t *Table) Release() {
	c := t.codes
	if c == nil {
		return
	}
	t.codes = nil
	tableCodesPool.Put(&c)
}

// pooledCodes returns a zeroed length-n code window, reusing pool capacity.
func pooledCodes(n int) []Code {
	p := tableCodesPool.Get().(*[]Code)
	s := *p
	if cap(s) < n {
		//ocelotvet:ok poolsafe undersized entry is deliberately dropped so the pool converges on full-alphabet windows
		return make([]Code, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = Code{}
	}
	//ocelotvet:ok poolsafe the window transfers into the Table; Table.Release puts it back
	return s
}

// TableFromLengths assigns canonical codes to per-symbol code lengths:
// symbols sorted by (length, value).
func TableFromLengths(lengths []uint8) (*Table, error) {
	return tableFromLengthsWindow(lengths, 0, len(lengths), false)
}

// tableFromLengthsWindow builds a table whose lengths slice covers the
// symbol window [base, base+len(lengths)) of an alphabet-sized alphabet.
// pooled selects the recycled code window (hot path); TableFromLengths,
// which the reference builders use, passes false so the pre-overhaul
// allocation profile stays honest.
func tableFromLengthsWindow(lengths []uint8, base, alphabet int, pooled bool) (*Table, error) {
	used, err := canonicalOrder(lengths, nil)
	if err != nil {
		return nil, err
	}
	var codes []Code
	if pooled {
		codes = pooledCodes(len(lengths))
	} else {
		codes = make([]Code, len(lengths))
	}
	var code uint64
	prevLen := used[0].ln
	for _, sl := range used {
		code <<= sl.ln - prevLen
		// Validate the code fits in its length (overflow means invalid lengths).
		if sl.ln < 64 && code >= 1<<sl.ln {
			return nil, ErrCorrupt
		}
		codes[sl.sym] = Code{Bits: code, Len: sl.ln}
		code++
		prevLen = sl.ln
	}
	return &Table{codes: codes, base: base, alphabet: alphabet, symbols: len(used)}, nil
}

// CodeFor returns the code for symbol sym, or Len==0 if unused.
func (t *Table) CodeFor(sym int) Code {
	sym -= t.base
	if sym < 0 || sym >= len(t.codes) {
		return Code{}
	}
	return t.codes[sym]
}

// AlphabetSize reports the size of the alphabet (max symbol + 1).
func (t *Table) AlphabetSize() int { return t.alphabet }

// EncodedBitsStream returns the total payload bits required to encode s
// with this table — the payloadBits EncodeToSized takes. It also validates
// the stream: every symbol must have a code, and the number of WideEscape
// markers must match the Wide lane exactly.
func (t *Table) EncodedBitsStream(s *SymbolStream) (int, error) {
	total := 0
	wi := 0
	for _, p := range s.Packed {
		sym := int(p)
		if p == WideEscape {
			if wi >= len(s.Wide) {
				return 0, fmt.Errorf("huffman: %d escape markers for %d wide symbols", wi+1, len(s.Wide))
			}
			sym = int(s.Wide[wi])
			wi++
		}
		w := sym - t.base
		if w < 0 || w >= len(t.codes) || t.codes[w].Len == 0 {
			return 0, fmt.Errorf("huffman: symbol %d has no code", sym)
		}
		total += int(t.codes[w].Len)
	}
	if wi != len(s.Wide) {
		return 0, fmt.Errorf("huffman: %d escape markers for %d wide symbols", wi, len(s.Wide))
	}
	return total, nil
}

// encodedSize returns the exact byte size of the serialized stream for a
// payload of payloadBits bits: table header + symbol count + payload.
func (t *Table) encodedSize(payloadBits int) int {
	return t.serializedSize() + 8 + (payloadBits+7)/8
}

// EncodeToSized compresses the symbol stream s with table t and appends the
// serialized stream — [table][count][payload bits] — to dst, growing it at
// most once. It is the one encoder: callers reuse dst across fields so
// steady-state encoding allocates nothing. payloadBits must equal what
// EncodedBitsStream would return; the SZ pipeline derives it from the same
// frequency table the Huffman table was built from, so it never re-walks
// the symbol stream to count bits. Symbols without a code and wide-lane
// inconsistencies are still detected in the write loop.
func EncodeToSized(dst []byte, s *SymbolStream, t *Table, payloadBits int) ([]byte, error) {
	need := len(dst) + t.encodedSize(payloadBits)
	if cap(dst) < need {
		grown := make([]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	out := t.serializeTo(dst)
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(s.Len()))
	out = append(out, cnt[:]...)
	// The pack loop keeps the bit-writer state in locals (left-aligned
	// accumulator flushed eight bytes at a time), emitting exactly the
	// MSB-first packing oracle.Writer produces — pinned byte-identical
	// to oracle.ReferenceEncode by the encode-equivalence tests.
	var acc uint64
	var nbit uint
	var word [8]byte
	wi := 0
	base := int32(t.base)
	codes := t.codes
	for _, p := range s.Packed {
		sym := int32(p)
		if p == WideEscape {
			if wi >= len(s.Wide) {
				return nil, fmt.Errorf("huffman: %d escape markers for %d wide symbols", wi+1, len(s.Wide))
			}
			sym = s.Wide[wi]
			wi++
		}
		sw := sym - base
		if sw < 0 || int(sw) >= len(codes) || codes[sw].Len == 0 {
			return nil, fmt.Errorf("huffman: symbol %d has no code", sym)
		}
		c := codes[sw]
		width := uint(c.Len)
		if free := 64 - nbit; width <= free {
			acc = acc<<width | c.Bits
			nbit += width
			if nbit == 64 {
				binary.BigEndian.PutUint64(word[:], acc)
				out = append(out, word[:]...)
				acc, nbit = 0, 0
			}
			continue
		}
		take := 64 - nbit
		acc = acc<<take | c.Bits>>(width-take)
		binary.BigEndian.PutUint64(word[:], acc)
		out = append(out, word[:]...)
		rem := width - take
		acc = c.Bits & (1<<rem - 1)
		nbit = rem
	}
	// Flush the partial word, padding the final byte with zero bits.
	if nbit > 0 {
		if pad := (8 - nbit%8) % 8; pad > 0 {
			acc <<= pad
			nbit += pad
		}
		for nbit > 0 {
			out = append(out, byte(acc>>(nbit-8)))
			nbit -= 8
		}
	}
	return out, nil
}

// serializedSize is the exact byte length Serialize emits.
func (t *Table) serializedSize() int {
	return 8 + t.symbols*5
}

// serializeTo appends the canonical table to dst as:
// [u32 alphabetSize][u32 usedCount] then usedCount × ([u32 symbol][u8 len]).
func (t *Table) serializeTo(dst []byte) []byte {
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(t.alphabet))
	dst = append(dst, b4[:]...)
	binary.LittleEndian.PutUint32(b4[:], uint32(t.symbols))
	dst = append(dst, b4[:]...)
	for w, c := range t.codes {
		if c.Len == 0 {
			continue
		}
		binary.LittleEndian.PutUint32(b4[:], uint32(w+t.base))
		dst = append(dst, b4[:]...)
		dst = append(dst, c.Len)
	}
	return dst
}

// Serialize emits the canonical table, preallocated to its exact size.
func (t *Table) Serialize() []byte {
	return t.serializeTo(make([]byte, 0, t.serializedSize()))
}

// DeserializeTable parses the canonical table Serialize wrote at the head
// of stream and returns it with the rest of the stream.
func DeserializeTable(stream []byte) (*Table, []byte, error) {
	lengths, rest, err := parseTableLengths(stream, nil)
	if err != nil {
		return nil, nil, err
	}
	t, err := TableFromLengths(lengths)
	if err != nil {
		return nil, nil, err
	}
	return t, rest, nil
}
