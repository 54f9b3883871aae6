package oracle

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"ocelot/internal/huffman"
)

// This file pins the pre-overhaul entropy coder: the append-as-you-go
// encoder with its conservative capacity guess and the length-bucket
// bit-by-bit decoder. Neither is used by the production pipeline; they are
// retained verbatim as the oracle: the fuzz/property tests assert the
// table-driven decoder accepts, rejects, and decodes exactly the same
// streams bit-for-bit (TestDecodeMatchesReference, FuzzDecodeVsReference).
//
// Do not "optimize" this file — its value is that it does not change.

// maxCodeLen is huffman's maximum supported code length.
const maxCodeLen = 58

type hNode struct {
	freq        uint64
	symbol      int // -1 for internal
	left, right *hNode
	order       int // tie-break for determinism
}

type hHeap []*hNode

func (h hHeap) Len() int { return len(h) }
func (h hHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].order < h[j].order
}
func (h hHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *hHeap) Push(x interface{}) { *h = append(*h, x.(*hNode)) }
func (h *hHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// ReferenceBuildTable is the pre-overhaul BuildTable: a pointer-node heap
// merge with per-node allocations. The production BuildTable's two-queue
// merge must assign identical code lengths for every input — the property
// TestBuildTableMatchesReference and FuzzBuildTableVsReference pin.
func ReferenceBuildTable(freqs []uint64) (*huffman.Table, error) {
	if len(freqs) == 0 {
		return nil, errors.New("huffman: empty alphabet")
	}
	if len(freqs) > 1<<24 {
		return nil, huffman.ErrTooManySymbols
	}
	var nodes []*hNode
	for sym, f := range freqs {
		if f > 0 {
			nodes = append(nodes, &hNode{freq: f, symbol: sym, order: sym})
		}
	}
	if len(nodes) == 0 {
		return nil, errors.New("huffman: no symbols with nonzero frequency")
	}
	lengths := make([]uint8, len(freqs))
	if len(nodes) == 1 {
		// Degenerate alphabet: assign a 1-bit code.
		lengths[nodes[0].symbol] = 1
	} else {
		h := hHeap(nodes)
		heap.Init(&h)
		order := len(freqs)
		for h.Len() > 1 {
			a := heap.Pop(&h).(*hNode)
			b := heap.Pop(&h).(*hNode)
			order++
			heap.Push(&h, &hNode{
				freq: a.freq + b.freq, symbol: -1, left: a, right: b, order: order,
			})
		}
		root := h[0]
		if err := assignLengths(root, 0, lengths); err != nil {
			// Pathologically skewed distributions can exceed the supported
			// depth; fall back to near-uniform codes (depth ≤ log2 alphabet).
			flat := make([]uint64, len(freqs))
			for sym, f := range freqs {
				if f > 0 {
					flat[sym] = 1
				}
			}
			return ReferenceBuildTable(flat)
		}
	}
	return huffman.TableFromLengths(lengths)
}

func assignLengths(n *hNode, depth uint8, lengths []uint8) error {
	if n.symbol >= 0 {
		if depth == 0 {
			depth = 1
		}
		if depth > maxCodeLen {
			return fmt.Errorf("huffman: code length %d exceeds max %d", depth, maxCodeLen)
		}
		lengths[n.symbol] = depth
		return nil
	}
	if err := assignLengths(n.left, depth+1, lengths); err != nil {
		return err
	}
	return assignLengths(n.right, depth+1, lengths)
}

// ReferenceEncode is the pre-overhaul Encode: per-symbol range checks in
// the write loop and a halfway-capacity writer that regrows on dense
// streams. Output bytes are identical to Encode's. (Symbol lookups go
// through CodeFor — the windowed codes array postdates this baseline, but
// the lookup cost profile is the same as the original direct index.)
func ReferenceEncode(data []int, t *huffman.Table) ([]byte, error) {
	header := t.Serialize()
	w := NewWriter(len(data)/2 + 16)
	for _, sym := range data {
		c := t.CodeFor(sym)
		if c.Len == 0 {
			return nil, fmt.Errorf("huffman: symbol %d has no code", sym)
		}
		w.WriteBits(c.Bits, uint(c.Len))
	}
	payload := w.Bytes()
	out := make([]byte, 0, len(header)+8+len(payload))
	out = append(out, header...)
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(len(data)))
	out = append(out, cnt[:]...)
	out = append(out, payload...)
	return out, nil
}

// ReferenceDecode is the pre-overhaul Decode: canonical decoding by length
// buckets, one bit per loop iteration.
func ReferenceDecode(stream []byte) ([]int, error) {
	t, rest, err := huffman.DeserializeTable(stream)
	if err != nil {
		return nil, err
	}
	if len(rest) < 8 {
		return nil, huffman.ErrCorrupt
	}
	count := binary.LittleEndian.Uint64(rest[:8])
	if count > 1<<40 {
		return nil, huffman.ErrCorrupt
	}
	payload := rest[8:]
	if count > uint64(len(payload))*8 {
		return nil, huffman.ErrCorrupt
	}
	dec, err := newRefDecoder(t)
	if err != nil {
		return nil, err
	}
	r := NewReader(payload)
	out := make([]int, count)
	for i := range out {
		sym, err := dec.decodeOne(r)
		if err != nil {
			return nil, err
		}
		out[i] = sym
	}
	return out, nil
}

// refDecoder performs canonical decoding by length buckets: for each code
// length L it records the first code value and the index of the first
// symbol with that length in the sorted symbol list.
type refDecoder struct {
	firstCode  [maxCodeLen + 2]uint64
	firstIndex [maxCodeLen + 2]int
	count      [maxCodeLen + 2]int
	symbols    []int // sorted by (len, symbol)
	minLen     uint8
	maxLen     uint8
}

func newRefDecoder(t *huffman.Table) (*refDecoder, error) {
	type refSymLen struct {
		sym int
		ln  uint8
	}
	var used []refSymLen
	for sym := 0; sym < t.AlphabetSize(); sym++ {
		if c := t.CodeFor(sym); c.Len > 0 {
			used = append(used, refSymLen{sym, c.Len})
		}
	}
	if len(used) == 0 {
		return nil, huffman.ErrCorrupt
	}
	sort.Slice(used, func(i, j int) bool {
		if used[i].ln != used[j].ln {
			return used[i].ln < used[j].ln
		}
		return used[i].sym < used[j].sym
	})
	d := &refDecoder{
		symbols: make([]int, len(used)),
		minLen:  used[0].ln,
		maxLen:  used[len(used)-1].ln,
	}
	for i, sl := range used {
		d.symbols[i] = sl.sym
		d.count[sl.ln]++
	}
	var code uint64
	idx := 0
	for ln := d.minLen; ln <= d.maxLen; ln++ {
		d.firstCode[ln] = code
		d.firstIndex[ln] = idx
		code = (code + uint64(d.count[ln])) << 1
		idx += d.count[ln]
	}
	return d, nil
}

func (d *refDecoder) decodeOne(r *Reader) (int, error) {
	var code uint64
	var ln uint8
	for ln < d.minLen {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint64(b)
		ln++
	}
	for {
		if d.count[ln] > 0 {
			offset := code - d.firstCode[ln]
			if code >= d.firstCode[ln] && offset < uint64(d.count[ln]) {
				return d.symbols[d.firstIndex[ln]+int(offset)], nil
			}
		}
		if ln >= d.maxLen {
			return 0, huffman.ErrCorrupt
		}
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint64(b)
		ln++
	}
}
