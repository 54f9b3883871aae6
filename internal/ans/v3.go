package ans

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ocelot/internal/huffman"
	"ocelot/internal/simd"
)

// lanes is version 3's lane count: lane k codes the k-th of 16
// contiguous runs of m = n/16 codes, and lane 15 the n mod 16 codes after
// the last run too.
const lanes = simd.RANSLanes

// block is how many steps of every lane the coders take at a time,
// between checks: a corrupt section need not be decoded to its claimed
// end, and the encoders' word buffers grow a block at a time.
const block = 1 << 12

// encode3 codes syms in the version 3 layout with the tables build laid
// out for fit f, and appends the section to dst. Streams without wide
// codes run simd's kernels over every step but each lane's first; wide
// codes are looked up one by one.
func (c *Coder) encode3(dst []byte, syms *huffman.SymbolStream, f fit, ctxs *contexts, hasWide bool, nPacked int) []byte {
	packed := syms.Packed
	n := len(packed)
	m := n / lanes
	nCtx := f.nCtx
	if c.sym3 == nil {
		c.sym3 = make([]uint32, 1<<16)
	}
	sym := c.sym3
	for s, p := range c.used[:nPacked] {
		sym[p] = uint32(s*nCtx)<<10 | uint32(nextCtx(f.model, s, p, ctxs))
	}
	sym[wide] = uint32(nextCtx(f.model, 0, wide, ctxs))
	tab := simd.RANSEncTable{Sym: sym, Rcp: c.rcp3, Slot: c.slot3, L: uint(f.L)}
	var e simd.RANSEncoder
	for k := range e.X {
		e.X[k] = stateLow3
	}
	// Each lane's wide codes are taken last to first, from the cursor past
	// its last one.
	var cursor [lanes]int
	if hasWide {
		w := 0
		for k := range lanes {
			end := (k + 1) * m
			if k == lanes-1 {
				end = n
			}
			for _, p := range packed[k*m : end] {
				if p == wide {
					w++
				}
			}
			cursor[k] = w
		}
	}
	// put codes the code at p, in lane k, in the context the code before it
	// in the lane sets up, or context 0 for the lane's first.
	put := func(k, p int) {
		i := sym[packed[p]] >> 10
		if packed[p] == wide {
			cursor[k]--
			j, _ := slices.BinarySearch(c.used[nPacked:], uint32(syms.Wide[cursor[k]]))
			i = uint32((nPacked + j) * nCtx)
		}
		if p > k*m {
			i += sym[packed[p-1]] & ctxMask
		}
		x, w, emit := simd.RANSPut(e.X[k], c.rcp3[i], c.slot3[i], tab.L)
		if emit {
			c.words3[e.N] = w
			e.N++
		}
		e.X[k] = x
	}
	c.room(e.N, n-lanes*m)
	for p := n - 1; p >= lanes*m; p-- {
		put(lanes-1, p)
	}
	if hasWide {
		for j := m - 1; j >= 0; j-- {
			c.room(e.N, lanes)
			for k := lanes - 1; k >= 0; k-- {
				put(k, k*m+j)
			}
		}
	} else if m > 0 {
		for k := range lanes {
			e.Cur[k] = sym[packed[k*m+m-1]]
		}
		for hi := m; hi > 1; hi -= block {
			lo := max(hi-block, 1)
			c.room(e.N, lanes*(hi-lo+1))
			e.Encode(packed, m, lo, hi, &tab, c.words3)
		}
		c.room(e.N, lanes)
		for k := lanes - 1; k >= 0; k-- {
			put(k, k*m)
		}
	}

	out := append(dst, byte(f.model), byte(f.L))
	out = append(out, c.table...)
	out = slices.Grow(out, 2*e.N+4*lanes)
	for i := e.N - 1; i >= 0; i-- {
		out = binary.LittleEndian.AppendUint16(out, c.words3[i])
	}
	for _, x := range e.X {
		out = binary.LittleEndian.AppendUint32(out, x)
	}
	return out
}

// room grows the encoder's word buffer to hold k words past the first n.
func (c *Coder) room(n, k int) {
	if len(c.words3) < n+k {
		c.words3 = slices.Grow(c.words3[:n], k)
		c.words3 = c.words3[:cap(c.words3)]
	}
}

// decode3 decodes the n codes of a version 3 section whose tables
// readTables built, from rest, its words and final states. Streams without
// wide codes run simd's kernel over every step, blocks at a time.
func (c *Coder) decode3(syms *huffman.SymbolStream, rest []byte, n, L int, hasWide bool) (int, error) {
	if len(rest) < 4*lanes || len(rest)%2 != 0 {
		return 0, fmt.Errorf("ans: truncated section: %w", ErrCorrupt)
	}
	w := rest[:len(rest)-4*lanes]
	nw := len(w) / 2
	var d simd.RANSDecoder
	for k := range d.X {
		if d.X[k] = binary.LittleEndian.Uint32(rest[len(w)+4*k:]); d.X[k] < stateLow3 {
			return 0, fmt.Errorf("ans: lane state out of range: %w", ErrCorrupt)
		}
	}
	syms.Reset()
	packed := slices.Grow(syms.Packed, n)[:n]
	m := n / lanes
	tab := simd.RANSDecTable{Slot: c.slot3d, Sym: c.sym3d, L: uint(L)}
	for k := range c.wideLanes {
		c.wideLanes[k] = c.wideLanes[k][:0]
	}
	if hasWide {
		for j := range m {
			for k := range lanes {
				packed[k*m+j] = c.next3(&d, k, &tab, w)
			}
		}
	} else {
		for i := 0; i < m; i += block {
			d.Decode(packed, m, i, min(block, m-i), &tab, w)
			if d.Pos > nw || d.Bad>>badBit&1 != 0 {
				break
			}
		}
	}
	for p := lanes * m; p < n; p++ {
		packed[p] = c.next3(&d, lanes-1, &tab, w)
	}
	syms.Packed = packed
	for _, l := range c.wideLanes {
		syms.Wide = append(syms.Wide, l...)
	}
	switch {
	case d.Bad>>badBit&1 != 0:
		return 0, fmt.Errorf("ans: code in an unassigned slot or an empty context: %w", ErrCorrupt)
	case d.Pos > nw:
		return 0, fmt.Errorf("ans: truncated section: %w", ErrCorrupt)
	case d.Pos != nw:
		return 0, fmt.Errorf("ans: %d words left over: %w", nw-d.Pos, ErrCorrupt)
	}
	for _, x := range d.X {
		if x != stateLow3 {
			return 0, fmt.Errorf("ans: final state mismatch: %w", ErrCorrupt)
		}
	}
	return d.Esc, nil
}

// next3 decodes lane k's next code as one lane of simd.RANSDecoder.Decode
// does, and keeps a wide code in the lane's list.
func (c *Coder) next3(d *simd.RANSDecoder, k int, t *simd.RANSDecTable, w []byte) uint16 {
	x := d.X[k]
	e := int(min(d.Ctx[k], uint32(len(t.Sym)>>t.L-1))<<t.L | x&(1<<t.L-1))
	a, b := t.Slot[e], t.Sym[e]
	x = (a&0xFFFF)*(x>>t.L) + a>>16
	if x < stateLow3 {
		word := uint32(0)
		if d.Pos < len(w)/2 {
			word = uint32(binary.LittleEndian.Uint16(w[2*d.Pos:]))
		}
		x = x<<16 | word
		d.Pos++
	}
	if uint16(b) == wide {
		c.wideLanes[k] = append(c.wideLanes[k], int32(c.wideAt[e]))
	}
	d.Esc += int(b >> escBit & 1)
	d.Bad |= b
	d.Ctx[k], d.X[k] = b>>ctxShift&ctxMask, x
	return uint16(b)
}
